#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/solve_api.hpp"
#include "comm/gather.hpp"
#include "driver/decks.hpp"
#include "server/batch.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

// These tests' meshes are too small for a threaded team_width: pin three
// threads so their solves and collectives keep a threaded team.
[[maybe_unused]] ::testing::Environment* const kPinnedTeam =
    ::testing::AddGlobalTestEnvironment(new testing::PinnedThreads(3));

SolverConfig native_config(SolverType t) {
  SolverConfig cfg;
  cfg.type = t;
  cfg.max_iters = 20000;
  // Jacobi's convergence rate makes tight tolerances impractical on the
  // test problem; the bitwise comparison does not care about depth.
  cfg.eps = t == SolverType::kJacobi ? 1e-4 : 1e-8;
  if (t == SolverType::kPPCG) {
    cfg.precon = PreconType::kJacobiDiag;
    cfg.halo_depth = 2;
  }
  return cfg;
}

/// The tentpole invariant: a batch of N requests coalesced through one
/// parallel region is bitwise identical to solving each alone, for every
/// native solver, in both geometries.  Sub-team scheduling changes who
/// computes, never what is computed.
TEST(BatchEngine, BatchOfNBitwiseEqualsSolo2D) {
  const double conditioning[] = {2.0, 4.0, 6.0};
  for (SolverType t : {SolverType::kJacobi, SolverType::kCG,
                       SolverType::kChebyshev, SolverType::kPPCG}) {
    std::vector<std::unique_ptr<SimCluster2D>> batched, solo;
    std::vector<BatchItem> items;
    for (double rxy : conditioning) {
      batched.push_back(testing::make_test_problem(24, 2, 2, rxy));
      solo.push_back(testing::make_test_problem(24, 2, 2, rxy));
      items.push_back({batched.back().get(), native_config(t), {}});
    }
    solve_batched(items);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const SolveStats ref = run_solver(*solo[i], native_config(t));
      EXPECT_TRUE(items[i].stats.converged);
      EXPECT_EQ(items[i].stats.outer_iters, ref.outer_iters);
      EXPECT_EQ(items[i].stats.final_norm, ref.final_norm);
      EXPECT_EQ(testing::max_field_diff(*batched[i], *solo[i], FieldId::kU),
                0.0);
    }
  }
}

TEST(BatchEngine, BatchOfNBitwiseEqualsSolo3D) {
  const double conditioning[] = {2.0, 4.0, 6.0};
  for (SolverType t : {SolverType::kJacobi, SolverType::kCG,
                       SolverType::kChebyshev, SolverType::kPPCG}) {
    std::vector<std::unique_ptr<SimCluster>> batched, solo;
    std::vector<BatchItem> items;
    for (double rxyz : conditioning) {
      batched.push_back(testing::make_test_problem_3d(10, 2, 2, rxyz));
      solo.push_back(testing::make_test_problem_3d(10, 2, 2, rxyz));
      items.push_back({batched.back().get(), native_config(t), {}});
    }
    solve_batched(items);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const SolveStats ref = run_solver(*solo[i], native_config(t));
      EXPECT_TRUE(items[i].stats.converged);
      EXPECT_EQ(items[i].stats.outer_iters, ref.outer_iters);
      EXPECT_EQ(items[i].stats.final_norm, ref.final_norm);
      EXPECT_EQ(testing::max_field_diff(*batched[i], *solo[i], FieldId::kU),
                0.0);
    }
  }
}

SweepReport synthetic_report() {
  SweepReport rep;
  rep.ranks = 2;
  rep.steps = 1;
  const auto add = [&](const std::string& solver, PreconType pre, int depth,
                       double seconds, int iters) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.precon = pre;
    cell.config.halo_depth = depth;
    cell.config.mesh_n = 16;
    cell.config.dims = 2;
    cell.converged = true;
    cell.iterations = iters;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  };
  add("ppcg", PreconType::kJacobiDiag, 2, 0.010, 12);
  add("cg", PreconType::kNone, 1, 0.020, 40);
  add("jacobi", PreconType::kNone, 1, 0.300, 900);
  add("mg-pcg", PreconType::kNone, 1, 0.050, 8);
  return rep;
}

TEST(RoutingTable, RanksMeasuredCellsFastestFirst) {
  const RoutingTable table = RoutingTable::from_sweep(synthetic_report());
  EXPECT_EQ(table.size(), 4u);

  const std::vector<RouteEntry> multi = table.route(2, 16, 2);
  ASSERT_EQ(multi.size(), 3u);  // mg-pcg needs the undecomposed grid
  EXPECT_EQ(multi.front().config.type, SolverType::kPPCG);
  EXPECT_FALSE(multi.front().projected);
  EXPECT_EQ(multi.front().label(), "ppcg/jac_diag/d2/n16/fused");
  EXPECT_EQ(multi.back().config.type, SolverType::kJacobi);

  const std::vector<RouteEntry> single = table.route(2, 16, 1);
  ASSERT_EQ(single.size(), 4u);
  EXPECT_EQ(single[2].solver, "mg-pcg");  // 0.05 s slots in after cg
}

TEST(RoutingTable, UnseenMeshFallsBackToModelProjection) {
  const RoutingTable table = RoutingTable::from_sweep(synthetic_report());
  const std::vector<RouteEntry> ranked = table.route(2, 48, 2);
  ASSERT_FALSE(ranked.empty());
  for (const RouteEntry& e : ranked) {
    EXPECT_TRUE(e.projected);
    EXPECT_EQ(e.mesh_n, 48);
    EXPECT_EQ(e.label().front(), '~');
    EXPECT_GT(e.seconds, 0.0);
  }
  // Nothing measured in 3-D: routing has nothing to offer.
  EXPECT_TRUE(table.route(3, 16, 2).empty());
}

TEST(RoutingTable, ProjectionReadsPerStepIterations) {
  // The same per-step measurement, swept over one step and over four,
  // projects an unseen mesh to the same seconds.
  const SweepReport one = synthetic_report();
  SweepReport four = one;
  four.steps = 4;
  for (SweepOutcome& c : four.cells) {
    c.iterations *= 4;
    c.inner_steps *= 4;
    c.solve_seconds *= 4.0;
  }
  const std::vector<RouteEntry> a = RoutingTable::from_sweep(one).route(2, 48, 2);
  const std::vector<RouteEntry> b =
      RoutingTable::from_sweep(four).route(2, 48, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label());
    EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds) << a[i].label();
  }
}

TEST(RoutingTable, RoundTripsThroughSweepJson) {
  const SweepReport rep = synthetic_report();
  const RoutingTable table =
      RoutingTable::from_json_string(rep.to_json().dump(2));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.route(2, 16, 2).front().label(),
            "ppcg/jac_diag/d2/n16/fused");
}

TEST(RoutingTable, DropsCellsOfRetiredSchedules) {
  // Sweeps recorded before the pipelined and unfused schedules were
  // retired carry per-cell "pipeline" and "fused" flags; a cell whose
  // flag names a retired schedule names a route that no longer exists.
  // Mark the fastest cell that way.
  for (const auto& [key, retired] :
       {std::pair{"pipeline", true}, std::pair{"fused", false}}) {
    const io::JsonValue doc = synthetic_report().to_json();
    const io::JsonValue& cells = doc.at("cells");
    io::JsonValue flagged = io::JsonValue::array();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      io::JsonValue cell = cells.at(i);
      cell.set(key, i == 0 ? retired : !retired);
      flagged.push_back(std::move(cell));
    }
    io::JsonValue old = doc;
    old.set("cells", std::move(flagged));
    const RoutingTable table = RoutingTable::from_json_string(old.dump(2));
    EXPECT_EQ(table.size(), 3u) << key;
    EXPECT_EQ(table.route(2, 16, 2).front().label(), "cg/none/d1/n16/fused")
        << key;
  }
}

std::vector<std::string> route_labels(const RoutingTable& table, int mesh_n) {
  std::vector<std::string> labels;
  for (const RouteEntry& e : table.route(2, mesh_n, 2)) {
    labels.push_back(e.label());
  }
  return labels;
}

TEST(RoutingTable, CommittedServerRoutesStillLoadAndRank) {
  // The end-to-end benchmark's route table predates the retirement of the
  // pipelined and unfused schedules: every cell carries "pipeline": false
  // and half of them "fused": false.  Those unfused cells measured a
  // route that no longer exists and are dropped; the fused half must
  // still yield 32 cells (18 of them routable) and rank the server_mix
  // shapes (2-D, 64² and 128², 2 ranks) exactly as before.
  const std::string path =
      std::string(TEALEAF_DECKS_DIR) + "/../bench/e2e/server_routes.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(SweepReport::from_json_string(text.str()).cells.size(), 32u);
  const RoutingTable table = RoutingTable::from_json_file(path);
  EXPECT_EQ(table.size(), 18u);
  const std::vector<std::string> want64 = {
      "cg/jac_diag/d1/n64/fused",        "cg/none/d1/n64/fused",
      "ppcg/none/d4/n64/fused",          "ppcg/jac_diag/d1/n64/fused",
      "chebyshev/jac_diag/d1/n64/fused", "ppcg/none/d1/n64/fused",
      "chebyshev/none/d1/n64/fused",     "ppcg/jac_diag/d4/n64/fused"};
  const std::vector<std::string> want128 = {
      "cg/jac_diag/d1/n128/fused",        "cg/none/d1/n128/fused",
      "ppcg/none/d4/n128/fused",          "ppcg/none/d1/n128/fused",
      "ppcg/jac_diag/d1/n128/fused",      "ppcg/jac_diag/d4/n128/fused",
      "chebyshev/jac_diag/d1/n128/fused", "chebyshev/none/d1/n128/fused"};
  EXPECT_EQ(route_labels(table, 64), want64);
  EXPECT_EQ(route_labels(table, 128), want128);
}

TEST(SolveServer, MixedShapeStreamBatchesPerShapeInArrivalOrder) {
  SolveServer server;
  for (int i = 0; i < 4; ++i) {
    SolveRequest req;
    req.deck = decks::hot_block(24, 1);
    req.nranks = 2;
    req.tag = "small-" + std::to_string(i);
    server.submit(std::move(req));
  }
  for (int i = 0; i < 2; ++i) {
    SolveRequest req;
    req.deck = decks::hot_block(32, 1);
    req.nranks = 2;
    req.tag = "large-" + std::to_string(i);
    server.submit(std::move(req));
  }
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 6u);
  for (const SolveResult& r : results) EXPECT_TRUE(r.ok());
  EXPECT_EQ(results[0].tag, "small-0");
  EXPECT_EQ(results[5].tag, "large-1");
  EXPECT_TRUE(results[0].batched);
  EXPECT_TRUE(results[5].batched);

  // Batched-through-the-server ≡ a lone session solving the same deck.
  SolveSession solo(decks::hot_block(24, 1), 2);
  const SolveStats ref = solo.solve();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].stats.final_norm, ref.final_norm);
    EXPECT_EQ(results[i].stats.outer_iters, ref.outer_iters);
  }
  EXPECT_EQ(server.stats().requests, 6);
  EXPECT_EQ(server.stats().batched_requests, 6);
}

/// `auto` tile heights fit the L2 of the host the solve runs on, on the
/// session path and on the server's batch path alike; the modelled
/// machines only price.  On 512-wide chunks a 2 MiB L2 gives 42 rows
/// where the Spruce core solves used to assume gave 5.
TEST(SolveServer, AutoTilesFitTheHostL2) {
  InputDeck deck = decks::hot_block(16, 1);
  deck.x_cells = 1024;
  deck.xmax = 640.0;  // square cells, as the 16² deck's
  ASSERT_EQ(deck.solver.tile_rows, -1);
  SolveSession session(deck, 2);
  const SimCluster2D& cl = session.cluster();
  ASSERT_EQ(cl.chunk(0).nx(), 512);
  EXPECT_EQ(&session.machine(), &machines::host());
  const int host_rows =
      auto_tile_rows(machines::host(), 512, cl.halo_depth());
  EXPECT_EQ(resolve_tile_rows(cl, deck.solver), host_rows);
  const SolveStats solo = session.solve();
  ASSERT_TRUE(solo.converged);
  EXPECT_EQ(solo.tile_rows, host_rows);

  SolveServer server;
  for (const char* tag : {"a", "b"}) {
    SolveRequest req;
    req.deck = deck;
    req.nranks = 2;
    req.tag = tag;
    server.submit(std::move(req));
  }
  const std::vector<SolveResult> results = server.drain();
  EXPECT_EQ(server.stats().batched_requests, 2);
  for (const SolveResult& r : results) {
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.stats.tile_rows, host_rows);
    EXPECT_EQ(r.stats.final_norm, solo.final_norm);
  }
}

/// A long-lived server's latency record is a fixed log-bucket histogram:
/// a million observations add nothing to the stats' size, and p50/p99
/// land within one bucket of the exact quantiles.
TEST(ServerStats, LatencyRecordIsBoundedAndAccurate) {
  static_assert(std::is_trivially_copyable_v<ServerStats>,
                "a heap-owning member would grow with the requests served");
  // The k-th smallest of n observations is 0.1 ms·10^(3k/n), so the
  // exact quantiles need no stored copy; they arrive in a scrambled
  // order (7919 is coprime to n).
  constexpr long long n = 1000000;
  const auto sorted = [](double k) {
    return 1e-4 * std::pow(10.0, 3.0 * k / n);
  };
  ServerStats stats;
  for (long long i = 0; i < n; ++i) {
    stats.latency.add(sorted(static_cast<double>(i * 7919 % n)));
  }
  EXPECT_EQ(stats.latency.count(), n);
  const double bucket = std::pow(10.0, 1.0 / LogHistogram::kPerDecade);
  for (const double q : {0.50, 0.99}) {
    const double pos = q * static_cast<double>(n - 1);
    const double lo = std::floor(pos);
    const double want =
        sorted(lo) + (pos - lo) * (sorted(lo + 1.0) - sorted(lo));
    const double got = q == 0.50 ? stats.p50() : stats.p99();
    EXPECT_LE(got / want, bucket) << "q " << q;
    EXPECT_GE(got / want, 1.0 / bucket) << "q " << q;
  }
  // No observation reads 0; one reads back exactly.
  ServerStats one;
  EXPECT_EQ(one.p50(), 0.0);
  one.latency.add(1.5e-3);
  EXPECT_EQ(one.p50(), 1.5e-3);
  EXPECT_EQ(one.p99(), 1.5e-3);
}

TEST(SolveServer, ShapeCacheReusesSessionsAcrossDrains) {
  SolveServer server;
  SolveRequest req;
  req.deck = decks::hot_block(24, 1);
  req.nranks = 2;
  const SolveResult first = server.solve_one(req);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(server.sessions().hits(), 0);
  const SolveResult second = server.solve_one(req);
  EXPECT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(server.sessions().hits(), 1);
  EXPECT_EQ(server.stats().cache_hits, 1);
  // Identical request on a reset session: identical solve.
  EXPECT_EQ(second.stats.final_norm, first.stats.final_norm);
}

TEST(SolveServer, RoutesRequestsThroughTheTable) {
  ServerOptions opts;
  opts.routes = RoutingTable::from_sweep(synthetic_report());
  SolveServer server(std::move(opts));
  SolveRequest req;
  req.deck = decks::hot_block(16, 1);
  req.nranks = 2;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.route_label, "ppcg/jac_diag/d2/n16/fused");
  EXPECT_EQ(res.config.type, SolverType::kPPCG);
  EXPECT_EQ(res.config.halo_depth, 2);
  // The deck's tolerances survive routing; only structure is overlaid.
  EXPECT_EQ(res.config.eps, decks::hot_block(16, 1).solver.eps);
}

/// A table whose fastest one-rank route is mg-pcg (the synthetic report
/// ranks it behind ppcg and cg; this one measures it fastest).
RoutingTable mg_pcg_first_table() {
  SweepReport rep = synthetic_report();
  rep.cells.back().solve_seconds = 0.001;
  return RoutingTable::from_sweep(rep);
}

/// mg-pcg is one (solver, preconditioner) pair of the native CG body: a
/// drained one-rank request routed to it runs CG with the multigrid
/// preconditioner on the solo path, bitwise equal to a direct session
/// solve of that config.
TEST(ServerMgPcg, DrainedRequestRunsCgWithMultigrid) {
  ServerOptions opts;
  opts.routes = mg_pcg_first_table();
  SolveServer server(std::move(opts));
  SolveRequest req;
  req.deck = decks::hot_block(16, 1);
  req.deck.solver.eps = 1e-8;
  req.nranks = 1;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_FALSE(res.batched);
  EXPECT_EQ(res.route_label, "mg-pcg/none/d1/n16/fused");
  EXPECT_EQ(res.config.type, SolverType::kCG);
  EXPECT_EQ(res.config.precon, PreconType::kMultigrid);

  SolverConfig cfg = req.deck.solver;
  cfg.type = SolverType::kCG;
  cfg.precon = PreconType::kMultigrid;
  cfg.tile_rows = res.config.tile_rows;
  SolveSession direct(req.deck, 1);
  const SolveStats ref = direct.solve(cfg);
  EXPECT_EQ(res.stats.outer_iters, ref.outer_iters);
  EXPECT_EQ(res.stats.final_norm, ref.final_norm);
}

/// A breakdown re-route keeps the session's precision, and mg-pcg is
/// double-only: the retry on a mixed-precision session passes over the
/// mg-pcg fallback to the next one instead of throwing out of drain().
TEST(ServerMgPcg, MixedSessionRetryPassesOverMgPcg) {
  SweepReport rep;
  rep.ranks = 1;
  rep.steps = 1;
  const auto add = [&](const std::string& solver, PreconType pre,
                       const std::string& precision, double seconds) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.precon = pre;
    cell.config.mesh_n = 16;
    cell.config.precision = precision;
    cell.converged = true;
    cell.iterations = 10;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  };
  add("cg", PreconType::kNone, "mixed", 0.001);
  add("mg-pcg", PreconType::kNone, "double", 0.002);
  add("cg", PreconType::kJacobiDiag, "mixed", 0.003);
  ServerOptions opts;
  opts.routes = RoutingTable::from_sweep(rep);
  SolveServer server(std::move(opts));
  SolveRequest req;
  req.deck = decks::hot_block(16, 1);
  req.deck.solver.eps = 1e-300;  // mixed refinement stalls: a breakdown
  req.nranks = 1;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.rerouted);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.route_label, "cg/jac_diag/d1/n16/fused/mixed");
  EXPECT_EQ(res.config.precision, Precision::kMixed);
}

TEST(SolveServer, StaleHintBreakdownReroutesOnceAndCompletes) {
  SolveRequest req;
  req.deck = decks::hot_block(24, 1);
  req.nranks = 2;
  SolverConfig stale = req.deck.solver;
  stale.type = SolverType::kPPCG;
  // A below-spectrum interval with an odd inner-step count makes the
  // polynomial preconditioner indefinite: ⟨r, M⁻¹r⟩ < 0 at the restart,
  // the deterministic rz-breakdown (true spectrum here is ≈ [1, 3]).
  stale.inner_steps = 3;
  stale.eig_hint_min = 0.1;
  stale.eig_hint_max = 0.2;
  req.config = stale;

  // Without the re-route the stale-hinted config breaks down.
  SolveSession direct(req.deck, req.nranks);
  const SolveStats broken = direct.solve(stale);
  EXPECT_TRUE(broken.breakdown);
  EXPECT_FALSE(broken.converged);

  SolveServer server;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.rerouted);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_FALSE(res.config.has_eig_hints());
  EXPECT_EQ(server.stats().reroutes, 1);
  // The broken attempt's work is reported beside, not inside, `stats`.
  EXPECT_GT(res.failed_attempt_iters, 0);

  // The retry replays the request from intact fields: bitwise equal to
  // never having hinted at all.
  SolveRequest clean = req;
  clean.config->eig_hint_min = clean.config->eig_hint_max = 0.0;
  SolveServer reference;
  const SolveResult ref = reference.solve_one(clean);
  EXPECT_EQ(res.stats.final_norm, ref.stats.final_norm);
  EXPECT_EQ(res.stats.outer_iters, ref.stats.outer_iters);
}

SolveRequest hot_block_request(int mesh, const std::string& tag) {
  SolveRequest req;
  req.deck = decks::hot_block(mesh, 1);
  req.nranks = 2;
  req.tag = tag;
  return req;
}

/// A request the server cannot serve fails alone: its result names the
/// rule it broke, and every other request of the drain is served exactly
/// as if it had been drained by itself.
TEST(SolveServer, RejectedRequestFailsAlone) {
  // mg-pcg solves the undecomposed grid (a rule run_solver enforces
  // before its region opens) ...
  SolveRequest mg = hot_block_request(24, "mg-pcg-on-2-ranks");
  SolverConfig mg_cfg = mg.deck.solver;
  mg_cfg.type = SolverType::kCG;
  mg_cfg.precon = PreconType::kMultigrid;
  mg.config = mg_cfg;
  // ... and block-Jacobi excludes matrix powers (SolverConfig::validate).
  SolveRequest block = hot_block_request(24, "ppcg-jac-block-d4");
  SolverConfig block_cfg = block.deck.solver;
  block_cfg.type = SolverType::kPPCG;
  block_cfg.precon = PreconType::kJacobiBlock;
  block_cfg.halo_depth = 4;
  block.config = block_cfg;

  SolveServer server;
  server.submit(hot_block_request(24, "valid-0"));
  server.submit(mg);
  server.submit(block);
  server.submit(hot_block_request(24, "valid-1"));
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].tag, "valid-0");
  EXPECT_EQ(results[1].tag, "mg-pcg-on-2-ranks");
  EXPECT_EQ(results[2].tag, "ppcg-jac-block-d4");
  EXPECT_EQ(results[3].tag, "valid-1");

  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("one rank"), std::string::npos)
      << results[1].error;
  EXPECT_FALSE(results[2].ok());
  EXPECT_NE(results[2].error.find("block-Jacobi"), std::string::npos)
      << results[2].error;
  // Errors name the rule, not the library's source path or expression.
  for (const SolveResult& r : results) {
    EXPECT_EQ(r.error.find(".cpp:"), std::string::npos) << r.error;
    EXPECT_EQ(r.error.find("requirement failed"), std::string::npos)
        << r.error;
  }

  SolveServer alone;
  for (std::size_t i : {0u, 3u}) {
    const SolveResult ref = alone.solve_one(hot_block_request(24, "ref"));
    EXPECT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_TRUE(results[i].error.empty());
    EXPECT_EQ(results[i].stats.outer_iters, ref.stats.outer_iters);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(results[i].stats.final_norm),
              std::bit_cast<std::uint64_t>(ref.stats.final_norm));
  }
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_EQ(server.stats().requests, 4);
  EXPECT_EQ(server.stats().failures, 2);
  EXPECT_EQ(server.stats().latency.count(), 2);
}

/// The other refusals — a session the cache cannot build (zero ranks) and
/// a matrix file prepare cannot read — fail their own requests only, and
/// leave no session or cache count behind.
TEST(SolveServer, UnbuildableSessionAndUnreadableMatrixFailAlone) {
  SolveRequest no_ranks = hot_block_request(24, "zero-ranks");
  no_ranks.nranks = 0;
  SolveRequest mtx;
  mtx.deck.x_cells = mtx.deck.y_cells = 4;
  mtx.deck.end_step = 1;
  mtx.deck.matrix_file = ::testing::TempDir() + "/no_such_matrix.mtx";
  mtx.deck.solver.op = OperatorKind::kCsr;
  mtx.deck.states.push_back({});
  mtx.nranks = 1;
  mtx.tag = "missing-mtx";

  SolveServer server;
  server.submit(hot_block_request(24, "valid-0"));
  server.submit(no_ranks);
  server.submit(mtx);
  server.submit(hot_block_request(24, "valid-1"));
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_TRUE(results[3].ok()) << results[3].error;
  EXPECT_NE(results[1].error.find("at least one rank"), std::string::npos)
      << results[1].error;
  EXPECT_NE(results[2].error.find("cannot open"), std::string::npos)
      << results[2].error;
  EXPECT_EQ(server.stats().failures, 2);
  // The valid pair's shape and the matrix request's, whose session was
  // built before its prepare failed; nothing of the zero-rank shape.
  EXPECT_EQ(server.sessions().shapes(), 2u);
  EXPECT_EQ(server.stats().cache_misses, 3);
}

/// `cache_hit` marks the requests that got a pooled session, whatever
/// their position in the drain.
TEST(SolveServer, CacheHitMarksThePooledRequests) {
  SolveServer server;
  server.submit(hot_block_request(32, "warm-0"));
  server.submit(hot_block_request(32, "warm-1"));
  (void)server.drain();

  // Two fresh 24² requests interleaved with two 32² ones, whose two
  // sessions are pooled.
  server.submit(hot_block_request(24, "a0"));
  server.submit(hot_block_request(32, "b0"));
  server.submit(hot_block_request(24, "a1"));
  server.submit(hot_block_request(32, "b1"));
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  std::vector<bool> hits;
  for (const SolveResult& r : results) {
    EXPECT_TRUE(r.ok());
    hits.push_back(r.cache_hit);
  }
  EXPECT_EQ(hits, (std::vector<bool>{false, true, false, true}));
  EXPECT_EQ(server.stats().cache_hits, 2);
  EXPECT_EQ(server.stats().cache_misses, 4);
}

/// The precision-safety regression: an fp64 request and a mixed request of
/// the SAME geometry submitted through the server must never share a
/// session — the shape key carries the precision, so the fp64 stream stays
/// bitwise identical to a server that never saw reduced precision (no
/// shared fp32 bank).
TEST(ServerPrecision, SessionsNeverSharedAcrossPrecisions) {
  InputDeck base = decks::hot_block(24, 1);
  base.solver.type = SolverType::kChebyshev;
  InputDeck mixed = base;
  mixed.solver.precision = Precision::kMixed;
  const auto make = [](const InputDeck& d, const std::string& tag) {
    SolveRequest r;
    r.deck = d;
    r.nranks = 2;
    r.tag = tag;
    return r;
  };

  SolveServer server, reference;
  server.submit(make(base, "d0"));
  server.submit(make(mixed, "m0"));
  server.submit(make(base, "d1"));
  const std::vector<SolveResult> first = server.drain();
  ASSERT_EQ(first.size(), 3u);
  for (const SolveResult& r : first) EXPECT_TRUE(r.ok());

  reference.submit(make(base, "d0"));
  reference.submit(make(base, "d1"));
  const std::vector<SolveResult> ref_first = reference.drain();

  // The fp64 members batch together exactly as if the mixed request were
  // never submitted; the mixed member solves solo in its own session.
  EXPECT_TRUE(first[0].batched);
  EXPECT_EQ(first[0].stats.final_norm, ref_first[0].stats.final_norm);
  EXPECT_EQ(first[0].stats.outer_iters, ref_first[0].stats.outer_iters);
  EXPECT_FALSE(first[1].batched);
  EXPECT_EQ(first[1].config.precision, Precision::kMixed);
  EXPECT_TRUE(first[1].stats.converged);
  EXPECT_LE(first[1].stats.refine_steps, 12);

  // Second drain: the fp64 request reuses the fp64 session, not the mixed
  // one — still bitwise equal to the clean server.
  const SolveResult second = server.solve_one(make(base, "d2"));
  const SolveResult ref_second = reference.solve_one(make(base, "d2"));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.stats.final_norm, ref_second.stats.final_norm);
  EXPECT_EQ(second.stats.outer_iters, ref_second.stats.outer_iters);
  EXPECT_EQ(second.stats.eigen_cg_iters, ref_second.stats.eigen_cg_iters);
}

/// run_solver_team is fp64-only, so reduced-precision members of a drain
/// group bypass the team engine and solve solo — bitwise identical to a
/// lone session solving the same deck.
TEST(ServerPrecision, ReducedPrecisionMembersBypassTheTeamEngine) {
  InputDeck deck = decks::hot_block(24, 1);
  deck.solver.precision = Precision::kMixed;
  SolveServer server;
  for (int i = 0; i < 2; ++i) {
    SolveRequest req;
    req.deck = deck;
    req.nranks = 2;
    req.tag = "mixed-" + std::to_string(i);
    server.submit(std::move(req));
  }
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  SolveSession solo(deck, 2);
  const SolveStats ref = solo.solve();
  for (const SolveResult& r : results) {
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.batched);
    EXPECT_EQ(r.config.precision, Precision::kMixed);
    EXPECT_EQ(r.stats.final_norm, ref.final_norm);
    EXPECT_EQ(r.stats.outer_iters, ref.outer_iters);
    EXPECT_EQ(r.stats.refine_steps, ref.refine_steps);
  }
  EXPECT_EQ(server.stats().batched_requests, 0);
}

/// A sweep-measured mixed cell routes like any other: the routed config
/// carries the precision, the label carries the "/mixed" suffix, and an
/// (invalid) mg-pcg reduced-precision cell is filtered by validation.
TEST(ServerPrecision, RoutesMixedCellsAndFiltersDoubleOnlyBaselines) {
  SweepReport rep = synthetic_report();
  SweepOutcome cell;
  cell.config.solver = "cg";
  cell.config.mesh_n = 16;
  cell.config.dims = 2;
  cell.config.precision = "mixed";
  cell.converged = true;
  cell.iterations = 30;
  cell.solve_seconds = 0.005;  // fastest measured cell of this shape
  rep.cells.push_back(cell);
  SweepOutcome bad = cell;
  bad.config.solver = "mg-pcg";
  bad.config.precision = "single";
  bad.solve_seconds = 0.001;
  rep.cells.push_back(bad);

  RoutingTable table = RoutingTable::from_sweep(rep);
  const std::vector<RouteEntry> ranked = table.route(2, 16, 1);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked.front().label(), "cg/none/d1/n16/fused/mixed");
  EXPECT_EQ(ranked.front().config.precision, Precision::kMixed);
  for (const RouteEntry& e : ranked) {
    if (e.solver == "mg-pcg") {
      EXPECT_EQ(e.config.precision, Precision::kDouble);
    }
  }

  ServerOptions opts;
  opts.routes = std::move(table);
  SolveServer server(std::move(opts));
  SolveRequest req;
  req.deck = decks::hot_block(16, 1);
  req.nranks = 2;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.route_label, "cg/none/d1/n16/fused/mixed");
  EXPECT_EQ(res.config.type, SolverType::kCG);
  EXPECT_EQ(res.config.precision, Precision::kMixed);
  EXPECT_FALSE(res.batched);
  EXPECT_LE(res.stats.final_norm,
            res.config.eps * res.stats.initial_norm);
}

// ---- field residency ------------------------------------------------------

/// An mg-pcg request whose multigrid hierarchy does not fit fails alone
/// with a TeaError, as any other allocation a solve makes does.
TEST(ServerMgPcg, HierarchyThatDoesNotFitFailsAlone) {
#if !TEALEAF_TEST_LIMITS_MEMORY
  GTEST_SKIP() << "needs RLIMIT_DATA, and ASan aborts oversize allocations "
                  "instead of throwing";
#else
  testing::run_in_own_process([] {
    parallel_region([](Team&) {});  // start the team before the limit
    // A capped CG + jac_diag request leaves a cached session holding every
    // field mg-pcg uses; the hierarchy, several MB, does not fit in 2 MB
    // more.
    InputDeck deck = decks::hot_block(640, 1);
    deck.solver.precon = PreconType::kJacobiDiag;
    deck.solver.max_iters = 2;
    SolveRequest warm;
    warm.deck = deck;
    warm.nranks = 1;
    SolveServer server;
    ASSERT_TRUE(server.solve_one(warm).error.empty());

    SolveRequest small = hot_block_request(32, "small");
    small.nranks = 1;
    SolveRequest mg = warm;
    SolverConfig mg_cfg = deck.solver;
    mg_cfg.precon = PreconType::kMultigrid;
    mg.config = mg_cfg;
    server.submit(small);
    server.submit(mg);
    std::vector<SolveResult> results;
    {
      const testing::MemoryLimit limit(std::size_t{2} << 20);
      results = server.drain();
    }
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_NE(results[1].error.find(
                  "cannot allocate the 640x640 mesh on 1 rank: out of memory"),
              std::string::npos)
        << results[1].error;
  });
#endif
}

/// True when the interior u of `a` and `b` agree bit for bit.
bool same_u(const SimCluster& a, const SimCluster& b) {
  const Field<double> ua = gather_field(a, FieldId::kU);
  const Field<double> ub = gather_field(b, FieldId::kU);
  return ua.size() == ub.size() &&
         std::memcmp(ua.data(), ub.data(), ua.size() * sizeof(double)) == 0;
}

/// One cached session serves three routes in turn: CG without a
/// preconditioner, PPCG with stale eigenvalue hints (it breaks down and
/// is re-solved prestepped), then a block-Jacobi CG override.  The
/// session gains each field when a route first needs it, and each
/// result's u equals the same request served by a fresh server, bit for
/// bit.  The deck is mixed precision, so the three requests share one
/// shape (the shape key carries the precision): the fp32 bank grows, and
/// the fp64 bank keeps the base set plus the guard residual's r and w.
TEST(ServerResidency, CachedSessionGrowsFieldsOnlyWhenARouteNeedsThem) {
  using enum FieldId;
  InputDeck deck = decks::hot_block(24, 1);
  deck.solver.precision = Precision::kMixed;
  const auto request = [&](std::optional<SolverConfig> cfg,
                           const std::string& tag) {
    SolveRequest req;
    req.deck = deck;
    req.nranks = 2;
    req.config = cfg;
    req.tag = tag;
    return req;
  };
  SolverConfig stale = deck.solver;
  stale.type = SolverType::kPPCG;
  // An odd degree on a below-spectrum interval: ⟨r, M⁻¹r⟩ < 0 at the
  // restart (StaleHintBreakdownReroutesOnceAndCompletes).
  stale.inner_steps = 3;
  stale.eig_hint_min = 0.1;
  stale.eig_hint_max = 0.2;
  SolverConfig block = deck.solver;
  block.precon = PreconType::kJacobiBlock;

  const FieldSet fp64 = Chunk::base_fields(2) | FieldSet{kR, kW};
  const FieldSet cg{kU, kU0, kKx, kKy, kP, kR, kW};
  const FieldSet ppcg = cg | FieldSet{kZ, kSd, kRtemp};
  const struct {
    SolveRequest req;
    FieldSet fp32;
  } steps[] = {
      {request(std::nullopt, "cg"), cg},
      {request(stale, "stale-ppcg"), ppcg},
      {request(block, "cg-block"), ppcg | FieldSet{kCp, kBfp}},
  };
  const ProblemShape shape = ProblemShape::of(deck, 2, 2);
  SolveServer server;
  for (const auto& step : steps) {
    const SolveResult res = server.solve_one(step.req);
    ASSERT_TRUE(res.ok()) << step.req.tag << ": " << res.error;
    EXPECT_EQ(res.rerouted, step.req.tag == "stale-ppcg");
    const std::vector<const SolveSession*> pooled =
        server.sessions().pooled(shape);
    ASSERT_EQ(pooled.size(), 1u) << step.req.tag;
    const SimCluster& cl = pooled.front()->cluster();
    for (int r = 0; r < cl.nranks(); ++r) {
      EXPECT_EQ(testing::field_names(cl.chunk(r).allocated()),
                testing::field_names({fp64, step.fp32}))
          << step.req.tag << " rank " << r;
    }

    SolveServer fresh;
    const SolveResult ref = fresh.solve_one(step.req);
    ASSERT_TRUE(ref.ok()) << step.req.tag;
    EXPECT_TRUE(same_u(cl, fresh.sessions().pooled(shape).front()->cluster()))
        << step.req.tag;
    EXPECT_EQ(res.stats.final_norm, ref.stats.final_norm) << step.req.tag;
    EXPECT_EQ(res.stats.outer_iters, ref.stats.outer_iters) << step.req.tag;
  }
  EXPECT_EQ(server.sessions().hits(), 2);
}

/// A session the server builds holds its request's route fields, not the
/// deck solver's: a default-CG deck routed to Jacobi never holds p or w.
/// One drain batches two routes of one shape into two new sessions, and
/// each holds exactly its own route's set (the Jacobi one second, so it
/// cannot inherit the first route's set either).
TEST(ServerResidency, NewSessionHoldsItsRouteNotTheDeckSolver) {
  using enum FieldId;
  SolverConfig block = decks::hot_block(24, 1).solver;
  block.precon = PreconType::kJacobiBlock;
  SolverConfig jacobi = decks::hot_block(24, 1).solver;
  jacobi.type = SolverType::kJacobi;
  SolveRequest a = hot_block_request(24, "cg-block");
  a.config = block;
  SolveRequest b = hot_block_request(24, "jacobi");
  b.config = jacobi;
  ASSERT_EQ(a.deck.solver.type, SolverType::kCG);
  ASSERT_EQ(a.deck.solver.precon, PreconType::kNone);

  SolveServer server;
  server.submit(a);
  server.submit(b);
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const SolveResult& res : results) {
    EXPECT_TRUE(res.error.empty()) << res.tag << ": " << res.error;
    EXPECT_TRUE(res.batched) << res.tag;
  }
  const FieldSet base = Chunk::base_fields(2);
  const FieldSet want[] = {base | FieldSet{kP, kR, kW, kZ, kCp, kBfp},
                           base | FieldSet{kR}};
  const std::vector<const SolveSession*> pooled =
      server.sessions().pooled(ProblemShape::of(a.deck, 2, 2));
  ASSERT_EQ(pooled.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const SimCluster& cl = pooled[i]->cluster();
    for (int r = 0; r < cl.nranks(); ++r) {
      EXPECT_EQ(testing::field_names(cl.chunk(r).allocated()),
                testing::field_names({want[i], {}}))
          << results[i].tag << " rank " << r;
    }
  }
}

/// A mixed CSR solve whose fp32 side cannot be allocated is a TeaError,
/// not the end of the process, and through the server that request fails
/// alone while the one beside it is served.
TEST(ServerResidency, Fp32AllocationFailureFailsTheRequestAlone) {
#if !TEALEAF_TEST_LIMITS_MEMORY
  GTEST_SKIP() << "needs RLIMIT_DATA, and ASan aborts oversize allocations "
                  "instead of throwing";
#else
  testing::run_in_own_process([] {
    using enum FieldId;
    parallel_region([](Team&) {});  // start the team before the limit
    SolverConfig mixed;
    mixed.op = OperatorKind::kCsr;
    mixed.precision = Precision::kMixed;
    {
      // The fp64 side of the solve is in place; its fp32 bank, 7.4 MB,
      // does not fit in 1 MB more.
      auto cl = testing::make_test_problem(512, 1, 2);
      testing::install_operator(*cl, OperatorKind::kCsr);
      cl->allocate({.fp64 = {kR, kW}});
      std::string msg;
      {
        const testing::MemoryLimit limit(std::size_t{1} << 20);
        try {
          (void)run_solver(*cl, mixed);
        } catch (const TeaError& e) {
          msg = e.what();
        }
      }
      EXPECT_NE(msg.find("cannot allocate the 512x512 mesh on 1 rank: out of "
                         "memory"),
                std::string::npos)
          << msg;
      EXPECT_FALSE(cl->chunk(0).fp32_active());
    }

    // A capped mixed CSR Jacobi request leaves a cached session with five
    // fp32 fields.  A Chronopoulos–Gear block-Jacobi CG request on it needs
    // six more (24 bytes a cell, 10 MB): its step frees and re-assembles
    // both matrices, and the rest does not fit in 2 MB more.
    InputDeck deck = decks::hot_block(640, 1);
    deck.solver.type = SolverType::kJacobi;
    deck.solver.op = OperatorKind::kCsr;
    deck.solver.precision = Precision::kMixed;
    deck.solver.max_iters = 2;
    SolveRequest warm;
    warm.deck = deck;
    warm.nranks = 1;
    SolveServer server;
    ASSERT_TRUE(server.solve_one(warm).error.empty());

    SolveRequest small = hot_block_request(32, "small");
    small.nranks = 1;
    SolveRequest big = warm;
    big.tag = "big";
    SolverConfig chrono = deck.solver;
    chrono.type = SolverType::kCG;
    chrono.fuse_cg_reductions = true;
    chrono.precon = PreconType::kJacobiBlock;
    big.config = chrono;
    server.submit(small);
    server.submit(big);
    std::vector<SolveResult> results;
    {
      const testing::MemoryLimit limit(std::size_t{2} << 20);
      results = server.drain();
    }
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_NE(results[1].error.find(
                  "cannot allocate the 640x640 mesh on 1 rank: out of memory"),
              std::string::npos)
        << results[1].error;
    EXPECT_TRUE(results[1].cache_hit);
  });
#endif
}

}  // namespace
}  // namespace tealeaf
