// Online routing refinement: measured-latency feedback, demotion,
// persistence.  Latencies are injected deterministically (either straight
// into RoutingTable::observe or through ServerOptions::learn_latency_hook)
// so every assertion is exact — no test here depends on wall-clock noise.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/decks.hpp"
#include "server/route_db.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Two-entry table on one measured shape: a "fast" chebyshev entry whose
/// prediction will turn out to be a lie, and an honest (pessimistically
/// predicted) CG entry ranked second.
SweepReport two_route_report(int mesh_n, double cheby_seconds,
                             double cg_seconds) {
  SweepReport rep;
  rep.ranks = 2;
  rep.steps = 1;
  const auto add = [&](const std::string& solver, PreconType pre,
                       double seconds, const std::string& precision) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.precon = pre;
    cell.config.halo_depth = 1;
    cell.config.mesh_n = mesh_n;
    cell.config.dims = 2;
    cell.config.precision = precision;
    cell.converged = true;
    cell.iterations = 50;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  };
  add("chebyshev", PreconType::kNone, cheby_seconds, "double");
  add("cg", PreconType::kNone, cg_seconds, "double");
  return rep;
}

// ---------------------------------------------------------------------------
// RouteDatabase: statistics, merge, persistence
// ---------------------------------------------------------------------------

TEST(RouteDatabase, EwmaRecordSemantics) {
  RouteDatabase db;
  const RouteObservation& a =
      db.record("2d/n16/r2", "cg/none/d1/fused", 1.0, 0.5, 0.5);
  EXPECT_EQ(a.ewma_seconds, 1.0);  // first sample initialises exactly
  EXPECT_EQ(a.observations, 1);
  EXPECT_EQ(a.predicted_seconds, 0.5);

  const RouteObservation& b =
      db.record("2d/n16/r2", "cg/none/d1/fused", 3.0, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(b.ewma_seconds, 0.5 * 3.0 + 0.5 * 1.0);
  EXPECT_EQ(b.observations, 2);
  EXPECT_FALSE(b.demoted);

  const RouteObservation& c =
      db.record_breakdown("2d/n16/r2", "cg/none/d1/fused");
  EXPECT_EQ(c.observations, 3);
  EXPECT_EQ(c.breakdowns, 1);
  EXPECT_TRUE(c.demoted);  // a breakdown demotes immediately

  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.learned(3), 1);
  EXPECT_EQ(db.learned(4), 0);
  EXPECT_EQ(db.demotions(), 1);
  EXPECT_EQ(db.find("2d/n16/r2", "nope"), nullptr);
  EXPECT_EQ(db.find("3d/n16/r2", "cg/none/d1/fused"), nullptr);
}

TEST(RouteDatabase, SaveLoadSaveIsBitwiseStable) {
  RouteDatabase db;
  // Awkward doubles on purpose: the %.17g round-trip must hold exactly.
  db.record("2d/n48/r2", "chebyshev/none/d1", 0.1 + 0.2, 1e-7, 0.3);
  db.record("2d/n48/r2", "chebyshev/none/d1", 1.0 / 3.0, 1e-7, 0.3);
  db.record("2d/n48/r2", "cg/none/d1/fused", 5e-3, 5.0, 0.3);
  db.record("2d/n64/r2", "ppcg/jac_diag/d4/fused/mixed", 7e-3, 6.0, 0.3);
  db.record_breakdown("2d/n64/r2", "ppcg/jac_diag/d4/fused/mixed");

  const std::string p1 = tmp_path("route_db_a.json");
  const std::string p2 = tmp_path("route_db_b.json");
  db.save(p1);
  const RouteDatabase loaded = RouteDatabase::load(p1);
  loaded.save(p2);
  const std::string text1 = slurp(p1);
  EXPECT_FALSE(text1.empty());
  EXPECT_EQ(text1, slurp(p2));  // bitwise-stable save → load → save

  // Self-merge after a round-trip doubles the counts but keeps the EWMAs
  // (equal-weight average of equal values) — and the JSON stays stable.
  RouteDatabase merged = loaded;
  merged.merge(loaded);
  const RouteObservation* obs =
      merged.find("2d/n48/r2", "chebyshev/none/d1");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->observations, 4);
  EXPECT_EQ(obs->ewma_seconds,
            loaded.find("2d/n48/r2", "chebyshev/none/d1")->ewma_seconds);
}

TEST(RouteDatabase, LoadRejectsUnknownVersionAndMissingFile) {
  const std::string path = tmp_path("route_db_future.json");
  std::ofstream(path) << "{\"version\": 99, \"shapes\": {}}\n";
  EXPECT_THROW((void)RouteDatabase::load(path), TeaError);
  EXPECT_THROW((void)RouteDatabase::load(tmp_path("does_not_exist.json")),
               TeaError);
  EXPECT_TRUE(
      RouteDatabase::load_if_exists(tmp_path("also_missing.json")).empty());

  // JSON numbers are doubles: the version and the counts must be whole
  // and in range, never truncated (2.5) or cast out of range (1e300).
  const auto db_with = [&](const std::string& version,
                           const std::string& observations) {
    std::ofstream(path)
        << "{\"version\": " << version << ", \"shapes\": {\"2d/n16/r1\": "
        << "{\"cg/none/d1/fused\": {\"ewma_seconds\": 0.1, "
        << "\"predicted_seconds\": 0.1, \"observations\": " << observations
        << ", \"breakdowns\": 0, \"demoted\": false}}}}\n";
    return RouteDatabase::load(path);
  };
  EXPECT_EQ(db_with("1", "3").find("2d/n16/r1", "cg/none/d1/fused")
                ->observations,
            3);
  EXPECT_THROW((void)db_with("1e30", "3"), TeaError);
  EXPECT_THROW((void)db_with("1.5", "3"), TeaError);
  for (const char* bad : {"1e300", "2.5", "-1e30", "9.3e18"}) {
    EXPECT_THROW((void)db_with("1", bad), TeaError) << bad;
  }
}

TEST(RouteDatabase, MergeNeverResurrectsFromStaleFewerObservations) {
  // Live database: the route was demoted on the strength of 5 samples.
  RouteDatabase live;
  for (int i = 0; i < 5; ++i) {
    live.record("2d/n48/r2", "chebyshev/none/d1", 0.5, 1e-7, 0.3);
  }
  live.demote("2d/n48/r2", "chebyshev/none/d1");

  // Stale database: an old snapshot with fewer observations and no
  // demotion must NOT clear the flag.
  RouteDatabase stale;
  stale.record("2d/n48/r2", "chebyshev/none/d1", 1e-7, 1e-7, 0.3);
  RouteDatabase a = live;
  a.merge(stale);
  EXPECT_TRUE(a.find("2d/n48/r2", "chebyshev/none/d1")->demoted);
  EXPECT_EQ(a.find("2d/n48/r2", "chebyshev/none/d1")->observations, 6);

  // Merging the other way round (stale absorbs live) must agree: the
  // side with MORE observations decides.
  RouteDatabase b = stale;
  b.merge(live);
  EXPECT_TRUE(b.find("2d/n48/r2", "chebyshev/none/d1")->demoted);

  // A tie keeps the demotion in force.
  RouteDatabase tie1, tie2;
  tie1.record("2d/n48/r2", "cg/none/d1/fused", 1.0, 1.0, 0.3);
  tie1.demote("2d/n48/r2", "cg/none/d1/fused");
  tie2.record("2d/n48/r2", "cg/none/d1/fused", 1.0, 1.0, 0.3);
  tie2.merge(tie1);
  EXPECT_TRUE(tie2.find("2d/n48/r2", "cg/none/d1/fused")->demoted);
}

TEST(RouteDatabase, MergeWeightsEwmasByObservationCount) {
  RouteDatabase a, b;
  a.record("2d/n16/r1", "cg/none/d1", 1.0, 1.0, 1.0);  // 1 obs, ewma 1.0
  b.record("2d/n16/r1", "cg/none/d1", 4.0, 1.0, 1.0);
  b.record("2d/n16/r1", "cg/none/d1", 4.0, 1.0, 1.0);
  b.record("2d/n16/r1", "cg/none/d1", 4.0, 1.0, 1.0);  // 3 obs, ewma 4.0
  a.merge(b);
  const RouteObservation* obs = a.find("2d/n16/r1", "cg/none/d1");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->observations, 4);
  EXPECT_DOUBLE_EQ(obs->ewma_seconds, (1.0 * 1.0 + 4.0 * 3.0) / 4.0);
}

// ---------------------------------------------------------------------------
// RoutingTable: observation, demotion, promotion, precision isolation
// ---------------------------------------------------------------------------

TEST(RouteRefinement, MispredictedRouteDemotedAfterNObservations) {
  RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-7, 5.0));
  RouteLearnOptions learn;
  learn.min_observations = 3;
  learn.demote_ratio = 2.0;
  table.set_learning(learn);

  // Before any evidence, the lie ranks first.
  std::vector<RouteEntry> ranked = table.route(2, 16, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].solver, "chebyshev");
  EXPECT_EQ(ranked[0].route_key(), "chebyshev/none/d1/fused");
  EXPECT_EQ(ranked[0].predicted_seconds, 1e-7);

  // Two observations at 5 ms: not yet enough to demote.
  for (int i = 0; i < 2; ++i) {
    const ObserveOutcome o =
        table.observe(2, 16, 2, "chebyshev/none/d1/fused", 5e-3, 1e-7);
    EXPECT_FALSE(o.demoted);
    EXPECT_EQ(o.observations, i + 1);
  }
  EXPECT_EQ(table.route(2, 16, 2)[0].solver, "chebyshev");

  // The third trips the ratio (5e-3 / 1e-7 >> 2): demoted, and the
  // next-ranked honest route takes over.
  const ObserveOutcome o =
      table.observe(2, 16, 2, "chebyshev/none/d1/fused", 5e-3, 1e-7);
  EXPECT_TRUE(o.demoted);
  EXPECT_TRUE(o.newly_demoted);
  ranked = table.route(2, 16, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].solver, "cg");
  EXPECT_TRUE(ranked[1].demoted);
  EXPECT_TRUE(ranked[1].learned);
  EXPECT_EQ(ranked[1].observations, 3);

  // The demotion is shape-local: another rank count is a different shape
  // with no evidence yet.
  EXPECT_EQ(table.route(2, 16, 1)[0].solver, "chebyshev");
}

TEST(RouteRefinement, FreshEvidenceInsideRatioPromotesAgain) {
  RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-2, 5.0));
  RouteLearnOptions learn;
  learn.min_observations = 2;
  learn.demote_ratio = 2.0;
  learn.ewma_alpha = 1.0;  // newest sample IS the EWMA: exact control
  table.set_learning(learn);

  table.observe(2, 16, 2, "chebyshev/none/d1/fused", 0.05, 1e-2);
  const ObserveOutcome demoted =
      table.observe(2, 16, 2, "chebyshev/none/d1/fused", 0.05, 1e-2);
  EXPECT_TRUE(demoted.newly_demoted);
  EXPECT_EQ(table.route(2, 16, 2)[0].solver, "cg");

  // Latency back inside the ratio (say the machine was warming up):
  // the route is promoted again — latency demotions are not tattoos.
  const ObserveOutcome promoted =
      table.observe(2, 16, 2, "chebyshev/none/d1/fused", 1.5e-2, 1e-2);
  EXPECT_TRUE(promoted.newly_promoted);
  EXPECT_FALSE(promoted.demoted);
  EXPECT_EQ(table.route(2, 16, 2)[0].solver, "chebyshev");
}

TEST(RouteRefinement, BreakdownDemotesImmediatelyAndPermanently) {
  RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-2, 5.0));
  const ObserveOutcome o =
      table.observe_breakdown(2, 16, 2, "chebyshev/none/d1/fused");
  EXPECT_TRUE(o.demoted);
  EXPECT_TRUE(o.newly_demoted);
  EXPECT_EQ(table.route(2, 16, 2)[0].solver, "cg");

  // Good latencies cannot clear a breakdown demotion: the solve FAILED
  // on this operator — only a rebuilt database forgives that.
  for (int i = 0; i < 5; ++i) {
    const ObserveOutcome again =
        table.observe(2, 16, 2, "chebyshev/none/d1/fused", 1e-2, 1e-2);
    EXPECT_TRUE(again.demoted);
    EXPECT_FALSE(again.newly_promoted);
  }
  EXPECT_EQ(table.route(2, 16, 2)[0].solver, "cg");
}

TEST(RouteRefinement, PrecisionKeysNeverLeak) {
  // Same structural route at two precisions: the mixed cell's key carries
  // the "/mixed" suffix, so evidence against one can never demote the
  // other.
  SweepReport rep = two_route_report(16, 1e-7, 5.0);
  SweepOutcome mixed = rep.cells[0];
  mixed.config.precision = "mixed";
  rep.cells.push_back(mixed);
  RoutingTable table = RoutingTable::from_sweep(rep);
  RouteLearnOptions learn;
  learn.min_observations = 1;
  table.set_learning(learn);

  const std::vector<RouteEntry> before = table.route(2, 16, 2);
  ASSERT_EQ(before.size(), 3u);
  EXPECT_EQ(before[0].route_key(), "chebyshev/none/d1/fused");
  EXPECT_EQ(before[1].route_key(), "chebyshev/none/d1/fused/mixed");

  // Demote ONLY the mixed cell.
  const ObserveOutcome o =
      table.observe(2, 16, 2, "chebyshev/none/d1/fused/mixed", 5e-3, 1e-7);
  EXPECT_TRUE(o.newly_demoted);

  const std::vector<RouteEntry> after = table.route(2, 16, 2);
  EXPECT_EQ(after[0].route_key(), "chebyshev/none/d1/fused");  // fp64 untouched
  EXPECT_FALSE(after[0].demoted);
  EXPECT_EQ(after[0].observations, 0);
  EXPECT_TRUE(after.back().demoted);
  EXPECT_EQ(after.back().route_key(), "chebyshev/none/d1/fused/mixed");

  // And the database keys are distinct cells.
  EXPECT_NE(table.database().find(RoutingTable::shape_key(2, 16, 2),
                                  "chebyshev/none/d1/fused/mixed"),
            nullptr);
  EXPECT_EQ(table.database().find(RoutingTable::shape_key(2, 16, 2),
                                  "chebyshev/none/d1/fused"),
            nullptr);
}

TEST(RouteRefinement, SeedDatabasePrimesEveryMeasuredCell) {
  const RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-2, 5.0));
  const RouteDatabase seed = table.seed_database();
  EXPECT_EQ(seed.size(), 2u);
  const RouteObservation* obs = seed.find("2d/n16/r2", "cg/none/d1/fused");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->observations, 1);
  EXPECT_EQ(obs->ewma_seconds, 5.0);
  EXPECT_EQ(obs->predicted_seconds, 5.0);
}

TEST(RouteRefinement, LearnOptionsAreValidated) {
  RoutingTable table;
  RouteLearnOptions bad;
  bad.demote_ratio = 0.9;
  EXPECT_THROW(table.set_learning(bad), TeaError);
  bad = {};
  bad.min_observations = 0;
  EXPECT_THROW(table.set_learning(bad), TeaError);
  bad = {};
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(table.set_learning(bad), TeaError);
}

// ---------------------------------------------------------------------------
// SolveServer: the closed loop, end to end
// ---------------------------------------------------------------------------

/// The acceptance scenario: an adversarially wrong seed table (the
/// chebyshev entry claims 0.1 µs) plus a deterministic latency hook.  The
/// server must demote the lie within the run, converge onto the honest
/// route, persist the database, and a FRESH server loading it must route
/// correctly on request one.
TEST(RouteRefinement, ServerConvergesOntoFastestRouteAndPersists) {
  const std::string db_path = tmp_path("server_route_db.json");
  std::filesystem::remove(db_path);  // hermetic across reruns
  const auto make_options = [&] {
    ServerOptions opts;
    opts.routes = RoutingTable::from_sweep(two_route_report(16, 1e-7, 5.0));
    opts.learn_routes = true;
    opts.learn.min_observations = 3;
    opts.route_db_path = db_path;
    // Deterministic injected latency: every solve "measures" 5 ms, so the
    // chebyshev cell's observed/predicted ratio is 5e-3 / 1e-7 = 5e4.
    opts.learn_latency_hook = [](const std::string&, double) {
      return 5e-3;
    };
    return opts;
  };

  SolveServer server(make_options());
  std::vector<std::string> labels;
  for (int i = 0; i < 5; ++i) {
    SolveRequest req;
    req.deck = decks::layered_material(16, 1);
    req.deck.solver.eps = 1e-8;
    req.nranks = 2;
    const SolveResult res = server.solve_one(std::move(req));
    ASSERT_TRUE(res.ok());
    labels.push_back(res.route_label);
  }
  // Three observations demote the lie; requests 4 and 5 run the honest
  // fused-CG route.
  EXPECT_EQ(labels[0], "chebyshev/none/d1/n16/fused");
  EXPECT_EQ(labels[2], "chebyshev/none/d1/n16/fused");
  EXPECT_EQ(labels[3], "cg/none/d1/n16/fused");
  EXPECT_EQ(labels[4], "cg/none/d1/n16/fused");
  EXPECT_EQ(server.stats().route_observations, 5);
  EXPECT_EQ(server.stats().demotions, 1);
  server.save_route_db();

  // Fresh server, same wrong table, database loaded at construction:
  // request ONE already routes onto the honest entry.
  SolveServer fresh(make_options());
  SolveRequest req;
  req.deck = decks::layered_material(16, 1);
  req.deck.solver.eps = 1e-8;
  req.nranks = 2;
  const SolveResult res = fresh.solve_one(std::move(req));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.route_label, "cg/none/d1/n16/fused");
  EXPECT_TRUE(res.route_learned);
  EXPECT_GE(res.route_observations, 1);
}

/// A breakdown re-route that switches entries demotes the broken route
/// at once; one that only strips stale hints stays on its route and is
/// not charged.  Either way the final attempt is observed once.
TEST(RouteRefinement, OnlyASwitchedRerouteDemotesTheBrokenRoute) {
  const auto ppcg_then_cg = [](int mesh_n) {
    SweepReport rep = two_route_report(mesh_n, 0.001, 0.002);
    rep.cells[0].config.solver = "ppcg";
    ServerOptions opts;
    opts.routes = RoutingTable::from_sweep(rep);
    opts.learn_routes = true;
    return opts;
  };

  // A PPCG whose polynomial preconditioner turns indefinite: the routed
  // entry breaks down and the CG entry takes over.
  SolveServer switched(ppcg_then_cg(32));
  SolveRequest req;
  req.deck = decks::crooked_pipe(32, 1);
  req.deck.initial_timestep *= 1000.0;
  req.deck.solver.type = SolverType::kPPCG;
  req.deck.solver.eigen_cg_iters = 2;
  req.deck.solver.inner_steps = 11;
  req.deck.solver.eps = 1e-10;
  req.deck.solver.max_iters = 2000;
  req.nranks = 2;
  const SolveResult res = switched.solve_one(req);
  EXPECT_TRUE(res.rerouted);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_EQ(res.route_label, "cg/none/d1/n32/fused");
  EXPECT_FALSE(res.stats.breakdown);
  EXPECT_EQ(switched.stats().demotions, 1);
  EXPECT_EQ(switched.stats().route_observations, 2);
  const RouteDatabase& db = switched.routes().database();
  const RouteObservation* ppcg = db.find("2d/n32/r2", "ppcg/none/d1/fused");
  ASSERT_NE(ppcg, nullptr);
  EXPECT_TRUE(ppcg->demoted);
  EXPECT_EQ(ppcg->breakdowns, 1);
  const RouteObservation* cg = db.find("2d/n32/r2", "cg/none/d1/fused");
  ASSERT_NE(cg, nullptr);
  EXPECT_EQ(cg->observations, 1);
  EXPECT_EQ(res.route_observations, 1);

  // Stale hints on the routed PPCG: the retry strips them and stays put.
  SolveServer stripped(ppcg_then_cg(24));
  req.deck = decks::hot_block(24, 1);
  req.deck.solver.type = SolverType::kPPCG;
  req.deck.solver.inner_steps = 3;
  req.deck.solver.eig_hint_min = 0.1;
  req.deck.solver.eig_hint_max = 0.2;
  const SolveResult hinted = stripped.solve_one(req);
  EXPECT_TRUE(hinted.ok());
  EXPECT_TRUE(hinted.rerouted);
  EXPECT_EQ(hinted.route_label, "ppcg/none/d1/n24/fused");
  EXPECT_EQ(stripped.stats().demotions, 0);
  EXPECT_EQ(stripped.stats().route_observations, 1);
  const RouteObservation* same =
      stripped.routes().database().find("2d/n24/r2", "ppcg/none/d1/fused");
  ASSERT_NE(same, nullptr);
  EXPECT_EQ(same->breakdowns, 0);
  EXPECT_FALSE(same->demoted);
}

TEST(RouteRefinement, SaveRouteDbRequiresConfiguredPath) {
  SolveServer server{ServerOptions{}};
  EXPECT_THROW(server.save_route_db(), TeaError);
}

}  // namespace
}  // namespace tealeaf
