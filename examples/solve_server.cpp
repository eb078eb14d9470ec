// Solve-server mode: feed a stream of SolveRequests through the batched
// many-solve engine and report service metrics — throughput, latency
// quantiles, session-cache reuse, the one-shot breakdown re-route, and
// (with --learn) the online routing-refinement loop.
//
// The stream mixes two problem shapes (so same-shape requests coalesce
// into sub-team batches while the shapes keep separate session pools),
// a sprinkling of mixed-precision requests (fp32 inner solves under the
// fp64 refinement guard, served solo from precision-keyed sessions), one
// Matrix-Market-backed request (the example writes a small 5-point SPD
// system and solves it through the assembled CSR path), and, unless
// --no-poison, two poisoned requests: a mixed-precision one carrying a
// stale eigenvalue hint that deterministically breaks down and must be
// re-routed — keeping its precision — to complete, and an override that
// SolverConfig::validate refuses (PPCG + block-Jacobi at matrix-powers
// depth 4), which the server must reject alone (SolveResult::error)
// while serving the rest of its drain.
//
// Run:  ./examples/solve_server [--requests 20] [--mesh 48] [--mesh2 64]
//           [--ranks 2] [--batch 8] [--routes sweep.json] [--no-poison]
//           [--mtx server_smoke.mtx]
//           [--learn] [--db route_db.json] [--waves 1] [--adversarial]
//
// Learning mode (--learn): each converged request's measured latency is
// fed back into the routing table (EWMA + demotion — docs/routing.md);
// --waves N drains the stream in N slices so what wave k learns re-routes
// wave k+1; --db persists the accumulated RouteDatabase across runs
// (merge-on-load); --adversarial seeds the table with a deliberately
// mislabeled best route (a chebyshev entry "measured" at 0.1 µs)
// so the run demonstrates online demotion converging onto the genuinely
// fastest route.  Promotion/demotion events and a per-route attribution
// table (requests, p50, observed-vs-predicted ratio, demotions) make the
// learning legible.
//
// Exits non-zero if any served request fails to converge, or if any
// request other than the invalid override is rejected, or that one is
// not — the CI server-smoke job runs exactly this binary (twice more,
// with --no-poison, for the learning half).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "driver/decks.hpp"
#include "io/matrix_market.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace {

/// Tag of the poisoned request the server must reject.
constexpr const char* kRejectTag = "req-invalid-jac-block-d4";

/// Write a 5-point SPD system (2-D Laplacian + identity on an n × n
/// grid) as a Matrix Market file and return a single-rank request that
/// solves it through the assembled CSR path.
tealeaf::SolveRequest make_mtx_request(int n, const std::string& path) {
  using namespace tealeaf;
  io::TripletMatrix m;
  m.n = static_cast<std::int64_t>(n) * n;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const std::int64_t row = static_cast<std::int64_t>(k) * n + j;
      m.entries.push_back({row, row, 5.0});
      if (j > 0) m.entries.push_back({row, row - 1, -1.0});
      if (j < n - 1) m.entries.push_back({row, row + 1, -1.0});
      if (k > 0) m.entries.push_back({row, row - n, -1.0});
      if (k < n - 1) m.entries.push_back({row, row + n, -1.0});
    }
  }
  io::save_matrix_market(path, m);

  SolveRequest req;
  req.deck.x_cells = n;
  req.deck.y_cells = n;
  req.deck.end_step = 1;
  req.deck.matrix_file = path;
  req.deck.solver.type = SolverType::kCG;
  req.deck.solver.op = OperatorKind::kCsr;
  req.deck.states.push_back({});  // unit background: u0 = 1 per row
  req.deck.validate();
  req.nranks = 1;  // loaded operators cover the undecomposed mesh
  req.tag = "req-mtx";
  return req;
}

/// An adversarially WRONG seed table: a chebyshev entry claims
/// to be absurdly fast (0.1 µs — no solve on any machine is), while the
/// honest cg/ppcg entries carry pessimistically slow predictions.  With
/// learning on, the measured latencies expose the lie: the chebyshev
/// route's observed/predicted ratio explodes past the demotion threshold
/// and the next-ranked entry takes over.
tealeaf::RoutingTable adversarial_table(int mesh, int mesh2, int ranks) {
  using namespace tealeaf;
  SweepReport report;
  report.ranks = ranks;
  report.steps = 1;
  const auto add = [&report](const std::string& solver, PreconType precon,
                             int depth, int mesh_n, double seconds,
                             int iters) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.precon = precon;
    cell.config.halo_depth = depth;
    cell.config.mesh_n = mesh_n;
    cell.converged = true;
    cell.iterations = iters;
    cell.solve_seconds = seconds;
    report.cells.push_back(cell);
  };
  for (const int n : {mesh, mesh2}) {
    add("chebyshev", PreconType::kNone, 1, n, 1e-7, 50);  // the lie
    add("cg", PreconType::kNone, 1, n, 5.0, 60);
    add("ppcg", PreconType::kJacobiDiag, 2, n, 6.0, 40);
  }
  return RoutingTable::from_sweep(report);
}

/// Demotion state per (shape, route) cell — diffed across drain waves to
/// print promotion/demotion events.
std::map<std::string, bool> demotion_snapshot(
    const tealeaf::RouteDatabase& db) {
  std::map<std::string, bool> snap;
  for (const auto& [shape, routes] : db.cells()) {
    for (const auto& [route, obs] : routes) {
      snap[shape + "  " + route] = obs.demoted;
    }
  }
  return snap;
}

void print_events(const tealeaf::RouteDatabase& db,
                  std::map<std::string, bool>& prev) {
  const std::map<std::string, bool> now = demotion_snapshot(db);
  for (const auto& [cell, demoted] : now) {
    const auto it = prev.find(cell);
    const bool was = it != prev.end() && it->second;
    if (demoted && !was) {
      std::printf("event: DEMOTED   %s\n", cell.c_str());
    } else if (!demoted && was) {
      std::printf("event: PROMOTED  %s\n", cell.c_str());
    }
  }
  prev = now;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int run(const tealeaf::Args& args) {
  using namespace tealeaf;
  const int requests = args.get_int("requests", 20);
  const int mesh = args.get_int("mesh", 48);
  const int mesh2 = args.get_int("mesh2", 64);
  const int ranks = args.get_int("ranks", 2);
  const bool poison = !args.enabled("no-poison");
  const bool learn = args.enabled("learn");
  const int waves = std::max(1, args.get_int("waves", 1));
  const std::string db_path = args.get("db", "");

  ServerOptions opts;
  opts.max_batch = args.get_int("batch", 8);
  opts.learn_routes = learn;
  opts.route_db_path = db_path;
  const std::string routes = args.get("routes", "");
  if (!routes.empty()) {
    opts.routes = RoutingTable::from_json_file(routes);
    std::printf("routing table: %zu measured cells (swept on %d ranks)\n",
                opts.routes.size(), opts.routes.sweep_ranks());
  } else if (args.enabled("adversarial")) {
    opts.routes = adversarial_table(mesh, mesh2, ranks);
    std::printf("routing table: adversarial seed (%zu cells, best route "
                "mislabeled at 0.1 us)\n",
                opts.routes.size());
  }
  if (!db_path.empty()) {
    const RouteDatabase existing = RouteDatabase::load_if_exists(db_path);
    if (existing.empty()) {
      std::printf("route db: starting fresh at %s\n", db_path.c_str());
    } else {
      std::printf("route db: loaded %zu cells over %zu shapes from %s\n",
                  existing.size(), existing.shapes(), db_path.c_str());
    }
  }
  SolveServer server(std::move(opts));
  // Each shape's solves run on the threads its cells can use (team_width);
  // OMP_NUM_THREADS is the cap.
  const auto print_width = [](int n) {
    std::printf("shape %dx%d: team width %d of %d threads\n", n, n,
                team_width(static_cast<std::int64_t>(n) * n), num_threads());
  };
  print_width(mesh);
  if (mesh2 != mesh) print_width(mesh2);

  // Mixed-shape stream: two meshes interleaved 2:1, so drain() coalesces
  // each shape into batches while exercising the shape-keyed cache.
  std::vector<SolveRequest> stream;
  for (int i = 0; i < requests; ++i) {
    SolveRequest req;
    req.deck = decks::layered_material(i % 3 == 2 ? mesh2 : mesh, 1);
    req.nranks = ranks;
    req.tag = "req-" + std::to_string(i);
    if (i % 5 == 3) {
      // Mixed-precision rider: fp32 inner solves inside the fp64
      // iterative-refinement guard, to the same eps as the fp64 stream.
      // Precision is part of the session shape key, so these never share
      // a session with the fp64 requests beside them.
      req.deck.solver.precision = Precision::kMixed;
      req.tag += "-mixed";
    }
    if (poison && i == requests / 2) {
      // A stale eigenvalue estimate: below-spectrum interval with an odd
      // inner-step count makes the polynomial preconditioner indefinite —
      // deterministic rz-breakdown, completed only by the re-route.  The
      // request also asks for mixed precision: the breakdown surfaces
      // from the fp32 inner solve and the re-route strips the hints while
      // KEEPING the precision (the session is keyed on it).
      SolverConfig bad = req.deck.solver;
      bad.type = SolverType::kPPCG;
      bad.inner_steps = 3;
      bad.eig_hint_min = 0.1;
      bad.eig_hint_max = 0.2;
      bad.precision = Precision::kMixed;
      req.config = bad;
      req.tag += "-stale-hint-mixed";

      // Beside it, a request no route can serve: block-Jacobi couples the
      // rows a matrix-powers sweep would extend, so validation refuses the
      // pair and the server rejects this request without losing the rest
      // of the drain.
      SolveRequest invalid;
      invalid.deck = req.deck;
      invalid.nranks = ranks;
      invalid.tag = kRejectTag;
      SolverConfig block = invalid.deck.solver;
      block.type = SolverType::kPPCG;
      block.precon = PreconType::kJacobiBlock;
      block.halo_depth = 4;
      invalid.config = block;
      stream.push_back(std::move(req));
      stream.push_back(std::move(invalid));
      continue;
    }
    stream.push_back(std::move(req));
  }
  // One assembled-operator request rides along: a Matrix Market system
  // the example writes itself, routed onto the CSR path.
  stream.push_back(
      make_mtx_request(16, args.get("mtx", "server_smoke.mtx")));

  // Drain in waves: each wave's measured latencies are already folded
  // into the table when the next wave routes, so a demotion learned early
  // re-routes the rest of the stream within this run.
  std::vector<SolveResult> results;
  std::map<std::string, bool> demoted_before =
      demotion_snapshot(server.routes().database());
  const std::size_t per_wave =
      (stream.size() + static_cast<std::size_t>(waves) - 1) /
      static_cast<std::size_t>(waves);
  for (std::size_t at = 0; at < stream.size(); at += per_wave) {
    const std::size_t end = std::min(stream.size(), at + per_wave);
    for (std::size_t i = at; i < end; ++i) {
      server.submit(std::move(stream[i]));
    }
    std::vector<SolveResult> wave_results = server.drain();
    for (SolveResult& r : wave_results) results.push_back(std::move(r));
    if (learn) print_events(server.routes().database(), demoted_before);
  }

  int failed = 0;
  std::size_t rejected = 0;
  for (const SolveResult& r : results) {
    if (!r.error.empty()) {
      std::printf("%-24s REJECTED: %s\n", r.tag.c_str(), r.error.c_str());
      ++rejected;
      if (r.tag != kRejectTag) ++failed;
      continue;
    }
    const std::string refines =
        r.config.precision == Precision::kMixed
            ? " refine=" + std::to_string(r.stats.refine_steps)
            : "";
    std::printf("%-24s %-28s outer=%4d |r|=%9.2e %8.3f ms%s%s%s%s%s\n",
                r.tag.c_str(),
                r.route_label.empty() ? "(deck config)"
                                      : r.route_label.c_str(),
                r.stats.outer_iters, r.stats.final_norm,
                r.latency_seconds * 1e3, refines.c_str(),
                r.batched ? " [batched]" : "",
                r.cache_hit ? " [cache]" : "",
                r.rerouted ? " [re-routed]" : "",
                r.ok() ? "" : "  FAILED");
    if (!r.ok()) ++failed;
  }

  // Per-route attribution: which configurations actually served the
  // stream, at what latency, and how observation compared to prediction.
  struct RouteAgg {
    std::vector<double> latencies;
    double predicted = 0.0;
    long long observations = 0;
    bool demoted = false;
  };
  std::map<std::string, RouteAgg> by_route;
  for (const SolveResult& r : results) {
    if (!r.error.empty()) continue;
    RouteAgg& a = by_route[r.route_label.empty() ? "(deck config)"
                                                 : r.route_label];
    a.latencies.push_back(r.latency_seconds);
    if (r.predicted_route_seconds > 0.0) {
      a.predicted = r.predicted_route_seconds;
    }
    a.observations = std::max(a.observations, r.route_observations);
    a.demoted = a.demoted || r.route_demoted;
  }
  std::printf("\nper-route attribution:\n");
  std::printf("%-34s %8s %10s %10s %6s %8s\n", "route", "requests",
              "p50 ms", "obs/pred", "obs", "demoted");
  for (const auto& [label, a] : by_route) {
    const double p50 = median(a.latencies);
    char ratio[32];
    if (a.predicted > 0.0) {
      std::snprintf(ratio, sizeof ratio, "%.2g", p50 / a.predicted);
    } else {
      std::snprintf(ratio, sizeof ratio, "-");
    }
    std::printf("%-34s %8zu %10.3f %10s %6lld %8s\n", label.c_str(),
                a.latencies.size(), p50 * 1e3, ratio, a.observations,
                a.demoted ? "yes" : "no");
  }

  const ServerStats& st = server.stats();
  std::printf(
      "\nserver: %lld requests in %lld batches (%lld coalesced), "
      "%.1f requests/s\n",
      st.requests, st.batches, st.batched_requests, st.throughput());
  std::printf("latency: p50 %.3f ms, p99 %.3f ms\n", st.p50() * 1e3,
              st.p99() * 1e3);
  std::printf("sessions: %zu live across %zu shapes, %lld hits / %lld "
              "misses\n",
              server.sessions().size(), server.sessions().shapes(),
              st.cache_hits, st.cache_misses);
  std::printf("re-routes: %lld, failures: %lld\n", st.reroutes, st.failures);
  if (learn || !db_path.empty()) {
    const RouteDatabase& db = server.routes().database();
    std::printf("learning: %lld observations fed back, %lld demotions, "
                "%lld promotions\n",
                st.route_observations, st.demotions, st.promotions);
    std::printf("learned routes: %lld (>= %d observations), "
                "%lld demoted cells\n",
                db.learned(server.options().learn.min_observations),
                server.options().learn.min_observations, db.demotions());
  }
  if (learn && !db_path.empty()) {
    server.save_route_db();
    std::printf("route db: saved %s\n", db_path.c_str());
  }

  if (failed > 0) {
    std::printf("SMOKE FAIL: %d request(s) failed\n", failed);
    return 1;
  }
  if (rejected != (poison ? 1u : 0u)) {
    std::printf("SMOKE FAIL: the invalid override was served\n");
    return 1;
  }
  std::printf("SMOKE OK: all %zu requests converged\n",
              results.size() - rejected);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using tealeaf::Flag;
  return tealeaf::run_main(
      argc, argv,
      {{"requests", Flag::kInt}, {"mesh", Flag::kInt}, {"mesh2", Flag::kInt},
       {"ranks", Flag::kInt}, {"batch", Flag::kInt}, {"routes"},
       {"no-poison", Flag::kBool}, {"mtx"}, {"learn", Flag::kBool}, {"db"},
       {"waves", Flag::kInt}, {"adversarial", Flag::kBool}},
      run);
}
