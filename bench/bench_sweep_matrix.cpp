// Sweep-matrix harness: measure the solver × matrix-powers-depth design
// space on the crooked-pipe problem, rank it, then project the strongest
// configurations onto a modelled machine across node counts — the
// Xabclib-style "automatic solver selection" loop closed end to end:
// measure → rank → model → recommend.
//
// Run:  ./bench/bench_sweep_matrix [--mesh 48] [--ranks 4]
//           [--machine titan|pizdaint|spruce] [--nodes 512] [--top 3]
//           [--csv sweep_matrix.csv]

#include <cstdio>

#include "bench_common.hpp"
#include "driver/sweep.hpp"
#include "io/csv.hpp"
#include "util/args.hpp"

namespace {

int run(const tealeaf::Args& args);

}  // namespace

int main(int argc, char** argv) {
  const tealeaf::Args args(argc, argv);
  try {
    return run(args);
  } catch (const tealeaf::TeaError& e) {
    std::fprintf(stderr, "sweep error: %s\n", e.what());
    return 1;
  }
}

namespace {

int run(const tealeaf::Args& args) {
  using namespace tealeaf;
  const int mesh = args.get_int("mesh", 48);
  const int ranks = args.get_int("ranks", 4);
  const int max_nodes = args.get_int("nodes", 512);
  const int top = args.get_int("top", 3);

  const std::string machine_name = args.get("machine", "titan");
  const MachineSpec machine =
      machine_name == "pizdaint" ? machines::piz_daint()
      : machine_name == "spruce" ? machines::spruce_hybrid()
                                 : machines::titan();

  // --- phase 1: measure the design-space matrix ---------------------------
  InputDeck base = decks::crooked_pipe(mesh, /*steps=*/1);
  base.solver.eps = 1e-8;
  base.solver.max_iters = 200000;

  SweepSpec spec;
  spec.solvers = {"cg", "ppcg", "chebyshev"};
  spec.precons = {PreconType::kNone, PreconType::kJacobiDiag};
  spec.halo_depths = {1, 4, 8, 16};
  spec.ranks = ranks;

  SweepOptions opts;
  opts.machine = machine;
  std::printf("measuring %zu-cell sweep on the %dx%d crooked pipe...\n",
              spec.num_cases(), mesh, mesh);
  const SweepReport report = run_sweep(base, spec, opts);
  report.write_csv(args.get("csv", "sweep_matrix.csv"));

  const std::vector<int> order = report.ranking();
  std::printf("\nmeasured ranking (solve wall-clock, %d simulated ranks):\n",
              ranks);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const SweepOutcome& c = report.cells[order[pos]];
    std::printf("  %2zu. %-24s %6d iters  %10.6f s\n", pos + 1,
                c.config.label().c_str(), c.iterations, c.solve_seconds);
  }

  // --- phase 2: project the strongest configurations ----------------------
  const GlobalMesh2D paper_mesh(4000, 4000, 0.0, 10.0, 0.0, 10.0);
  const ScalingModel model(machine, paper_mesh, /*timesteps=*/10);
  std::vector<ScalingSeries> series;
  const std::vector<int> nodes = bench::node_axis(max_nodes);
  const int count = std::min<int>(top, static_cast<int>(order.size()));
  for (int i = 0; i < count; ++i) {
    const SweepOutcome& c = report.cells[order[i]];
    SolverConfig cfg = base.solver;
    cfg.type = solver_type_from_string(c.config.solver);
    cfg.precon = c.config.precon;
    cfg.halo_depth = c.config.halo_depth;
    cfg.tile_rows = c.config.tile_rows;  // project the engine the cell ran
    const SolverRunSummary measured =
        bench::measure_crooked_pipe(mesh, cfg, ranks);
    const SolverRunSummary projected = project_to_mesh(measured, 4000);
    series.push_back(
        model.sweep(projected, c.config.label(), nodes));
  }

  std::printf("\nprojected run time on %s, 4000x4000, 10 steps:\n\n",
              machine.name.c_str());
  bench::print_series(series);

  std::printf("\npeak scaling and efficiency at the peak:\n");
  for (const ScalingSeries& s : series) {
    const ScalingPoint peak = bench::best_point(s);
    const std::vector<double> eff = scaling_efficiency(s);
    double eff_at_peak = 1.0;
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      if (s.points[i].nodes == peak.nodes) eff_at_peak = eff[i];
    }
    std::printf("  %-24s best at %5d nodes: %8.3f s (eff %.2f)\n",
                s.label.c_str(), peak.nodes, peak.seconds, eff_at_peak);
  }
  return 0;
}

}  // namespace
