// Fig. 7: flat-MPI and hybrid strong scaling on Spruce, 1–1024 nodes,
// including the PETSc CG + BoomerAMG baseline (modelled here by our
// multigrid-preconditioned CG — DESIGN.md §2.3).  Expected shape:
//  * BoomerAMG fastest at low node counts, peaking around 32 nodes;
//  * CPPCG keeps scaling to ~512 nodes and is ~2x faster there;
//  * hybrid and flat-MPI TeaLeaf land nearly on top of each other.

#include <cmath>
#include <cstdio>

#include "api/solve_api.hpp"
#include "bench_common.hpp"
#include "io/csv.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace tealeaf;
  using namespace tealeaf::bench;
  const Args args(argc, argv);
  const int measure_n = args.get_int("mesh", 96);
  const int project_n = args.get_int("project-mesh", 4000);
  const int steps = args.get_int("steps", 10);

  std::printf("Fig. 7 reproduction: MPI & hybrid strong scaling on "
              "Spruce (+BoomerAMG-substitute)\n");
  std::printf("(structure measured at %d^2, projected to %d^2, %d "
              "timesteps)\n\n", measure_n, project_n, steps);

  // Measure CG-1 and PPCG-1 structure (paper gathered only depth 1 on
  // Spruce due to machine-time constraints).
  SolverConfig cg = paper_engine_config();
  cg.type = SolverType::kCG;
  cg.eps = 1e-8;
  SolverConfig ppcg = paper_engine_config();
  ppcg.type = SolverType::kPPCG;
  ppcg.eps = 1e-8;
  ppcg.inner_steps = 10;
  ppcg.halo_depth = 1;
  const SolverRunSummary cg_run =
      project_to_mesh(measure_crooked_pipe(measure_n, cg), project_n);
  const SolverRunSummary ppcg_run =
      project_to_mesh(measure_crooked_pipe(measure_n, ppcg), project_n);

  // Measure the MG-PCG (BoomerAMG substitute) iteration count on the
  // real problem.  MG convergence is near mesh-independent, but on this
  // 1000:1-contrast material the interpolation quality degrades slowly
  // with resolution; project with a weak logarithmic growth.
  const int measured_amg_iters = [&] {
    SolverConfig mg = with_solver_name(SolverConfig{}, "mg-pcg");
    mg.eps = 1e-10;
    mg.max_iters = 1000;
    SolveSession session(decks::crooked_pipe(measure_n, 1), /*nranks=*/1);
    const SolveStats res = session.solve(mg);
    std::printf("measured MG-PCG iterations: %d (%s)\n", res.outer_iters,
                res.converged ? "converged" : "NOT converged");
    return res.outer_iters;
  }();
  const int amg_iters = static_cast<int>(std::lround(
      measured_amg_iters *
      (1.0 + 0.15 * std::log2(static_cast<double>(project_n) / measure_n))));
  std::printf("projected MG-PCG iterations at %d^2: %d\n\n", project_n,
              amg_iters);

  const GlobalMesh2D target(project_n, project_n, 0, 10, 0, 10);
  const ScalingModel hybrid(machines::spruce_hybrid(), target, steps);
  const ScalingModel mpi(machines::spruce_mpi(), target, steps);
  const auto nodes = node_axis(1024);

  std::vector<ScalingSeries> series;
  series.push_back(hybrid.amg_sweep(amg_iters, "BoomerAMG (Hybrid)", nodes));
  series.push_back(hybrid.sweep(cg_run, "CG - 1 (Hybrid)", nodes));
  series.push_back(hybrid.sweep(ppcg_run, "PPCG - 1 (Hybrid)", nodes));
  series.push_back(mpi.amg_sweep(amg_iters, "BoomerAMG (MPI)", nodes));
  series.push_back(mpi.sweep(cg_run, "CG - 1 (MPI)", nodes));
  series.push_back(mpi.sweep(ppcg_run, "PPCG - 1 (MPI)", nodes));
  print_series(series);

  io::CsvWriter csv(args.get("csv", "fig7_spruce_scaling.csv"));
  csv.header({"nodes", "label", "seconds"});
  for (const auto& s : series)
    for (const auto& p : s.points) csv.row(p.nodes, s.label, p.seconds);

  const ScalingPoint amg_best = best_point(series[3]);  // BoomerAMG (MPI)
  const ScalingPoint ppcg_best = best_point(series[5]); // PPCG - 1 (MPI)
  std::printf("\nBoomerAMG(MPI) peaks at %d nodes (paper: 32)\n",
              amg_best.nodes);
  std::printf("PPCG-1(MPI) peaks at %d nodes (paper: 512)\n",
              ppcg_best.nodes);
  // Paper: "at 512 nodes the CPPCG implementation delivers twice the
  // performance of the best PETSc+BoomerAMG configuration at that scale".
  const double amg512 =
      std::min(series[0].points[9].seconds, series[3].points[9].seconds);
  const double ppcg512 =
      std::min(series[2].points[9].seconds, series[5].points[9].seconds);
  std::printf("at 512 nodes: best PPCG %.2f s vs best BoomerAMG %.2f s -> "
              "%.1fx (paper: ~2x)\n", ppcg512, amg512, amg512 / ppcg512);
  return 0;
}
