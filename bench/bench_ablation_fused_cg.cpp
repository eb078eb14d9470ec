// Ablation: the paper's §VII future-work restructuring — fusing CG's two
// per-iteration dot products into a single allreduce (Chronopoulos-Gear)
// — measured for real on the simulated cluster and projected on the
// machine models.  Expected: identical numerics, half the reductions,
// visible wall-clock gains only in the latency-dominated strong-scaling
// tail.

#include <cstdio>

#include "bench_common.hpp"
#include "io/csv.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace tealeaf;
  using namespace tealeaf::bench;
  const Args args(argc, argv);
  const int measure_n = args.get_int("mesh", 96);
  const int project_n = args.get_int("project-mesh", 4000);

  std::printf("Ablation: fused-reduction CG (Chronopoulos-Gear, paper "
              "SVII future work)\n\n");

  SolverConfig classic = paper_engine_config();
  classic.type = SolverType::kCG;
  classic.eps = 1e-8;
  SolverConfig fused = classic;
  fused.fuse_cg_reductions = true;

  const SolverRunSummary run_c =
      project_to_mesh(measure_crooked_pipe(measure_n, classic), project_n);
  const SolverRunSummary run_f =
      project_to_mesh(measure_crooked_pipe(measure_n, fused), project_n);
  std::printf("measured iterations at %d^2: classic=%d fused=%d "
              "(same maths, reductions halved)\n\n", measure_n,
              run_c.outer_iters, run_f.outer_iters);

  const GlobalMesh2D target(project_n, project_n, 0, 10, 0, 10);
  const ScalingModel titan(machines::titan(), target, 10);
  io::CsvWriter csv(args.get("csv", "ablation_fused_cg.csv"));
  csv.header({"nodes", "classic_s", "fused_s", "speedup"});
  std::printf("%-8s %-14s %-14s %-10s   (Titan model)\n", "nodes",
              "CG classic", "CG fused", "speedup");
  for (const int nodes : node_axis(8192)) {
    const double tc = titan.run_seconds(run_c, nodes);
    const double tf = titan.run_seconds(run_f, nodes);
    std::printf("%-8d %-14.3f %-14.3f %-10.3f\n", nodes, tc, tf, tc / tf);
    csv.row(nodes, tc, tf, tc / tf);
  }
  std::printf(
      "\nreading: the speedup should approach the reduction-latency share\n"
      "of the iteration at high node counts and vanish at low counts —\n"
      "communication-avoidance only pays where communication dominates.\n");
  return 0;
}
