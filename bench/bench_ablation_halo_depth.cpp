// Ablation: matrix-powers halo depth sweep (paper §VI):
//  * on GPUs the benefit keeps growing through depth 16;
//  * on CPUs it plateaus around depth 8, where redundant overlap
//    computation starts to outweigh the communication saved.
// Uses the measured PPCG structure and the machine models at a fixed
// high node count where communication dominates.

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
  const int gpu_nodes = args.get_int("gpu-nodes", 2048);
  const int cpu_nodes = args.get_int("cpu-nodes", 512);

  std::printf("Ablation: matrix-powers halo depth (PPCG inner steps=20)\n");
  std::printf("GPU model: Titan @ %d nodes; CPU model: Spruce hybrid @ %d "
              "nodes; %d^2 mesh\n\n", gpu_nodes, cpu_nodes, project_n);

  const GlobalMesh2D target(project_n, project_n, 0, 10, 0, 10);
  const ScalingModel titan(machines::titan(), target, 10);
  const ScalingModel spruce(machines::spruce_hybrid(), target, 10);

  // One measurement suffices: depth does not change the mathematics, so
  // reuse the depth-1 iteration structure across depths (validated by
  // tests/test_matrix_powers.cpp).  20 inner steps so that even depth-16
  // halos are actually consumed by the inner loop (⌊m/d⌋ ≥ 1).
  SolverConfig cfg = paper_engine_config();
  cfg.type = SolverType::kPPCG;
  cfg.eps = 1e-8;
  cfg.inner_steps = 20;
  cfg.halo_depth = 1;
  SolverRunSummary run =
      project_to_mesh(measure_crooked_pipe(measure_n, cfg), project_n);

  io::CsvWriter csv(args.get("csv", "ablation_halo_depth.csv"));
  csv.header({"depth", "gpu_seconds", "cpu_seconds"});
  std::printf("%-8s %-14s %-14s\n", "depth", "Titan (GPU)", "Spruce (CPU)");
  double best_gpu = 1e30, best_cpu = 1e30;
  int best_gpu_d = 0, best_cpu_d = 0;
  for (const int depth : {1, 2, 4, 8, 12, 16, 24, 32}) {
    run.halo_depth = depth;
    const double tg = titan.run_seconds(run, gpu_nodes);
    const double tc = spruce.run_seconds(run, cpu_nodes);
    std::printf("%-8d %-14.3f %-14.3f\n", depth, tg, tc);
    csv.row(depth, tg, tc);
    if (tg < best_gpu) {
      best_gpu = tg;
      best_gpu_d = depth;
    }
    if (tc < best_cpu) {
      best_cpu = tc;
      best_cpu_d = depth;
    }
  }
  std::printf("\nbest GPU depth: %d (paper: still improving at 16)\n",
              best_gpu_d);
  std::printf("best CPU depth: %d (paper: plateaus around 8)\n",
              best_cpu_d);
  return 0;
}
