// Fig. 8: strong-scaling efficiency of the best implementation on each
// system — Spruce PPCG-1 (flat MPI), Piz Daint PPCG-16 (CUDA), Titan
// PPCG-16 (CUDA).  Expected shape: Spruce holds super-linear efficiency
// (cache effects) up to ~512 nodes; Piz Daint stays above Titan at high
// node counts (Aries vs Gemini).

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
  const int steps = args.get_int("steps", 10);

  std::printf("Fig. 8 reproduction: scaling efficiency of the best "
              "config per system\n");
  std::printf("(structure measured at %d^2, projected to %d^2)\n\n",
              measure_n, project_n);

  SolverConfig ppcg1 = paper_engine_config();
  ppcg1.type = SolverType::kPPCG;
  ppcg1.eps = 1e-8;
  ppcg1.inner_steps = 10;
  ppcg1.halo_depth = 1;
  SolverConfig ppcg16 = ppcg1;
  ppcg16.halo_depth = 16;

  const SolverRunSummary run1 =
      project_to_mesh(measure_crooked_pipe(measure_n, ppcg1), project_n);
  const SolverRunSummary run16 =
      project_to_mesh(measure_crooked_pipe(measure_n, ppcg16), project_n);

  const GlobalMesh2D target(project_n, project_n, 0, 10, 0, 10);
  const ScalingModel spruce(machines::spruce_mpi(), target, steps);
  const ScalingModel daint(machines::piz_daint(), target, steps);
  const ScalingModel titan(machines::titan(), target, steps);

  const ScalingSeries s_spruce =
      spruce.sweep(run1, "Spruce - PPCG - 1 (MPI)", node_axis(1024));
  const ScalingSeries s_daint =
      daint.sweep(run16, "Piz Daint - PPCG - 16 (CUDA)", node_axis(2048));
  const ScalingSeries s_titan =
      titan.sweep(run16, "Titan - PPCG - 16 (CUDA)", node_axis(8192));

  io::CsvWriter csv(args.get("csv", "fig8_efficiency.csv"));
  csv.header({"nodes", "label", "efficiency"});
  std::printf("%-8s %-26s %-28s %-26s\n", "nodes", s_spruce.label.c_str(),
              s_daint.label.c_str(), s_titan.label.c_str());
  const auto e_spruce = scaling_efficiency(s_spruce);
  const auto e_daint = scaling_efficiency(s_daint);
  const auto e_titan = scaling_efficiency(s_titan);
  for (std::size_t i = 0; i < e_titan.size(); ++i) {
    const int nodes = s_titan.points[i].nodes;
    std::printf("%-8d ", nodes);
    if (i < e_spruce.size()) {
      std::printf("%-26.3f ", e_spruce[i]);
      csv.row(nodes, s_spruce.label, e_spruce[i]);
    } else {
      std::printf("%-26s ", "-");
    }
    if (i < e_daint.size()) {
      std::printf("%-28.3f ", e_daint[i]);
      csv.row(nodes, s_daint.label, e_daint[i]);
    } else {
      std::printf("%-28s ", "-");
    }
    std::printf("%-26.3f\n", e_titan[i]);
    csv.row(nodes, s_titan.label, e_titan[i]);
  }

  double spruce_peak = 0.0;
  int spruce_peak_nodes = 0;
  for (std::size_t i = 0; i < e_spruce.size(); ++i) {
    if (e_spruce[i] > spruce_peak) {
      spruce_peak = e_spruce[i];
      spruce_peak_nodes = s_spruce.points[i].nodes;
    }
  }
  std::printf("\nSpruce peak efficiency %.2f at %d nodes "
              "(paper: super-linear up to 512, cache effects)\n",
              spruce_peak, spruce_peak_nodes);
  for (std::size_t i = 0; i < e_daint.size(); ++i) {
    if (s_daint.points[i].nodes == 2048) {
      std::printf("at 2048 nodes: Daint eff %.3f vs Titan eff %.3f "
                  "(paper: Daint consistently higher)\n", e_daint[i],
                  e_titan[i]);
    }
  }
  return 0;
}
