// Strong-scaling study driver: measure a solver's iteration structure on
// a real (simulated-cluster) run, then project time-to-solution across
// node counts of a modelled machine — the workflow behind Figs. 5-8.
//
// Run:  ./examples/scaling_study [--mesh 128] [--machine titan|daint|spruce]
//       [--project-mesh 4000] [--steps 10]

#include <cstdio>
#include <vector>

#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "model/machine.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace tealeaf;
  const Args args(argc, argv);
  const int n = args.get_int("mesh", 128);
  const int project_n = args.get_int("project-mesh", 4000);
  const int steps = args.get_int("steps", 10);
  const std::string machine = args.get("machine", "titan");

  MachineSpec spec = machines::titan();
  if (machine == "daint") spec = machines::piz_daint();
  if (machine == "spruce") spec = machines::spruce_hybrid();

  // Measure the real iteration structure once per configuration.
  std::printf("measuring solver structure on a %dx%d crooked pipe...\n", n,
              n);
  std::vector<std::pair<std::string, SolverRunSummary>> runs;
  for (const int depth : {0, 1, 4, 16}) {  // 0 = plain CG
    InputDeck deck = decks::crooked_pipe(n, 1);
    deck.solver.type = depth == 0 ? SolverType::kCG : SolverType::kPPCG;
    deck.solver.halo_depth = std::max(1, depth);
    deck.solver.eps = 1e-8;
    deck.solver.max_iters = 100000;
    // The paper's untiled engine, so the model prices streaming sweeps
    // rather than the default's L2-blocked row tiles.
    deck.solver.tile_rows = 0;
    TeaLeafApp app(deck, 4);
    const SolveStats st = app.step();
    if (!st.converged) std::printf("  warning: %d did not converge\n", depth);
    SolverRunSummary run = SolverRunSummary::from(deck.solver, st, n);
    const std::string label =
        depth == 0 ? "CG - 1" : "PPCG - " + std::to_string(depth);
    std::printf("  %-9s outer=%d presteps=%d\n", label.c_str(),
                run.outer_iters, run.eigen_cg_iters);
    runs.emplace_back(label, project_to_mesh(run, project_n));
  }

  const GlobalMesh2D target(project_n, project_n, 0.0, 10.0, 0.0, 10.0);
  const ScalingModel model(spec, target, steps);
  const std::vector<int> nodes = {1,   2,   4,   8,   16,   32,  64,
                                  128, 256, 512, 1024, 2048, 4096, 8192};

  std::printf("\nprojected time-to-solution on %s, %dx%d, %d steps\n",
              spec.name.c_str(), project_n, project_n, steps);
  std::printf("%-6s", "nodes");
  for (const auto& [label, run] : runs) std::printf(" %12s", label.c_str());
  std::printf("\n");
  for (const int p : nodes) {
    std::printf("%-6d", p);
    for (const auto& [label, run] : runs) {
      std::printf(" %12.3f", model.run_seconds(run, p));
    }
    std::printf("\n");
  }
  return 0;
}
