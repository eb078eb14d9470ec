// The paper's evaluation problem (§V-B, Fig. 3): heat racing down a
// crooked pipe of high-conduction material embedded in a dense slab.
// Writes a PPM heat map and a VTK dump of the final temperature field.
//
// Run:  ./examples/crooked_pipe [--mesh 200] [--ranks 4] [--steps 40]
//       [--out crooked_pipe.ppm] [--vtk crooked_pipe.vtk]

#include <cstdio>

#include "comm/gather.hpp"
#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "io/ppm.hpp"
#include "io/vtk.hpp"
#include "util/args.hpp"

namespace {

int run(const tealeaf::Args& args) {
  const int n = args.get_int("mesh", 200);
  const int ranks = args.get_int("ranks", 4);
  const int steps = args.get_int("steps", 40);
  const std::string out = args.get("out", "crooked_pipe.ppm");
  const std::string vtk = args.get("vtk", "");

  tealeaf::InputDeck deck = tealeaf::decks::crooked_pipe(n, steps);
  deck.solver.type = tealeaf::SolverType::kPPCG;
  deck.solver.inner_steps = 10;
  deck.solver.halo_depth = 4;
  deck.solver.eps = 1e-8;

  std::printf("crooked pipe: %dx%d, %d steps of dt=%.3fus on %d ranks\n", n,
              n, steps, deck.initial_timestep, ranks);
  tealeaf::TeaLeafApp app(deck, ranks);
  const tealeaf::RunResult rr = app.run();
  std::printf("ran %d steps to t=%.2fus in %.2fs (%lld outer iters, %s)\n",
              rr.steps, rr.sim_time, rr.wall_seconds, rr.total_outer_iters,
              rr.all_converged ? "all converged" : "NOT all converged");
  std::printf("average temperature: %.6f\n", rr.final_summary.avg_temp());

  const tealeaf::Field2D<double> u =
      tealeaf::gather_field(app.cluster(), tealeaf::FieldId::kU);
  tealeaf::io::write_ppm(u, out);
  std::printf("wrote %s\n", out.c_str());
  if (!vtk.empty()) {
    const tealeaf::Field2D<double> rho =
        tealeaf::gather_field(app.cluster(), tealeaf::FieldId::kDensity);
    tealeaf::io::write_vtk(
        tealeaf::GlobalMesh2D(n, n, deck.xmin, deck.xmax, deck.ymin,
                              deck.ymax),
        {{"temperature", &u}, {"density", &rho}}, vtk);
    std::printf("wrote %s\n", vtk.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using tealeaf::Flag;
  return tealeaf::run_main(
      argc, argv,
      {{"mesh", Flag::kInt}, {"ranks", Flag::kInt}, {"steps", Flag::kInt},
       {"out"}, {"vtk"}},
      run);
}
