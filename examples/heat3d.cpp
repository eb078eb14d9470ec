// 3-D heat diffusion (upstream TeaLeaf3D, 7-point stencil): a hot
// spherical inclusion diffusing through a layered 3-D material, solved
// with CPPCG + matrix powers on the simulated cluster.
//
// Since the dimension-generic core retired the tea3d fork, this example
// runs through exactly the same mesh/comm/solver stack as every 2-D run —
// including the execution engine's row tiling (--tile).
//
// Run:  ./examples/heat3d [--mesh 24] [--ranks 8] [--steps 3] [--depth 2]
//                         [--tile 8]
// --depth and --tile are the deck keys tl_halo_depth and tl_tile_rows and
// parse by their rules; without --tile the solve takes the library
// default, auto row tiles (--tile auto).

#include <cmath>
#include <cstdio>
#include <string>

#include "comm/sim_comm.hpp"
#include "driver/deck.hpp"
#include "ops/kernels.hpp"
#include "solvers/solver.hpp"
#include "util/args.hpp"

namespace {

int run(const tealeaf::Args& args) {
  using namespace tealeaf;
  const int n = args.get_int("mesh", 24);
  const int ranks = args.get_int("ranks", 8);
  const int steps = args.get_int("steps", 3);

  // The solver knobs, with --depth and --tile set through their deck keys.
  InputDeck knobs;
  knobs.solver.type = SolverType::kPPCG;
  knobs.solver.inner_steps = 10;
  knobs.solver.eigen_cg_iters = 15;
  knobs.solver.eps = 1e-9;
  knobs.solver.max_iters = 50000;
  knobs.set(args);
  const SolverConfig cfg = knobs.solver.validated();  // --tile -2 is no height
  const int depth = cfg.halo_depth;

  const double dt = 0.04;
  const GlobalMesh mesh = GlobalMesh::brick3d(n, n, n, 10.0);
  SimCluster cl(mesh, ranks, std::max(2, depth));

  // Layered density with a light spherical inclusion at the centre (low
  // density = high conduction under the resistivity-mean face formula).
  cl.for_each_chunk([&](int, Chunk& c) {
    for (int l = 0; l < c.nz(); ++l) {
      for (int k = 0; k < c.ny(); ++k) {
        for (int j = 0; j < c.nx(); ++j) {
          const double x = c.cell_x(j);
          const double y = c.cell_y(k);
          const double z = c.cell_z(l);
          const double r2 = (x - 5) * (x - 5) + (y - 5) * (y - 5) +
                            (z - 5) * (z - 5);
          c.density()(j, k, l) = (y < 3.0) ? 10.0 : 2.0;
          c.energy()(j, k, l) = 0.01;
          if (r2 < 2.0 * 2.0) {
            c.density()(j, k, l) = 0.1;
            c.energy()(j, k, l) = 10.0;
          }
        }
      }
    }
  });

  // `auto` resolves against this host's L2 (resolve_tile_rows).
  const std::string rows = std::to_string(resolve_tile_rows(cl, cfg));
  const std::string tile =
      cfg.tile_rows < 0 ? "auto: " + rows + " rows" : rows;

  std::printf("heat3d: %d^3 cells on %d simulated ranks (%dx%dx%d), "
              "PPCG depth %d [tile %s] [team width %d of %d threads]\n", n,
              cl.nranks(), cl.decomposition().px(), cl.decomposition().py(),
              cl.decomposition().pz(), depth, tile.c_str(), cl.team_width(),
              num_threads());

  const double rx = dt / (mesh.dx() * mesh.dx());
  const double ry = dt / (mesh.dy() * mesh.dy());
  const double rz = dt / (mesh.dz() * mesh.dz());
  for (int s = 1; s <= steps; ++s) {
    cl.exchange({FieldId::kDensity, FieldId::kEnergy1}, cl.halo_depth());
    cl.for_each_chunk([&](int, Chunk& c) {
      kernels::init_u_u0(c);
      kernels::init_conduction(c, kernels::Coefficient::kConductivity, rx,
                               ry, rz);
    });
    const SolveStats st = run_solver(cl, cfg);
    cl.for_each_chunk([](int, Chunk& c) {
      for (int l = 0; l < c.nz(); ++l)
        for (int k = 0; k < c.ny(); ++k)
          for (int j = 0; j < c.nx(); ++j)
            c.energy()(j, k, l) = c.u()(j, k, l) / c.density()(j, k, l);
    });
    const double total_u = cl.sum_over_chunks(
        [](int, Chunk& c) { return c.u().sum_interior(); });
    std::printf("step %d: outer=%4d inner=%5lld spmv=%5lld |r|=%8.2e "
                "sum(u)=%.6f %s\n", s, st.outer_iters, st.inner_steps,
                st.spmv_applies, st.final_norm,
                total_u / mesh.cell_count(),
                st.converged ? "" : " ** not converged");
  }

  const auto& stats = cl.stats();
  std::printf("communication: %lld exchanges, %lld messages, %.2f MB, "
              "%lld reductions\n",
              static_cast<long long>(stats.exchange_calls),
              static_cast<long long>(stats.messages),
              static_cast<double>(stats.message_bytes) / 1.0e6,
              static_cast<long long>(stats.reductions));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using tealeaf::Flag;
  return tealeaf::run_main(
      argc, argv,
      {{"mesh", Flag::kInt}, {"ranks", Flag::kInt}, {"steps", Flag::kInt},
       tealeaf::deck_flag("depth", "tl_halo_depth", "2"),
       tealeaf::deck_flag("tile", "tl_tile_rows")},
      run);
}
