#include "solvers/jacobi.hpp"

#include <cmath>

#include "ops/kernels.hpp"
#include "util/timer.hpp"

namespace tealeaf {

SolveStats JacobiSolver::solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                                    const Team& team) {
  // One tiled two-phase sweep per iteration: each block runs jacobi_tile
  // (save its rows, then update the rows whose stencils read only this
  // block's saves — on 3-D or assembled operators none), a barrier, then
  // jacobi_tile_edges finishes the deferred rows.  Both passes — which
  // MUST share one tile decomposition, since the edge pass finishes
  // exactly the rows the first deferred — deposit per-row error partials
  // into the chunk's row scratch, and combine_row_partials reduces them.
  // All loop-control state is computed identically on every thread (team
  // reductions are rank/row-ordered), so the sweep loop and its early
  // exits are uniform across the team.
  Timer timer;
  SolveStats st;
  const int tile = cfg.tile_rows;
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };

  double initial_err = 0.0;
  cl.set_phase(team, Phase::kIteration);
  while (st.outer_iters < cfg.max_iters) {
    cl.exchange(team, {FieldId::kU}, 1);
    cl.for_each_tile(team, tile, interior, {Kernel::kJacobi},
                     [](int, Chunk2D& c, const Bounds& tb) {
                       kernels::jacobi_tile(c, tb, c.row_scratch());
                     });
    team.barrier();  // edge rows read every block's saved rows
    cl.for_each_tile(team, tile, interior, {},
                     [](int, Chunk2D& c, const Bounds& tb) {
                       kernels::jacobi_tile_edges(c, tb, c.row_scratch());
                     });
    const double err = cl.combine_row_partials(team, tile);
    ++st.outer_iters;
    ++st.spmv_applies;  // one operator-equivalent sweep
    if (st.outer_iters == 1) {
      initial_err = err;
      st.initial_norm = err;
      if (err == 0.0) {
        st.converged = true;
        break;
      }
    }
    st.final_norm = err;
    if (err <= cfg.eps * initial_err) {
      st.converged = true;
      break;
    }
  }
  st.solve_seconds = timer.elapsed_s();
  return st;
}

}  // namespace tealeaf
