#pragma once

#include "comm/sim_comm.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// One step of the Chebyshev recurrence on every chunk, over
/// extended_bounds(c, ext):
///   w = A·dir;  res −= w;  dir = α·dir + β·M⁻¹·res;  acc += dir
/// as a tile pass of kernels::cheby_step_tile, a barrier, and a tile pass
/// of kernels::cheby_step_tile_edges, at `tile_rows` on `team`.  `dir`
/// must be valid ext + 1 cells into the halo.  The stand-alone solver
/// runs it on the interior (ext = 0) with (res, dir, acc) = (r, p, u);
/// PPCG's inner loop with (rtemp, sd, z).  No trailing barrier.
void cheby_step(SimCluster2D& cl, const Team& team, int tile_rows, int ext,
                PreconType precon, FieldId res, FieldId dir, FieldId acc,
                double alpha, double beta);

/// Stand-alone Chebyshev acceleration (paper §III-C; upstream
/// tea_leaf_cheby_kernel).  Runs `eigen_cg_iters` CG presteps to estimate
/// the extreme eigenvalues via the Lanczos tridiagonal, then iterates the
/// shifted/scaled Chebyshev recurrence, which needs **no** per-iteration
/// global reduction — the residual norm is checked only every
/// `cheby_check_interval` iterations.
class ChebyshevSolver {
 public:
  /// The solver body: the ENTIRE solve — presteps, bootstrap and
  /// recurrence — runs on `team` inside the caller's already-open
  /// parallel region (see CGSolver::solve_team for the contract).
  /// Honours cfg.eig_hint_min/max: when set, the CG presteps are skipped
  /// and the polynomial is built directly on the hinted interval (the
  /// session cache's amortisation path).  A prestep recurrence that
  /// yields no usable spectrum is reported as a breakdown.
  static SolveStats solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                               const Team& team);
};

}  // namespace tealeaf
