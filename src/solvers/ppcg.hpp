#pragma once

#include "comm/sim_comm.hpp"
#include "solvers/cheby_coef.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// CPPCG — the paper's primary contribution (§III): conjugate gradients
/// polynomially preconditioned with a shifted/scaled Chebyshev polynomial.
///
/// Each outer PCG iteration applies z = B(A)·r via `inner_steps` Chebyshev
/// recurrence steps.  The outer loop keeps CG's two global reductions, but
/// they now amortise over `inner_steps+1` operator applications — the
/// communication-avoiding property that drives the strong-scaling results
/// of Figs. 5-7.
///
/// With `halo_depth` (matrix powers, §IV-C2) > 1, the inner loop exchanges
/// a depth-d halo once per d operator applications and performs the
/// intermediate sweeps on bounds extended into the overlap, recomputing
/// the overlap redundantly instead of communicating.
class PPCGSolver {
 public:
  /// The solver body: the ENTIRE solve — presteps, restart and outer
  /// loop — runs on `team` inside the caller's already-open parallel
  /// region (see CGSolver::solve_team for the contract).  Honours
  /// cfg.eig_hint_min/max (skip the presteps, build the polynomial on the
  /// hinted interval); a stale hint surfaces as the ⟨r, M⁻¹r⟩ breakdown
  /// flag, a prestep recurrence with no usable spectrum as a breakdown
  /// too.  solve_batched checks cfg.validate() and the
  /// cluster's halo depth against cfg.halo_depth before the region opens
  /// — checks throw, and regions cannot.
  static SolveStats solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                               const Team& team);

  /// Apply the inner Chebyshev preconditioner: z = B(A)·r on every chunk.
  /// Exposed for tests (depth-equivalence and trace validation).
  /// Updates `spmv_applies`/`inner_steps` counters in `st` when non-null.
  /// Workshares on `team` inside the caller's parallel region; every
  /// sweep is row-tiled at cfg.tile_rows (bitwise identical at any
  /// height; whole strips under block-Jacobi, see run_solver).
  static void apply_inner(SimCluster2D& cl, const SolverConfig& cfg,
                          const ChebyCoefs& cc, SolveStats* st,
                          const Team& team);
};

}  // namespace tealeaf
