#pragma once

#include "comm/sim_comm.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Stand-alone Chebyshev acceleration (paper §III-C; upstream
/// tea_leaf_cheby_kernel).  Runs `eigen_cg_iters` CG presteps to estimate
/// the extreme eigenvalues via the Lanczos tridiagonal, then iterates the
/// shifted/scaled Chebyshev recurrence, which needs **no** per-iteration
/// global reduction — the residual norm is checked only every
/// `cheby_check_interval` iterations.
class ChebyshevSolver {
 public:
  static SolveStats solve(SimCluster2D& cl, const SolverConfig& cfg);

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
