#pragma once

#include "comm/sim_comm.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Point-Jacobi relaxation (upstream tea_leaf_jacobi_solve_kernel): the
/// simplest solver in TeaLeaf's design space.  One halo exchange and one
/// global reduction (the Σ|Δu| error) per sweep; converges slowly but is
/// embarrassingly parallel — retained as the design-space anchor.
class JacobiSolver {
 public:
  /// The solver body: the ENTIRE solve runs on `team` inside the
  /// caller's already-open parallel region (see CGSolver::solve_team for
  /// the contract).
  static SolveStats solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                               const Team& team);
};

}  // namespace tealeaf
