#pragma once

#include "comm/sim_comm.hpp"
#include "solvers/eigen_estimate.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

class Multigrid;

/// Bootstrap the Krylov state on every chunk.  Preconditions: u = u0 =
/// initial temperature on the interiors, Kx/Ky built (init_conduction).
/// Performs: exchange(u,1); w = A·u; r = u0 − w; block-Jacobi setup when
/// selected; z = M⁻¹r; p = z (or r).  Returns rro = ⟨r, M⁻¹r⟩ (one global
/// reduction).  Upstream: tea_leaf_cg_init_kernel.
///
/// Workshares on `team` inside the caller's parallel region; every
/// thread returns the identical rank-ordered sum.  PreconType::kMultigrid
/// needs `mg`, a hierarchy built from the one chunk's coefficients: z is
/// then one V-cycle of r, run by the whole team.
double cg_setup(SimCluster2D& cl, PreconType precon, const Team& team,
                Multigrid* mg = nullptr);

/// One classic CG iteration (upstream tea_leaf_cg_calc_* kernels):
///   exchange(p,1); w = A·p; pw = ⟨p,w⟩;  α = rro/pw
///   u += α·p; r −= α·w; z = M⁻¹r; rrn = ⟨r,z⟩;  β = rrn/rro;  p = z + β·p
/// Two global reductions.  Appends (α, β) to `rec` when non-null (used by
/// the Chebyshev/PPCG eigenvalue presteps).  Returns rrn.  This is the one
/// classic-CG step: CGSolver's classic body and the presteps both run it.
///
/// A numerical breakdown (⟨p, A·p⟩ <= 0 or NaN) sets `breakdown` — the
/// iteration leaves u/r untouched and returns rro — so the solve can
/// report the failure instead of throwing across its region boundary.
///
/// Team-aware like cg_setup (and takes `mg` like it); every sweep runs
/// through the tile engine at `tile_rows` (0: one block per plane;
/// bitwise identical at any height; whole strips under block-Jacobi).
/// `rec` is per-thread storage; the appended (α, β) are identical on
/// every thread.
double cg_iteration(SimCluster2D& cl, PreconType precon, double rro,
                    CGRecurrence* rec, bool& breakdown, const Team& team,
                    int tile_rows = 0, Multigrid* mg = nullptr);

/// The eigenvalue presteps of Chebyshev and PPCG (paper §III-D): up to
/// `steps` cg_iteration calls at cfg.tile_rows, each appending its (α, β)
/// to `rec` and counting one SpMV in `st`; every completed step also
/// counts in st.eigen_cg_iters.  Stops early when √|rro| falls to
/// `target` (sets st.converged) or on a breakdown (returns true; `rro`
/// keeps the value before the failed step).  Team-aware like
/// cg_iteration.
bool cg_presteps(SimCluster2D& cl, const SolverConfig& cfg, int steps,
                 double target, double& rro, CGRecurrence& rec,
                 SolveStats& st, const Team& team);

/// The standard conjugate-gradient solver (paper §III-A): the baseline
/// whose strong-scaling is limited by the two global dot products per
/// iteration.
class CGSolver {
 public:
  /// The solver body: solve A·u = u0 in place on the cluster's chunks.
  /// Convergence is declared when √|⟨r,M⁻¹r⟩| falls below eps × its
  /// initial value.  With cfg.fuse_cg_reductions the Chronopoulos-Gear
  /// recurrence is used instead: one fused allreduce per iteration (paper
  /// §VII) — two recurrences, not two schedules.
  ///
  /// The ENTIRE solve runs on `team` inside the caller's already-open
  /// parallel region.  Every thread of the team must call this with
  /// identical arguments; all loop-control scalars derive from
  /// rank-ordered team reductions, so control flow is uniform and the
  /// returned stats are identical on every thread (up to each thread's
  /// own wall-clock).  `team` may be a sub-team — the batch engine runs
  /// one request per sub-team concurrently.  cfg must be resolved and
  /// checked by solve_batched (checks throw; regions cannot).  A
  /// multigrid config needs `mg` (see cg_setup), which solve_batched
  /// builds before its region opens.
  static SolveStats solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                               const Team& team, Multigrid* mg = nullptr);

 private:
  static SolveStats solve_classic(SimCluster2D& cl, const SolverConfig& cfg,
                                  const Team& team, Multigrid* mg);
  static SolveStats solve_chrono(SimCluster2D& cl, const SolverConfig& cfg,
                                 const Team& team);
};

}  // namespace tealeaf
