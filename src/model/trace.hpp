#pragma once

#include "comm/comm_stats.hpp"
#include "comm/solve_trace.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// One measured solve reduced to what the performance model prices: the
/// solve's own trace (SolveStats::trace) and the two settings the model
/// prices beside it.  Produced from a real run via `from()`, then
/// optionally projected to another mesh with `project_to_mesh` (κ ∝ n²
/// for this operator ⇒ iterations ∝ n; the rule is validated empirically
/// in the test suite).
struct SolverRunSummary {
  SolveTrace trace;
  /// Main-loop iterations the trace's iteration phase holds.
  int outer_iters = 0;
  /// CG presteps run for the eigenvalue estimate (its prestep phase).
  int presteps = 0;
  int mesh_n = 0;  ///< square mesh edge the run was measured on
  /// Matrix-powers depth: the driver exchanges the materials at
  /// max(2, depth) every step.
  int halo_depth = 1;
  /// Row-block height the run asked for (0 = one block per plane; -1 =
  /// auto, resolved by the model against the modelled machine's L2 and
  /// chunk width, not against the host's as the run was): selects the
  /// kernels' L2-blocked traffic.
  int tile_rows = 0;

  [[nodiscard]] static SolverRunSummary from(const SolverConfig& cfg,
                                             const SolveStats& stats,
                                             int mesh_n);
};

/// The run with its main loop held at `outer_iters` iterations: the
/// trace's iteration phase scaled by outer_iters / run.outer_iters (a run
/// whose main loop never ran has nothing to scale).
[[nodiscard]] SolverRunSummary with_outer_iters(SolverRunSummary run,
                                                int outer_iters);

/// Scale the measured iteration count from `run.mesh_n` to `target_n`.
/// The setup and prestep phases are a fixed configuration cost and do not
/// scale.
[[nodiscard]] SolverRunSummary project_to_mesh(SolverRunSummary run,
                                               int target_n);

/// The communication of a trace at a decomposition, in CommStats'
/// conventions: every recorded exchange priced by exchange_counts, every
/// allreduce counted once.  Tests hold it equal to the CommStats of real
/// runs at any rank count, whatever rank count recorded the trace.
[[nodiscard]] CommStats predict_comm_counts(const SolveTrace& trace,
                                             const Decomposition& decomp);

}  // namespace tealeaf
