#include "model/trace.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tealeaf {

SolverRunSummary SolverRunSummary::from(const SolverConfig& cfg,
                                        const SolveStats& stats, int mesh_n) {
  SolverRunSummary run;
  run.trace = stats.trace;
  run.outer_iters = stats.outer_iters - stats.eigen_cg_iters;
  run.presteps = stats.eigen_cg_iters;
  run.mesh_n = mesh_n;
  run.halo_depth = cfg.halo_depth;
  run.tile_rows = cfg.tile_rows;
  return run;
}

SolverRunSummary with_outer_iters(SolverRunSummary run, int outer_iters) {
  if (run.outer_iters > 0) {
    run.trace.scale(Phase::kIteration,
                    static_cast<double>(outer_iters) / run.outer_iters);
    run.outer_iters = outer_iters;
  }
  return run;
}

SolverRunSummary project_to_mesh(SolverRunSummary run, int target_n) {
  TEA_REQUIRE(run.mesh_n > 0, "run summary lacks its measured mesh size");
  if (target_n == run.mesh_n) return run;
  // κ(A) grows ∝ n² for this operator at fixed dt (rx = dt/dx²), so CG-
  // family iteration counts grow ∝ √κ ∝ n.
  const double s = static_cast<double>(target_n) / run.mesh_n;
  run = with_outer_iters(
      run, std::max(1, static_cast<int>(std::lround(run.outer_iters * s))));
  run.mesh_n = target_n;
  return run;
}

CommStats predict_comm_counts(const SolveTrace& trace,
                               const Decomposition& decomp) {
  CommStats total;
  for (const SolveTrace::ExchangeCount& e : trace.exchanges) {
    const CommStats one =
        exchange_counts(decomp, e.depth, e.fields, e.elem_bytes);
    const auto times = [&](std::int64_t v) {
      return std::llround(static_cast<double>(v) * e.count);
    };
    total.exchange_calls += times(one.exchange_calls);
    total.messages += times(one.messages);
    total.message_bytes += times(one.message_bytes);
  }
  for (const double n : trace.reductions) total.reductions += std::llround(n);
  return total;
}

}  // namespace tealeaf
