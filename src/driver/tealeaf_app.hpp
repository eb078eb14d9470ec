#pragma once

#include <memory>
#include <vector>

#include "api/solve_api.hpp"
#include "comm/sim_comm.hpp"
#include "driver/deck.hpp"

namespace tealeaf {

/// Aggregate outcome of a full run.
struct RunResult {
  int steps = 0;
  double sim_time = 0.0;
  bool all_converged = true;
  long long total_outer_iters = 0;
  long long total_inner_steps = 0;
  long long total_spmv = 0;
  double wall_seconds = 0.0;
  FieldSummary final_summary;
};

/// The TeaLeaf application driver: a thin timestep-marching facade over
/// SolveSession (which owns the simulated cluster and the per-step
/// solve), kept for the classic "construct + run()" workflow (upstream
/// diffuse()/timestep loop).
class TeaLeafApp {
 public:
  /// Build the session (cluster decomposed over `nranks` simulated ranks,
  /// fields initialised from the deck).  Halo depth is sized for the
  /// solver's matrix-powers configuration.
  TeaLeafApp(const InputDeck& deck, int nranks);

  /// Advance one timestep: u0 = ρ·e, rebuild conduction coefficients,
  /// solve A·u = u0, update e = u/ρ.  Returns the solve statistics.
  SolveStats step();

  /// Run `deck.num_steps()` steps (or until end_time).
  RunResult run();

  [[nodiscard]] FieldSummary field_summary();

  [[nodiscard]] SolveSession& session() { return *session_; }
  [[nodiscard]] SimCluster2D& cluster() { return session_->cluster(); }
  [[nodiscard]] const InputDeck& deck() const { return deck_; }
  [[nodiscard]] double sim_time() const { return session_->sim_time(); }
  [[nodiscard]] int steps_taken() const { return session_->solves_taken(); }
  [[nodiscard]] const std::vector<SolveStats>& history() const {
    return history_;
  }

 private:
  InputDeck deck_;
  std::unique_ptr<SolveSession> session_;
  std::vector<SolveStats> history_;
};

}  // namespace tealeaf
