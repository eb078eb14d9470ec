#pragma once

#include <vector>

#include "comm/sim_comm.hpp"
#include "solvers/solver.hpp"

namespace tealeaf {

/// One solve of a batch: a prepared cluster (u0/u seeded, coefficients
/// built — see SolveSession::prepare) plus the configuration to run it
/// with.  `stats` is filled by solve_batched.
struct BatchItem {
  SimCluster2D* cluster = nullptr;
  SolverConfig config;  ///< tile_rows = -1 (auto) is fine
  SolveStats stats;
};

/// True when the batch engine can run `cfg` inside its region: fp64 and
/// no multigrid preconditioner.  The single/mixed storage orchestration
/// and the multigrid hierarchy's build both run outside any region, so
/// the server solves such requests on the solo path (run_solver).
[[nodiscard]] bool batchable(const SolverConfig& cfg);

/// Solve every item of the batch inside ONE parallel region: the region's
/// threads are partitioned into min(nitems, nthreads) sub-teams, each
/// sub-team runs whole solves via run_solver_team and works through
/// the items assigned to it (item k goes to sub-team k mod ngroups).
///
/// Because every solver's team form derives all control flow from
/// deterministic rank/row-ordered reductions, the result of each item is
/// bitwise identical to solving it alone with solver.run_solver — the
/// sub-team geometry only changes who computes, never what is computed.
/// Enforced by tests/test_server.cpp.
///
/// Items must reference distinct clusters.  Every item passes
/// check_solvable (solvers/solver.hpp) and must be batchable, and its
/// cluster gets the solve_fields it lacks: all of it before the region
/// opens, so a failed check or allocation throws there.
/// Numerical breakdowns surface through stats.breakdown as usual.
void solve_batched(std::vector<BatchItem>& items);

}  // namespace tealeaf
