#pragma once

#include "comm/sim_comm.hpp"
#include "model/machine.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Dispatch facade: run the configured solver on A·u = u0.
///
/// Preconditions (normally established by SolveSession / the driver's
/// timestep):
///  * u = u0 = initial temperature on chunk interiors,
///  * Kx/Ky built by kernels::init_conduction after a full-depth density
///    exchange.
/// Postcondition: u holds the converged solution on chunk interiors.
///
/// tile_rows < 0 ("auto") is resolved here before dispatch, sizing the
/// row-blocks from `machine`'s per-core L2 and the chunk width (a height
/// covering a whole plane is one block per plane) — pass the machine the
/// run models (SolveSession and the sweep thread theirs
/// through); the default is the same spruce_hybrid SweepOptions prices
/// communication against.
[[nodiscard]] SolveStats run_solver(
    SimCluster2D& cl, const SolverConfig& cfg,
    const MachineSpec& machine = machines::spruce_hybrid());

/// Team-injected dispatch: the ENTIRE solve runs on `team` inside the
/// caller's already-open parallel region.  Every thread of the team must
/// call with identical arguments; the returned stats are identical on
/// every thread (up to per-thread wall-clock).  `team` may be a sub-team
/// — the solve-server's batch engine runs one request per sub-team,
/// concurrently, inside ONE region.  cfg must be pre-validated, batchable
/// (fp64 and no multigrid preconditioner: both need work outside the
/// region; see server/batch.hpp) and fit the cluster's halo.  Those
/// checks throw, so the caller makes them before its region opens.
/// Bitwise identical to run_solver, which opens a region of its own.
[[nodiscard]] SolveStats run_solver_team(
    SimCluster2D& cl, const SolverConfig& cfg, const Team& team,
    const MachineSpec& machine = machines::spruce_hybrid());

}  // namespace tealeaf
