#pragma once

#include "comm/sim_comm.hpp"
#include "model/machine.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Throws TeaError unless `cfg` can run on `cl`: cfg.validate(), the
/// config's matrix-powers depth against the cluster's halo, and mg-pcg's
/// one-rank rule.  A solve's region cannot throw, so every solve passes
/// these checks before its region opens: run_solver makes them itself,
/// and the batch engine (server/batch.hpp) makes them for every item
/// before its region.
void check_solvable(const SimCluster2D& cl, const SolverConfig& cfg);

/// The fields a solve of `cfg` on `cl` uses, per bank: the fp64 bank's
/// base set (Chunk::base_fields) plus the solver's work fields, and the
/// fp32 bank of a single or mixed solve.  The work fields, read from the
/// solver bodies:
///  * Jacobi: r (its sweep saves u there);
///  * CG, Chebyshev and PPCG: p, r and w; any preconditioner adds z, and
///    block-Jacobi also cp and bfp (its Thomas factors);
///  * Chronopoulos–Gear CG adds z and sd whatever the preconditioner;
///  * PPCG adds z, sd and rtemp (its inner Chebyshev solve).
/// A single solve runs them on the fp32 bank, which also holds u, u0 and
/// the coefficients; a mixed solve does the same, and its fp64 bank adds
/// only r and w, for the guard residual.  Every solve allocates these
/// before its region (run_solver, solve_batched), and a chunk holds only
/// what its solves have used (docs/architecture.md, "Field residency").
[[nodiscard]] FieldBanks solve_fields(const SimCluster2D& cl,
                                      const SolverConfig& cfg);

/// The row-block height a solve of `cfg` on `cl` runs at.  A height
/// `auto` (tile_rows < 0) is auto_tile_rows of `machine`'s per-core L2 and
/// the chunk width at the cluster's halo depth; a height covering a whole
/// plane is one block per plane, the schedule of tile_rows = 0.  Under
/// block-Jacobi a positive height rounds up to whole 4-row strips.  Every
/// solve resolves against machines::host(): `auto` fits the L2 of the
/// machine the solve runs on, and a modelled machine only prices
/// (ScalingModel resolves `auto` against the machine it prices).
[[nodiscard]] int resolve_tile_rows(
    const SimCluster2D& cl, const SolverConfig& cfg,
    const MachineSpec& machine = machines::host());

/// The one way into a solve: run the configured solver on A·u = u0.
///
/// Preconditions (normally established by SolveSession / the driver's
/// timestep):
///  * u = u0 = initial temperature on chunk interiors,
///  * Kx/Ky built by kernels::init_conduction after a full-depth density
///    exchange.
/// Postcondition: u holds the converged solution on chunk interiors.
///
/// Makes the check_solvable checks, resolves the tile height
/// (resolve_tile_rows against `machine`, by default the host; SolveStats::
/// tile_rows records it) and allocates the solve_fields the chunks lack (a
/// TeaError when memory runs out) before dispatch.  The whole native
/// solve runs in one parallel region; the multigrid preconditioner's
/// hierarchy is built before it opens (SolveStats::setup_seconds).
[[nodiscard]] SolveStats run_solver(
    SimCluster2D& cl, const SolverConfig& cfg,
    const MachineSpec& machine = machines::host());

/// Team-injected dispatch: the ENTIRE solve runs on `team` inside the
/// caller's already-open parallel region.  Every thread of the team must
/// call with identical arguments; the returned stats are identical on
/// every thread (up to per-thread wall-clock), except that only thread
/// 0's carry the trace (thread 0 records it), the operator fill and the
/// tile height.  `team` may be a sub-team
/// — the solve-server's batch engine runs one request per sub-team,
/// concurrently, inside ONE region.  cfg must have passed check_solvable
/// on `cl` and be batchable (fp64 and no multigrid preconditioner: both
/// need work outside the region; see server/batch.hpp), and `cl` must
/// hold its solve_fields.  Those checks throw and the allocation may, so
/// the caller makes them before its region opens.  The tile height
/// resolves against machines::host(), as run_solver's does by default,
/// and the result is bitwise identical to run_solver's, which opens a
/// region of its own.
[[nodiscard]] SolveStats run_solver_team(SimCluster2D& cl,
                                         const SolverConfig& cfg,
                                         const Team& team);

}  // namespace tealeaf
