#pragma once

#include <span>
#include <string>

#include "comm/sim_comm.hpp"
#include "model/machine.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Throws TeaError unless `cfg` can run on `cl`: cfg.validate(), the
/// config's matrix-powers depth against the cluster's halo, and mg-pcg's
/// one-rank rule.  A solve's region cannot throw, so every solve passes
/// these checks before its region opens (solve_batched makes them for
/// every item).
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
/// before its region (solve_batched), and a chunk holds only
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

/// One solve of a batch: a prepared cluster (u0/u seeded, coefficients
/// built — see SolveSession::prepare) plus the configuration to run it
/// with.  solve_batched resolves `config.tile_rows` (resolve_tile_rows)
/// and fills the outputs: `stats`, or `error` when the solve could not
/// start.
struct BatchItem {
  SimCluster2D* cluster = nullptr;
  SolverConfig config;  ///< tile_rows = -1 (auto) is fine
  SolveStats stats;     ///< output
  std::string error;    ///< output: the TeaError that kept the item out
};

/// The one way into a solve: every item of the batch, of any precision
/// and preconditioner, solved inside ONE parallel region.
///
/// Before the region, item by item, on the calling thread: check_solvable,
/// resolve_tile_rows (against machines::host()), the solve_fields the
/// cluster lacks, the multigrid hierarchy of an mg-pcg config
/// (SolveStats::setup_seconds) and the fp32 operator of a single or mixed
/// one.  A region cannot throw, so these are where a solve fails: an item
/// whose step throws a TeaError records its message in `error` and stays
/// out of the region, and the rest of the batch runs.
///
/// The region runs min(num_threads(), Σ the items' team_width) threads.
/// One item — or a region of one thread — runs on the region's own Team
/// with the OpenMP barrier; more items split the region into
/// min(items, threads) SpinBarrier sub-teams, item k on sub-team
/// k mod sub-teams, so a batch of small requests runs one-thread
/// sub-teams.  A single or mixed item runs its downcasts, fp32 passes,
/// corrections and fp64 guard residuals on its team too.
///
/// Every solver derives its control flow from deterministic rank/row-
/// ordered reductions, so each item is bitwise identical to solving it
/// alone: the team geometry changes who computes, never what is computed
/// (enforced by tests/test_server.cpp).  Items must reference distinct
/// clusters.  Numerical breakdowns surface through stats.breakdown.
void solve_batched(std::span<BatchItem> items);

/// One solve: a batch of one item (solve_batched) on A·u = u0.
///
/// Preconditions (normally established by SolveSession / the driver's
/// timestep):
///  * u = u0 = initial temperature on chunk interiors,
///  * Kx/Ky built by kernels::init_conduction after a full-depth density
///    exchange.
/// Postcondition: u holds the converged solution on chunk interiors.
///
/// An `auto` tile height resolves against `machine`, by default the host
/// (SolveStats::tile_rows records it).  The step before the region throws
/// its TeaError here: a config the cluster cannot run, or fields,
/// hierarchy or fp32 operator that do not fit in memory.
[[nodiscard]] SolveStats run_solver(
    SimCluster2D& cl, const SolverConfig& cfg,
    const MachineSpec& machine = machines::host());

}  // namespace tealeaf
