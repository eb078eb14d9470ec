#pragma once

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "comm/comm_stats.hpp"
#include "comm/solve_trace.hpp"
#include "mesh/chunk.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/mesh.hpp"
#include "ops/bounds.hpp"
#include "ops/sparse_matrix.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

/// Simulated distributed-memory cluster: the substitution for MPI (see
/// docs/architecture.md).  One implementation serves both problem
/// dimensions — the mesh's `dims` selects the 2-D or 3-D decomposition,
/// chunk layout and halo-exchange scheme, so every execution-engine
/// feature (team reductions, row tiling) applies to both.
///
/// The global mesh is block-decomposed over `nranks` simulated ranks, one
/// Chunk each.  Solvers drive the chunks SPMD-style through
/// `for_each_tile` / `sum_rows_over_chunks` (and the per-rank
/// `for_each_chunk` / `sum_over_chunks`), and all inter-rank data motion
/// goes through `exchange` (halo swap, real byte copies) and the
/// rank-ordered global reductions.  Every message and byte is recorded in
/// CommStats, and every exchange, reduction and named kernel pass of a
/// solve in its SolveTrace, which the performance model prices on a
/// modelled machine (thread 0 of the team records; nothing else touches
/// the trace during a solve).
///
/// Halo exchange is staged per axis (x first, then y carrying the x-halo
/// columns, then z carrying the xy-halo rows), which propagates corner
/// and edge data exactly as upstream TeaLeaf's staged MPI exchange does —
/// required for matrix-powers halo depths > 1.
///
/// Every collective has a Team form that workshares inside the one
/// `parallel_region` a solve opens (solve_batched, solvers/solver.hpp);
/// the mixed-precision layer's downcasts, corrections and fp64 guard
/// residuals run there too.  Work outside a solve — session prepare,
/// test and harness set-up — uses the standalone `exchange`,
/// `for_each_chunk` and `sum_over_chunks`, thin wrappers that open one
/// region around the Team form (so they must not be called inside a
/// region); an exception from a standalone `for_each_chunk` body is
/// rethrown after its region.
///
/// Every region the cluster opens — its constructor's, `allocate`'s and
/// the standalone collectives' — runs `team_width()` threads, and a
/// solve's region the sum of its items' widths: a small mesh does not pay
/// for threads it cannot use (docs/architecture.md, "Team width").
class SimCluster {
 public:
  /// Decompose `mesh` over `nranks` ranks, allocating every chunk with
  /// `halo_depth` ghost layers (>= the deepest exchange to be requested)
  /// and the base fields (Chunk::base_fields).  Chunks are constructed in
  /// parallel with the same rank→thread block mapping the kernels use, so
  /// each chunk's fields are first-touched — and hence NUMA-placed — on
  /// the thread that will process them.  Out of memory is a TeaError
  /// naming the mesh and the rank count.
  SimCluster(const GlobalMesh& mesh, int nranks, int halo_depth);

  /// Give every chunk the fields of `fields` it lacks, zero-filled on the
  /// thread that owns its rank (the constructor's first-touch placement).
  /// Out of memory is a TeaError naming the mesh and the rank count, and
  /// the chunks keep what they held.  Allocates nothing and opens no
  /// region when every chunk already holds `fields`.  Must not be called
  /// inside a region: solve_batched calls it before its own.
  void allocate(const FieldBanks& fields);

  [[nodiscard]] int nranks() const { return static_cast<int>(chunks_.size()); }
  /// The thread count of the regions the cluster opens: team_width of the
  /// global mesh's cells (util/parallel.hpp), a ThreadScope's count when
  /// one pins it.
  [[nodiscard]] int team_width() const {
    return tealeaf::team_width(mesh_.cell_count());
  }
  [[nodiscard]] int halo_depth() const { return halo_depth_; }
  [[nodiscard]] const GlobalMesh& mesh() const { return mesh_; }
  [[nodiscard]] const Decomposition& decomposition() const {
    return decomp_;
  }
  [[nodiscard]] Chunk& chunk(int rank) { return *chunks_[rank]; }
  [[nodiscard]] const Chunk& chunk(int rank) const {
    return *chunks_[rank];
  }

  /// Swap `depth` halo layers of each listed field with all face
  /// neighbours.  All fields travel in one message per direction.
  void exchange(std::initializer_list<FieldId> fields, int depth);

  /// Team-aware halo exchange for use inside a parallel region:
  /// worksharing over ranks through `team`, a barrier before each axis
  /// phase (the first orders it after the producers) and one at exit, so
  /// neighbouring kernel phases can skip their own.  An axis the
  /// decomposition does not split (px, py or pz == 1) has no neighbours:
  /// its phase and the barrier before it are skipped, and the exchange
  /// still counts every message.
  void exchange(const Team& team, std::initializer_list<FieldId> fields,
                int depth);

  /// Run `body(rank, chunk)` for every rank in one region, on the thread
  /// that owns the rank.  The form with `kernels` counts them into the
  /// trace, each one launch over every chunk (extended by kernels.ext()).
  /// A rank's exception is caught inside the region and the first is
  /// rethrown after it (out of memory as a TeaError naming the mesh and
  /// the rank count), so a body that allocates or checks its input cannot
  /// end the process.
  template <class Body>
  void for_each_chunk(Body&& body) {
    for_each_chunk(Kernels{}, body);
  }
  template <class Body>
  void for_each_chunk(const Kernels& kernels, Body&& body) {
    for_each_rank(kernels, [&](int r) { body(r, *chunks_[r]); });
  }

  /// Serial form: `body(rank, chunk)` for every rank in rank order on the
  /// calling thread, opening no region — the set-up a solve makes before
  /// its region (solve_batched), which may allocate and check its input.
  /// Counts `kernels` as for_each_chunk does; out of memory is the same
  /// TeaError naming the mesh and the rank count.
  template <class Body>
  void for_each_chunk_serial(const Kernels& kernels, Body&& body) {
    record(Team(0, 1), kernels);
    try {
      for (int r = 0; r < nranks(); ++r) body(r, *chunks_[r]);
    } catch (const std::bad_alloc&) {
      throw_out_of_memory();
    }
  }

  /// Team-aware form: workshares the ranks through `team`.  No implied
  /// barrier.
  template <class Body>
  void for_each_chunk(const Team& team, const Kernels& kernels, Body&& body) {
    record(team, kernels);
    team.for_range(0, nranks(), [&](std::int64_t r) {
      body(static_cast<int>(r), *chunks_[r]);
    });
  }

  // ---- tiled execution (cache-blocked sweeps) -----------------------------
  // Every solver sweep runs here: cut into row-blocks of `tile_rows` rows
  // (<= 0, or >= the rows of a plane: one block per plane) so the
  // per-block working set fits in L2.  A "row" is one unit-stride line of
  // cells; 3-D sweeps tile the flattened (plane, row) space, so the same
  // knob row-blocks 2-D chunks and plane/row-blocks 3-D ones (tiles never
  // span plane boundaries — each tile is a single-plane k-range).
  // Scheduling: with threads <= ranks each rank's blocks stay on the
  // thread that owns the rank (the NUMA first-touch mapping); with
  // threads > ranks the (rank, tile) pairs spread over the whole team via
  // Team::for_range_2d, so chunks larger than the rank count no longer
  // leave cores idle.  Results are bitwise independent of both the tile
  // height and the schedule: non-reducing sweeps are per-cell independent,
  // and reducing sweeps deposit per-row partials that the engine always
  // combines in row order, then rank order.
  //
  // Barrier rule of the row reductions: they have no entry barrier.  The
  // phase before one must end in an exchange or a reduction, or have
  // written its rows through the same tile decomposition — interior
  // bounds, same height — which puts every row on the thread that reads
  // it.  A caller whose previous phase ran per rank or over other bounds
  // places a `team.barrier()` itself.  An exchange ends in a barrier.  A
  // reduction has only its entry barrier: every write before it is
  // visible to every phase after it, and past that barrier its threads
  // only read their double-buffered partials (Team::reduction_parity), so
  // no later phase can race them.

  /// Number of row-blocks covering `rows` rows at height `tile_rows`.
  [[nodiscard]] static int num_row_tiles(int rows, int tile_rows) {
    if (rows <= 0) return 0;
    if (tile_rows <= 0 || tile_rows >= rows) return 1;
    return (rows + tile_rows - 1) / tile_rows;
  }

  /// Tiles covering a bounds box: per plane, its k-range cut into
  /// row-blocks.
  [[nodiscard]] static int num_tiles(const Bounds& b, int tile_rows) {
    return (b.lhi - b.llo) * num_row_tiles(b.khi - b.klo, tile_rows);
  }

  /// Run `body(rank, chunk, tile)` for every tile of every rank, where
  /// `tile` is `bounds_of(rank, chunk)` restricted to one plane and one
  /// row-block.  `bounds_of` must be a pure function of (rank, chunk),
  /// extended kernels.ext() cells into the halo.  The trace counts one
  /// launch of each of `kernels` (a deferred edge pass names none).  No
  /// implied barrier.
  template <class BoundsFn, class Body>
  void for_each_tile(const Team& team, int tile_rows, BoundsFn&& bounds_of,
                     const Kernels& kernels, Body&& body) {
    record(team, kernels);
    const auto run_tile = [&](int r, Chunk& c, const Bounds& b, int t) {
      const int rows = b.khi - b.klo;
      const int h = (tile_rows <= 0 || tile_rows >= rows) ? rows : tile_rows;
      const int per_plane = num_row_tiles(rows, tile_rows);
      Bounds tb = b;
      tb.llo = b.llo + t / per_plane;
      tb.lhi = tb.llo + 1;
      tb.klo = b.klo + (t % per_plane) * h;
      tb.khi = std::min(b.khi, tb.klo + h);
      body(r, c, tb);
    };
    if (team.num_threads() <= nranks()) {
      team.for_range(0, nranks(), [&](std::int64_t r) {
        Chunk& c = *chunks_[static_cast<std::size_t>(r)];
        const Bounds b = bounds_of(static_cast<int>(r), c);
        const int nt = num_tiles(b, tile_rows);
        for (int t = 0; t < nt; ++t) run_tile(static_cast<int>(r), c, b, t);
      });
      return;
    }
    team.for_range_2d(
        nranks(),
        [&](std::int64_t r) -> std::int64_t {
          Chunk& c = *chunks_[static_cast<std::size_t>(r)];
          return num_tiles(bounds_of(static_cast<int>(r), c), tile_rows);
        },
        [&](std::int64_t r, std::int64_t t) {
          Chunk& c = *chunks_[static_cast<std::size_t>(r)];
          const Bounds b = bounds_of(static_cast<int>(r), c);
          run_tile(static_cast<int>(r), c, b, static_cast<int>(t));
        });
  }

  /// True when `for_each_tile(team, tile_rows, interior)` runs every
  /// rank's tiles on the thread `team.for_range(0, nranks())` gives that
  /// rank: always at threads <= ranks, and at threads > ranks when every
  /// rank has one tile (the 2-D schedule then hands out one pair per
  /// thread, as for_range does).  A pure function of the team size, the
  /// rank count and the tile counts, so uniform across the team.
  [[nodiscard]] bool tiles_follow_ranks(const Team& team,
                                        int tile_rows) const {
    if (team.num_threads() <= nranks()) return true;
    for (const auto& c : chunks_) {
      if (num_tiles(interior_bounds(*c), tile_rows) != 1) return false;
    }
    return true;
  }

  /// Combine the per-row partials a tile pass over the interior at height
  /// `tile_rows` deposited in every chunk's `row_scratch()[ρ]` (one slot
  /// per interior row, ρ = l·ny + k): each rank's rows sum in row order,
  /// then the ranks in rank order — bitwise equal to `sum_over_chunks`
  /// over kernels built on the same per-row cores, whatever tiling or
  /// thread assignment produced the partials.  Counts ONE allreduce.
  /// When the tiles followed the ranks, each rank's owner folds the rows
  /// it deposited itself, with no barrier; otherwise one barrier makes
  /// every deposit visible first.
  double combine_row_partials(const Team& team, int tile_rows) {
    double* partials = partials_of(team);
    fold_rows(team, tile_rows, [&](int r, const Chunk& c) {
      double p = 0.0;
      for (int rho = 0; rho < c.num_rows(); ++rho) p += c.row_scratch()[rho];
      partials[r] = p;
    });
    return reduce_team_partials(team);
  }

  /// Tiled team reduction: `body(rank, chunk, tb)` runs `kernels` over
  /// the interior rows of tile `tb` and deposits one partial per row into
  /// the chunk's `row_scratch()[ρ]`, then the partials combine via
  /// combine_row_partials.  Counts ONE allreduce.  No entry barrier (see
  /// the barrier rule above).
  template <class Body>
  double sum_rows_over_chunks(const Team& team, int tile_rows,
                              const Kernels& kernels, Body&& body) {
    const auto interior = [](int, Chunk& c) { return interior_bounds(c); };
    for_each_tile(team, tile_rows, interior, kernels, body);
    return combine_row_partials(team, tile_rows);
  }

  /// Pair form of sum_rows_over_chunks (the single fused allreduce the
  /// paper's §VII proposes for CG's two dot products): `body(rank, chunk,
  /// tb)` deposits (row_scratch[2ρ], row_scratch[2ρ+1]) per row.  ONE
  /// allreduce.
  template <class Body>
  std::pair<double, double> sum2_rows_over_chunks(const Team& team,
                                                  int tile_rows,
                                                  const Kernels& kernels,
                                                  Body&& body) {
    const auto interior = [](int, Chunk& c) { return interior_bounds(c); };
    for_each_tile(team, tile_rows, interior, kernels, body);
    std::pair<double, double>* partials = pair_partials_of(team);
    fold_rows(team, tile_rows, [&](int r, const Chunk& c) {
      double a = 0.0;
      double b = 0.0;
      for (int rho = 0; rho < c.num_rows(); ++rho) {
        a += c.row_scratch()[2 * rho];
        b += c.row_scratch()[2 * rho + 1];
      }
      partials[r] = {a, b};
    });
    return reduce_team_partials2(team);
  }

  /// Evaluate `body(rank, chunk) -> double` on every rank and globally
  /// reduce the partials in rank order (counts one allreduce).  The form
  /// with `kernels` counts them into the trace, as for_each_chunk does.
  template <class Body>
  double sum_over_chunks(Body&& body) {
    return sum_over_chunks(Kernels{}, body);
  }
  template <class Body>
  double sum_over_chunks(const Kernels& kernels, Body&& body) {
    double total = 0.0;
    parallel_region(team_width(), [&](Team& t) {
      const double v = sum_over_chunks(t, kernels, body);
      t.single([&] { total = v; });
    });
    return total;
  }

  /// Team-aware form: per-rank partials land in a shared buffer, then
  /// every thread reduces them in rank order — all threads return the
  /// same sum.  Counts ONE allreduce.  Implies a barrier before the
  /// reduce (see the barrier rule above).
  template <class Body>
  double sum_over_chunks(const Team& team, const Kernels& kernels,
                         Body&& body) {
    record(team, kernels);
    double* partials = partials_of(team);
    team.for_range(0, nranks(), [&](std::int64_t r) {
      partials[r] = body(static_cast<int>(r), *chunks_[r]);
    });
    return reduce_team_partials(team);
  }

  [[nodiscard]] CommStats& stats() { return stats_; }
  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// The trace recorded since the last reset_trace (solve_batched resets it
  /// as a solve starts, keeping its capacity so a repeat solve records
  /// without allocating).  Inside a solve's region only its team's
  /// thread 0 may read it.
  [[nodiscard]] const SolveTrace& trace() const { return trace_; }
  void reset_trace() {
    trace_.kernels.clear();
    trace_.exchanges.clear();
    trace_.reductions = {};
    phase_ = Phase::kSetup;
  }
  /// The phase the following collectives record into (thread 0 of
  /// `team` sets it; the standalone form is for code outside a region).
  void set_phase(const Team& team, Phase phase) {
    if (team.thread_id() == 0) phase_ = phase;
  }
  void set_phase(Phase phase) { phase_ = phase; }

 private:
  /// Run `body(rank)` for every rank in one region, on the thread that
  /// owns the rank, catching as the standalone for_each_chunk does (the
  /// constructor builds the chunks through it).
  void for_each_rank(const Kernels& kernels,
                     const std::function<void(int)>& body);
  /// Throw the TeaError an allocation that ran out of memory becomes,
  /// naming the mesh and the rank count.
  [[noreturn]] void throw_out_of_memory() const;

  /// Element size the exchanges and sweeps run at: the fp32 bank's when
  /// the solve has it active.
  [[nodiscard]] int elem_bytes() const {
    return chunks_.front()->fp32_active() ? 4 : 8;
  }
  /// Count one launch of each of `kernels` (on thread 0).
  void record(const Team& team, const Kernels& kernels) {
    if (team.thread_id() != 0) return;
    for (const Kernel k : kernels) {
      trace_.add_kernel(phase_, k, kernels.ext(), elem_bytes());
    }
  }
  void count_reduction() {
    ++stats_.reductions;
    trace_.reductions[static_cast<std::size_t>(phase_)] += 1.0;
  }

  /// The buffer `team`'s next reduction deposits its per-rank partials
  /// in (pairs: pair_partials_of): one of two, by the team's reduction
  /// parity.
  double* partials_of(const Team& team) {
    return team_partials_.data() +
           static_cast<std::size_t>(team.reduction_parity()) * chunks_.size();
  }
  std::pair<double, double>* pair_partials_of(const Team& team) {
    return team_partials2_.data() +
           static_cast<std::size_t>(team.reduction_parity()) * chunks_.size();
  }

  /// Rank-ordered sum of the per-rank partials in partials_of(team)
  /// (pairs: pair_partials_of), returned on every thread.  Counts ONE
  /// allreduce.  Implies a barrier before the sum; the next reduction
  /// deposits in the other buffer, so none is needed after it.
  double reduce_team_partials(const Team& team) {
    team.barrier();
    const double* partials = partials_of(team);
    double total = 0.0;
    for (int r = 0; r < nranks(); ++r) total += partials[r];
    team.single([&] { count_reduction(); });
    team.flip_reduction_parity();
    return total;
  }
  std::pair<double, double> reduce_team_partials2(const Team& team) {
    team.barrier();
    const std::pair<double, double>* partials = pair_partials_of(team);
    double a = 0.0;
    double b = 0.0;
    for (int r = 0; r < nranks(); ++r) {
      a += partials[r].first;
      b += partials[r].second;
    }
    team.single([&] { count_reduction(); });
    team.flip_reduction_parity();
    return {a, b};
  }

  /// Run `fold(rank, chunk)` on the thread that owns each rank, after the
  /// tile pass at `tile_rows` that deposited the rows it reads: with no
  /// barrier when the tiles followed the ranks, after one otherwise.
  template <class Fold>
  void fold_rows(const Team& team, int tile_rows, Fold&& fold) {
    if (!tiles_follow_ranks(team, tile_rows)) team.barrier();
    team.for_range(0, nranks(), [&](std::int64_t r) {
      fold(static_cast<int>(r), *chunks_[static_cast<std::size_t>(r)]);
    });
  }

  /// Copy body of the axis phases: `rank`'s halo across `face`, from the
  /// neighbour's edge layers.  The per-face split is the unit of 2-D
  /// worksharing: when the team has more threads than ranks the phases
  /// workshare (rank, face) pairs instead of ranks, so the halo copies of
  /// a wide-and-shallow decomposition also use the whole team.
  void exchange_face(int rank, Face face, const FieldId* fields, int nfields,
                     int depth);

  GlobalMesh mesh_;
  Decomposition decomp_;
  int halo_depth_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  CommStats stats_;
  SolveTrace trace_;
  Phase phase_ = Phase::kSetup;
  /// Shared scratch for the Team-aware rank-ordered reductions: two
  /// buffers each (by reduction parity), one slot a rank.
  std::vector<double> team_partials_;
  std::vector<std::pair<double, double>> team_partials2_;
};

/// Compatibility spelling from before the dimension-generic core.
using SimCluster2D = SimCluster;

}  // namespace tealeaf
