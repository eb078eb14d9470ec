#include "model/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mesh/chunk.hpp"
#include "util/error.hpp"

namespace tealeaf {

std::vector<double> scaling_efficiency(const ScalingSeries& series) {
  std::vector<double> eff;
  eff.reserve(series.points.size());
  if (series.points.empty()) return eff;
  const double base =
      series.points.front().seconds * series.points.front().nodes;
  for (const ScalingPoint& p : series.points) {
    eff.push_back(base / (p.seconds * p.nodes));
  }
  return eff;
}

std::vector<double> relative_speedups(const std::vector<double>& seconds) {
  double best = 0.0;
  for (const double s : seconds) {
    if (s > 0.0 && (best == 0.0 || s < best)) best = s;
  }
  std::vector<double> speedups;
  speedups.reserve(seconds.size());
  for (const double s : seconds) {
    speedups.push_back(s > 0.0 && best > 0.0 ? best / s : 0.0);
  }
  return speedups;
}

ScalingSeries measured_series(std::string label,
                              const std::vector<ScalingPoint>& points) {
  ScalingSeries series;
  series.label = std::move(label);
  series.points = points;
  return series;
}

/// Per-node-count cost accumulator.  All recipes below mirror the solver
/// implementations sweep-for-sweep and exchange-for-exchange.
class ScalingModel::Cost {
 public:
  Cost(const MachineSpec& spec, const GlobalMesh& mesh, int nodes,
       int tile_rows = 0, double elem_scale = 1.0)
      : spec_(spec), nodes_(nodes), dims_(mesh.dims) {
    const long long want_ranks =
        static_cast<long long>(nodes) * spec.ranks_per_node;
    // The decomposition cannot exceed one cell per rank per axis; clamp
    // like a user would by leaving excess ranks idle (pure overhead).
    ranks_ = static_cast<int>(std::min<long long>(
        want_ranks, static_cast<long long>(mesh.nx) * mesh.ny * mesh.nz));
    const Decomposition decomp = Decomposition::create(ranks_, mesh);
    cnx_ = decomp.max_chunk_nx();
    cny_ = decomp.max_chunk_ny();
    cnz_ = decomp.max_chunk_nz();
    px_ = decomp.px();
    py_ = decomp.py();
    pz_ = decomp.pz();

    const double cells_per_node =
        static_cast<double>(cnx_) * cny_ * cnz_ * spec.ranks_per_node;
    // 2-D chunks do not allocate the kKz field (see Chunk's constructor).
    const int fields = (dims_ == 3) ? kNumFieldIds : kNumFieldIds - 1;
    const double working_set_bytes = cells_per_node * fields * 8.0;
    const bool in_cache = spec.cache_mb > 0.0 &&
                          working_set_bytes < spec.cache_mb * 1.0e6;
    // Each rank owns an equal share of the node's (possibly cache-boosted)
    // bandwidth.
    rank_bw_ = spec.mem_bw_gbs * 1.0e9 / spec.ranks_per_node;
    if (in_cache) rank_bw_ *= spec.cache_bw_mult;

    // Tiled execution engine (ROADMAP "cache blocking"): a row-block
    // whose working set fits the per-core L2 keeps a fused kernel's
    // intermediate field resident between its phases, so those sweeps
    // stream the blocked bytes/cell variant instead.  An `auto` height
    // (-1) resolves here, where the modelled chunk width is known —
    // mirroring what run_solver does with the real chunk.
    if (tile_rows < 0) tile_rows = auto_tile_rows(spec, cnx_, 2);
    if (tile_rows > 0 && spec.l2_kb > 0.0) {
      // fp32 solves stream 4-byte elements (elem_scale 0.5), so the same
      // row-block is half the bytes and fits L2 at twice the height.
      const double tile_bytes = static_cast<double>(tile_rows) * cnx_ *
                                kTileWorkingSetFields * 8.0 * elem_scale;
      blocked_ = tile_bytes <= spec.l2_kb * 1024.0;
    }
  }

  /// Scale every subsequent sweep's and exchange's byte volume: 1.0 for
  /// fp64 phases, 0.5 while the solve streams the fp32 bank.  Launch and
  /// α latencies are element-size independent and stay unscaled.
  void set_byte_scale(double s) { scale_ = s; }

  /// One kernel sweep over every cell (with `ext` halo extension — in z
  /// too for 3-D meshes, mirroring extended_bounds).
  void sweep(double bytes_per_cell, int ext = 0) {
    const double cells = static_cast<double>(cnx_ + 2 * ext) *
                         (cny_ + 2 * ext) *
                         (dims_ == 3 ? cnz_ + 2 * ext : cnz_);
    seconds_ += spec_.kernel_launch_us * 1.0e-6 +
                cells * bytes_per_cell * scale_ / rank_bw_;
  }

  /// A sweep with a blocked-cache bytes/cell variant: `blocked_bytes`
  /// applies when the configured row-block fits in L2, `streaming_bytes`
  /// otherwise (untiled, or tiles too tall for the cache).
  void sweep_blocked(double streaming_bytes, double blocked_bytes,
                     int ext = 0) {
    sweep(blocked_ ? blocked_bytes : streaming_bytes, ext);
  }

  /// One halo exchange of `nfields` fields at `depth` (one phase per
  /// mesh axis).  Models the critical-path rank: an interior rank when
  /// the process grid has one, else the boundary rank.  Later phases
  /// carry only the earlier-phase halo strips that hold neighbour data
  /// (consistent with SimCluster's accounting): p >= 3 along an axis
  /// gives both corner strips, p == 2 one, p == 1 none — and a phase
  /// with no neighbours along its axis costs nothing.  3-D meshes add
  /// the z phase with face-area payloads.
  void exchange(int depth, int nfields) {
    const double bx = static_cast<double>(depth) * cny_ * cnz_ * 8.0 *
                      scale_ * nfields;
    const int xcorners = std::min(px_ - 1, 2);
    const double row_len = cnx_ + static_cast<double>(xcorners) * depth;
    const double by =
        static_cast<double>(depth) * row_len * cnz_ * 8.0 * scale_ * nfields;
    const int ycorners = std::min(py_ - 1, 2);
    const double col_len = cny_ + static_cast<double>(ycorners) * depth;
    const double bz =
        static_cast<double>(depth) * row_len * col_len * 8.0 * scale_ *
        nfields;
    for (const auto& [active, bytes] :
         {std::pair{px_ > 1, bx}, std::pair{py_ > 1, by},
          std::pair{dims_ == 3 && pz_ > 1, bz}}) {
      if (!active) continue;
      // Pack + unpack both directions through node memory.
      seconds_ += 4.0 * bytes / rank_bw_;
      if (spec_.is_gpu) {
        seconds_ += 2.0 * spec_.kernel_launch_us * 1.0e-6;  // pack/unpack
        seconds_ += 2.0 * bytes / (spec_.stage_bw_gbs * 1.0e9) +
                    2.0 * spec_.stage_lat_us * 1.0e-6;
      }
      // Left/right (or up/down) sends overlap; flat MPI pays extra
      // per-message software latency for the ranks sharing a node edge.
      const double alpha_factor =
          std::sqrt(static_cast<double>(spec_.ranks_per_node));
      seconds_ += spec_.net_alpha_us * 1.0e-6 * alpha_factor +
                  bytes / (spec_.net_bw_gbs * 1.0e9);
    }
  }

  /// One global allreduce over all ranks.
  void reduce() {
    const double hops = std::ceil(
        std::log2(std::max(2.0, static_cast<double>(ranks_))));
    seconds_ += 2.0 * hops * spec_.reduce_alpha_us * 1.0e-6;
    if (spec_.is_gpu) {
      // Device-side partial reduction + result staging.
      seconds_ += spec_.kernel_launch_us * 1.0e-6 +
                  spec_.stage_lat_us * 1.0e-6;
    }
  }

  /// Add a raw cost (used by the AMG model's coarse-graph latency term).
  void add_seconds(double s) { seconds_ += s; }

  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] int cnx() const { return cnx_; }
  [[nodiscard]] int cny() const { return cny_; }

 private:
  const MachineSpec& spec_;
  int nodes_;
  int dims_ = 2;
  int ranks_ = 1;
  int cnx_ = 1;
  int cny_ = 1;
  int cnz_ = 1;
  int px_ = 1;
  int py_ = 1;
  int pz_ = 1;
  double rank_bw_ = 1.0;
  double scale_ = 1.0;
  double seconds_ = 0.0;
  bool blocked_ = false;
};

ScalingModel::ScalingModel(MachineSpec spec, GlobalMesh2D mesh,
                           int timesteps)
    : spec_(std::move(spec)), mesh_(mesh), timesteps_(timesteps) {
  TEA_REQUIRE(timesteps >= 1, "need at least one timestep");
}

namespace {

// Bytes per cell per kernel sweep (8-byte doubles; neighbour reads of the
// same field amortise through cache).  Keep in sync with ops/kernels.
// The constants are the 2-D (5-point) figures; sweeps that read the face
// coefficients add one more 8-byte field (Kz) per cell under the 3-D
// 7-point stencil — the `kface` term in run_seconds.
constexpr double kBytesSmvp = 32.0;       // p, w, kx, ky
constexpr double kBytesResidual = 48.0;   // u, u0, w, r, kx, ky
constexpr double kBytesCalcUr = 48.0;     // u, r rw; p, w reads
constexpr double kBytesXpby = 24.0;       // p rw; z read
constexpr double kBytesCopy = 16.0;
constexpr double kBytesDot = 16.0;
constexpr double kBytesDiagApply = 32.0;  // r, z, kx, ky
constexpr double kBytesBlockApply = 40.0; // src, dst, ky, cp, bfp
constexpr double kBytesChebyInit = 16.0;  // res, dir (+16 with diag)
constexpr double kBytesChebyFused = 56.0; // res rw, w, dir rw, acc rw
constexpr double kBytesJacobi = 56.0;     // copy sweep + main sweep

// Blocked-cache variants (tiled execution engine): when the row-block
// fits in the per-core L2 the intermediate field of the fused sweep —
// w between the stencil and update phases of cheby_step_tile, the old-iterate
// copy between Jacobi's save and update phases — never round-trips DRAM,
// saving its 16 bytes/cell of write+read traffic.
constexpr double kBytesChebyFusedBlocked = 40.0;
constexpr double kBytesJacobiBlocked = 40.0;

}  // namespace

double ScalingModel::run_seconds(const SolverRunSummary& run,
                                 int nodes) const {
  // Reduced-precision solves stream 4-byte elements through every
  // solver-phase sweep and exchange — the mixed-precision layer's whole
  // bandwidth case.  The per-step field setup, the fp64 refinement guard
  // and the energy recovery stay at full width.
  const double fscale = run.precision == Precision::kDouble ? 1.0 : 0.5;
  Cost cost(spec_, mesh_, nodes, run.tile_rows, fscale);
  const bool diag = run.precon == PreconType::kJacobiDiag;
  const bool block = run.precon == PreconType::kJacobiBlock;
  // 7-point stencil sweeps stream the extra Kz face-coefficient field.
  const double kface = (mesh_.dims == 3) ? 8.0 : 0.0;
  // Assembled operators (nnz_per_row > 0) stream the stored row — 8-byte
  // value + 8-byte column index per entry — plus the source read and
  // destination write, instead of the stencil's fixed coefficient fields.
  const double bytes_smvp = run.nnz_per_row > 0.0
                                ? 16.0 * run.nnz_per_row + 16.0
                                : kBytesSmvp + kface;
  const double precon_bytes =
      block ? kBytesBlockApply : kBytesDiagApply + kface;
  const double diag_extra = diag ? 16.0 + kface : 0.0;

  // --- per-timestep field setup (driver): exchange materials at full
  // halo depth + u/u0 init + conduction build.
  cost.exchange(std::max(2, run.halo_depth), 2);
  cost.sweep(32.0);  // init_u_u0: density, energy, u, u0
  cost.sweep(24.0 + kface);  // init_conduction: density read, face writes

  // --- solver setup: exchange(u,1); residual (+ precon init/apply) ------
  cost.set_byte_scale(fscale);
  cost.exchange(1, 1);
  cost.sweep(kBytesResidual + kface);
  if (block) cost.sweep(40.0 + kface);  // block_jacobi_init
  if (diag || block) {
    cost.sweep(precon_bytes);
    cost.sweep(kBytesCopy);  // p = z
  } else {
    cost.sweep(kBytesCopy);  // p = r (dot fused in residual sweep)
  }
  cost.reduce();

  const auto cg_iteration = [&] {
    cost.exchange(1, 1);
    cost.sweep(bytes_smvp);
    cost.reduce();  // pw
    cost.sweep(kBytesCalcUr);
    if (diag || block) cost.sweep(precon_bytes);
    cost.reduce();  // rrn (dot fused with the precon/update sweep)
    cost.sweep(kBytesXpby);
  };

  switch (run.type) {
    case SolverType::kJacobi: {
      for (int i = 0; i < run.outer_iters; ++i) {
        cost.exchange(1, 1);
        cost.sweep_blocked(kBytesJacobi + kface, kBytesJacobiBlocked + kface);
        cost.reduce();
      }
      break;
    }
    case SolverType::kCG: {
      if (run.fused_cg) {
        // Chronopoulos-Gear: z = M⁻¹r, exchange(z), w = A·z with both
        // dots fused into one reduction, then the paired vector updates.
        const auto fused_iteration = [&] {
          cost.sweep(24.0);  // u += αp
          cost.sweep(24.0);  // r −= αs
          cost.sweep(precon_bytes);
          cost.exchange(1, 1);
          cost.sweep(bytes_smvp + 16.0);  // A·z with fused dots
          cost.reduce();
          cost.sweep(kBytesXpby);  // p update
          cost.sweep(kBytesXpby);  // s update
        };
        for (int i = 0; i < run.outer_iters; ++i) fused_iteration();
        break;
      }
      for (int i = 0; i < run.outer_iters; ++i) cg_iteration();
      break;
    }
    case SolverType::kChebyshev: {
      cost.reduce();  // ‖r‖² baseline
      for (int i = 0; i < run.eigen_cg_iters; ++i) cg_iteration();
      cost.sweep(kBytesChebyInit + diag_extra);  // bootstrap
      for (int i = 0; i < run.outer_iters; ++i) {
        cost.exchange(1, 1);
        cost.sweep(bytes_smvp);
        cost.sweep_blocked(kBytesChebyFused + diag_extra,
                           kBytesChebyFusedBlocked + diag_extra);
        if ((i + 1) % run.cheby_check_interval == 0) cost.reduce();
      }
      break;
    }
    case SolverType::kPPCG: {
      for (int i = 0; i < run.eigen_cg_iters; ++i) cg_iteration();
      const int d = run.halo_depth;
      const auto apply_inner = [&] {
        cost.sweep(kBytesCopy);  // rtemp = r
        if (d > 1) cost.exchange(d, 1);
        int ext = d - 1;
        cost.sweep(kBytesChebyInit + diag_extra, ext);
        cost.sweep(kBytesCopy, ext);  // z = sd
        for (int s = 1; s <= run.inner_steps; ++s) {
          if (ext == 0) {
            cost.exchange(d, d == 1 ? 1 : 2);
            ext = d;
          }
          --ext;
          cost.sweep(bytes_smvp, ext);
          if (block) {
            cost.sweep(24.0, ext);        // rtemp -= w
            cost.sweep(kBytesBlockApply); // block solve (interior only)
            cost.sweep(24.0, ext);        // sd update
            cost.sweep(24.0, ext);        // z += sd
          } else {
            cost.sweep_blocked(kBytesChebyFused + diag_extra,
                               kBytesChebyFusedBlocked + diag_extra, ext);
          }
        }
      };
      apply_inner();
      cost.sweep(kBytesDot);
      cost.reduce();  // rro
      cost.sweep(kBytesCopy);  // p = z
      for (int i = 0; i < run.outer_iters; ++i) {
        cost.exchange(1, 1);
        cost.sweep(bytes_smvp);
        cost.reduce();  // pw
        cost.sweep(kBytesCalcUr);
        apply_inner();
        cost.sweep(kBytesDot);
        cost.reduce();  // rrn
        cost.sweep(kBytesXpby);
      }
      break;
    }
  }

  cost.set_byte_scale(1.0);

  if (run.precision != Precision::kDouble) {
    // One-time fp32 operator build: downcast each face-coefficient field
    // (8-byte read + 4-byte write per cell).
    cost.sweep(12.0 * (mesh_.dims == 3 ? 3.0 : 2.0));
  }
  if (run.precision == Precision::kSingle) {
    cost.sweep(28.0);  // clear the fp32 workspace (7 field writes)
    cost.sweep(24.0);  // downcast u and u0 into the fp32 bank
    cost.sweep(12.0);  // upcast the converged iterate (4r + 8w)
  }
  if (run.precision == Precision::kMixed) {
    // fp64-guarded iterative refinement: each inner solve clears the fp32
    // workspace, downcasts the fp64 residual into its right-hand side and
    // accumulates u += δ in fp64; each guard — the initial true residual
    // plus one after every inner solve — pays an fp64 u-exchange, the
    // residual sweep and its norm reduction.  Refinement passes beyond
    // the first also replay the fp32 solver setup (their iterations are
    // already inside the aggregated counts above).
    const int inner_solves = run.refine_steps + 1;
    for (int i = 0; i < inner_solves; ++i) {
      cost.sweep(28.0);  // clear the fp32 workspace
      cost.sweep(12.0);  // downcast the fp64 residual (8r + 4w)
      cost.sweep(20.0);  // u += δ in fp64 (u rw + 4-byte δ read)
    }
    for (int g = 0; g < inner_solves + 1; ++g) {
      cost.exchange(1, 1);
      cost.sweep(kBytesResidual + kface);
      cost.reduce();
    }
    cost.set_byte_scale(fscale);
    for (int i = 0; i < run.refine_steps; ++i) {
      cost.exchange(1, 1);
      cost.sweep(kBytesResidual + kface);
      cost.sweep(kBytesCopy);  // p = z / p = r
      cost.reduce();
    }
    cost.set_byte_scale(1.0);
  }

  // Energy recovery sweep at the end of the step.
  cost.sweep(24.0);
  return cost.seconds() * timesteps_;
}

ScalingSeries ScalingModel::sweep(const SolverRunSummary& run,
                                  const std::string& label,
                                  const std::vector<int>& node_counts) const {
  ScalingSeries series;
  series.label = label;
  for (const int n : node_counts) {
    series.points.push_back({n, run_seconds(run, n)});
  }
  return series;
}

double ScalingModel::amg_run_seconds(int pcg_iters, int nodes,
                                     double setup_vcycles) const {
  Cost cost(spec_, mesh_, nodes);
  const bool is3d = mesh_.dims == 3;
  // 7-point sweeps stream the extra Kz face-coefficient field, exactly
  // as run_seconds prices the native solvers.
  const double kface = is3d ? 8.0 : 0.0;

  // Per-step field setup, as for the native solvers.
  cost.exchange(2, 2);
  cost.sweep(32.0);
  cost.sweep(24.0 + kface);

  // One V-cycle across the level hierarchy.  Level extents follow the
  // per-axis multigrid coarsening in amg/multigrid.cpp (each axis halves
  // while above the coarse floor, so 3-D levels shrink 8× per coarsening
  // against 4× in 2-D); per level the smoothers, residual and transfer
  // each cost a sweep plus a halo exchange.  Two effects make the
  // baseline flatten early (paper §VIII):
  //  * message payloads shrink with the level, so coarse levels are pure
  //    latency;
  //  * AMG coarse-grid operators densify (Galerkin RAP stencil growth),
  //    so the number of neighbours — and hence α-costs per exchange —
  //    grows with depth.  This is the well-documented "coarse-grid
  //    communication problem" of parallel AMG; in 3-D the graph densifies
  //    8× per coarsening (one factor 2 per axis), so the coarse-level
  //    latency wall arrives one to two levels sooner.
  const double vcycle = [&] {
    Cost vc(spec_, mesh_, nodes);
    const double total_ranks =
        static_cast<double>(nodes) * spec_.ranks_per_node;
    int nx = mesh_.nx;
    int ny = mesh_.ny;
    int nz = is3d ? mesh_.nz : 1;
    const double full = static_cast<double>(mesh_.nx) * mesh_.ny *
                        (is3d ? mesh_.nz : 1);
    const double densify = is3d ? 8.0 : 4.0;
    int level = 0;
    while (nx > 4 || ny > 4 || (is3d && nz > 4)) {
      const double level_cells =
          static_cast<double>(nx) * ny * nz;  // per-axis extents
      const double frac = level_cells / full;  // level/fine cell ratio
      const double active_ranks = std::min(total_ranks, level_cells);
      const double graph_neighbors =
          std::min(active_ranks, std::pow(densify, level));
      const double level_alpha_s =
          2.0 * graph_neighbors * spec_.net_alpha_us * 1.0e-6;
      // 2 pre + 2 post smooths (copy + update each), residual, restrict,
      // prolong: scale the sweep cost by the level's relative size.  The
      // smoother/residual stencils stream Kz on 3-D levels; the transfer
      // operators are coefficient-free but the 3-D restriction gathers
      // 8 children per coarse cell (vs 4) and the prolongation reads the
      // parent across 8 fine cells, amortising to one extra byte/cell.
      for (int s = 0; s < 4; ++s) {
        vc.sweep(16.0 * frac);
        vc.sweep((40.0 + kface) * frac);
        vc.exchange(1, 1);  // halo for the next simultaneous sweep
      }
      vc.sweep((32.0 + kface) * frac);  // residual
      vc.exchange(1, 1);
      vc.sweep((is3d ? 9.0 : 8.0) * frac);    // restriction
      vc.sweep((is3d ? 17.0 : 16.0) * frac);  // prolongation + correction
      vc.exchange(1, 1);
      vc.add_seconds(level_alpha_s);
      if (nx > 4) nx = (nx + 1) / 2;
      if (ny > 4) ny = (ny + 1) / 2;
      if (is3d && nz > 4) nz = (nz + 1) / 2;
      ++level;
    }
    return vc.seconds();
  }();

  double seconds = cost.seconds();
  seconds += setup_vcycles * vcycle;  // AMG setup (per step: fresh matrix)
  for (int i = 0; i < pcg_iters; ++i) {
    Cost it(spec_, mesh_, nodes);
    it.exchange(1, 1);
    it.sweep(kBytesSmvp + kface);
    it.reduce();
    it.sweep(kBytesCalcUr);
    it.reduce();
    it.sweep(kBytesXpby);
    seconds += it.seconds() + vcycle;
  }
  return seconds * timesteps_;
}

ScalingSeries ScalingModel::amg_sweep(int pcg_iters, const std::string& label,
                                      const std::vector<int>& node_counts,
                                      double setup_vcycles) const {
  ScalingSeries series;
  series.label = label;
  for (const int n : node_counts) {
    series.points.push_back({n, amg_run_seconds(pcg_iters, n, setup_vcycles)});
  }
  return series;
}

}  // namespace tealeaf
