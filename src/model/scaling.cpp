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

namespace {

/// Cost accumulator at one decomposition: kernel sweeps are memory-
/// bandwidth bound with a per-launch overhead and an LLC capacity boost
/// (CPU); halo exchanges pay pack/unpack memory traffic, optional PCIe
/// staging and an α-β wire cost; allreduces pay a per-hop latency over a
/// binary tree of the ranks.
class Cost {
 public:
  Cost(const MachineSpec& spec, const GlobalMesh& mesh, int ranks,
       int tile_rows = 0)
      : spec_(spec), dims_(mesh.dims), ranks_(ranks) {
    const Decomposition decomp = Decomposition::create(ranks, mesh);
    cnx_ = decomp.max_chunk_nx();
    cny_ = decomp.max_chunk_ny();
    cnz_ = decomp.max_chunk_nz();
    px_ = decomp.px();
    py_ = decomp.py();
    pz_ = decomp.pz();

    const double cells_per_node =
        static_cast<double>(cnx_) * cny_ * cnz_ * spec.ranks_per_node;
    // The modelled machine runs upstream TeaLeaf, whose chunks hold every
    // field of its chunk_type whatever the solver: 15 in 2-D, and Kz in
    // 3-D.
    const int fields = (dims_ == 3) ? 16 : 15;
    const double working_set_bytes = cells_per_node * fields * 8.0;
    const bool in_cache = spec.cache_mb > 0.0 &&
                          working_set_bytes < spec.cache_mb * 1.0e6;
    // Each rank owns an equal share of the node's (possibly cache-boosted)
    // bandwidth.
    rank_bw_ = spec.mem_bw_gbs * 1.0e9 / spec.ranks_per_node;
    if (in_cache) rank_bw_ *= spec.cache_bw_mult;
    // An `auto` height (-1) resolves here, where the modelled chunk width
    // is known, as run_solver resolves it against the real chunk.
    tile_rows_ = tile_rows < 0 ? auto_tile_rows(spec, cnx_, 2) : tile_rows;
  }

  /// One sweep of `bytes_per_cell` over every cell of a chunk, extended
  /// `ext` cells into the halo on every face (in z too for 3-D meshes).
  void sweep(double bytes_per_cell, int ext = 0, double count = 1.0) {
    const double cells = static_cast<double>(cnx_ + 2 * ext) *
                         (cny_ + 2 * ext) *
                         (dims_ == 3 ? cnz_ + 2 * ext : cnz_);
    seconds_ += count * (spec_.kernel_launch_us * 1.0e-6 +
                         cells * bytes_per_cell / rank_bw_);
  }

  /// `count` launches of kernel `k` at `elem_bytes` per element: its
  /// declared traffic (ops/kernels.hpp), with the L2-blocked variant when
  /// a row-block of the tile height fits the per-core L2.
  void kernel(Kernel k, PreconType m, int ext, int elem_bytes, double count,
              double nnz_per_row) {
    const kernels::Traffic t = kernels::traffic(k, m);
    const double elem = elem_bytes;
    // Operator reads: the stencil's face-coefficient fields, or the stored
    // CSR row (value + 8-byte column offset per entry).
    const double op = nnz_per_row > 0.0 ? nnz_per_row * (elem + 8.0)
                                        : dims_ * elem;
    // M⁻¹'s own reads: the operator's diagonal, or block-Jacobi's three
    // strip factors (ky, cp, bfp).
    double precon = 0.0;
    if (m == PreconType::kJacobiDiag) precon = nnz_per_row > 0.0 ? elem : op;
    if (m == PreconType::kJacobiBlock) precon = 3.0 * elem;
    const double fields =
        t.reads + t.writes - (blocked(elem_bytes) ? t.blocked : 0.0);
    sweep(fields * elem + t.op * op + t.precon * precon, ext, count);
  }

  /// `count` halo exchanges of `nfields` fields at `depth` (one phase per
  /// mesh axis).  Models the critical-path rank: an interior rank when
  /// the process grid has one, else the boundary rank.  Later phases
  /// carry only the earlier-phase halo strips that hold neighbour data
  /// (as exchange_counts does): p >= 3 along an axis gives both corner
  /// strips, p == 2 one, p == 1 none — and a phase with no neighbours
  /// along its axis costs nothing.  3-D meshes add the z phase with
  /// face-area payloads.
  void exchange(int depth, int nfields, int elem_bytes, double count = 1.0) {
    const double unit = static_cast<double>(depth) * elem_bytes * nfields;
    const double bx = unit * cny_ * cnz_;
    const int xcorners = std::min(px_ - 1, 2);
    const double row_len = cnx_ + static_cast<double>(xcorners) * depth;
    const double by = unit * row_len * cnz_;
    const int ycorners = std::min(py_ - 1, 2);
    const double col_len = cny_ + static_cast<double>(ycorners) * depth;
    const double bz = unit * row_len * col_len;
    double seconds = 0.0;
    for (const auto& [active, bytes] :
         {std::pair{px_ > 1, bx}, std::pair{py_ > 1, by},
          std::pair{dims_ == 3 && pz_ > 1, bz}}) {
      if (!active) continue;
      // Pack + unpack both directions through node memory.
      seconds += 4.0 * bytes / rank_bw_;
      if (spec_.is_gpu) {
        seconds += 2.0 * spec_.kernel_launch_us * 1.0e-6;  // pack/unpack
        seconds += 2.0 * bytes / (spec_.stage_bw_gbs * 1.0e9) +
                   2.0 * spec_.stage_lat_us * 1.0e-6;
      }
      // Left/right (or up/down) sends overlap; flat MPI pays extra
      // per-message software latency for the ranks sharing a node edge.
      const double alpha_factor =
          std::sqrt(static_cast<double>(spec_.ranks_per_node));
      seconds += spec_.net_alpha_us * 1.0e-6 * alpha_factor +
                 bytes / (spec_.net_bw_gbs * 1.0e9);
    }
    seconds_ += count * seconds;
  }

  /// `count` global allreduces over all ranks.  One rank crosses no
  /// network; a GPU still pays its device-side partial reduction and the
  /// result staging.
  void reduce(double count = 1.0) {
    const double hops =
        ranks_ > 1 ? std::ceil(std::log2(static_cast<double>(ranks_))) : 0.0;
    double seconds = 2.0 * hops * spec_.reduce_alpha_us * 1.0e-6;
    if (spec_.is_gpu) {
      seconds += spec_.kernel_launch_us * 1.0e-6 + spec_.stage_lat_us * 1.0e-6;
    }
    seconds_ += count * seconds;
  }

  /// The communication a solve recorded: its exchanges and allreduces.
  void comm(const SolveTrace& trace) {
    for (const SolveTrace::ExchangeCount& e : trace.exchanges) {
      exchange(e.depth, e.fields, e.elem_bytes, e.count);
    }
    for (const double n : trace.reductions) reduce(n);
  }

  /// Everything a solve recorded: its kernel launches and communication.
  void solve(const SolveTrace& trace) {
    for (const SolveTrace::KernelCount& e : trace.kernels) {
      kernel(e.kernel, trace.precon, e.ext, e.elem_bytes, e.count,
             trace.nnz_per_row);
    }
    comm(trace);
  }

  /// Add a raw cost (used by the AMG model's coarse-graph latency term).
  void add_seconds(double s) { seconds_ += s; }

  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  /// True when a row-block of the tile height, at `elem_bytes` per
  /// element, fits the per-core L2 (fp32 fits twice the rows).
  [[nodiscard]] bool blocked(int elem_bytes) const {
    return tile_rows_ > 0 && spec_.l2_kb > 0.0 &&
           static_cast<double>(tile_rows_) * cnx_ * kTileWorkingSetFields *
                   elem_bytes <=
               spec_.l2_kb * 1024.0;
  }

  const MachineSpec& spec_;
  int dims_ = 2;
  int ranks_ = 1;
  int tile_rows_ = 0;
  int cnx_ = 1;
  int cny_ = 1;
  int cnz_ = 1;
  int px_ = 1;
  int py_ = 1;
  int pz_ = 1;
  double rank_bw_ = 1.0;
  double seconds_ = 0.0;
};

}  // namespace

ScalingModel::ScalingModel(MachineSpec spec, GlobalMesh2D mesh,
                           int timesteps)
    : spec_(std::move(spec)), mesh_(mesh), timesteps_(timesteps) {
  TEA_REQUIRE(timesteps >= 1, "need at least one timestep");
}

int ScalingModel::ranks(int nodes) const {
  // The decomposition cannot exceed one cell per rank per axis; clamp
  // like a user would by leaving excess ranks idle (pure overhead).
  return static_cast<int>(std::min<long long>(
      static_cast<long long>(nodes) * spec_.ranks_per_node,
      static_cast<long long>(mesh_.nx) * mesh_.ny * mesh_.nz));
}

double ScalingModel::run_seconds(const SolverRunSummary& run,
                                 int nodes) const {
  Cost cost(spec_, mesh_, ranks(nodes), run.tile_rows);
  // The driver's per-step term: materials exchanged at full halo depth,
  // u/u0 initialised (density, energy → u, u0), the face coefficients
  // built from density (one more field under the 7-point stencil) and,
  // after the solve, the energy recovered from u.
  cost.exchange(std::max(2, run.halo_depth), 2, 8);
  cost.sweep(32.0);
  cost.sweep(mesh_.dims == 3 ? 32.0 : 24.0);
  cost.solve(run.trace);
  cost.sweep(24.0);
  return cost.seconds() * timesteps_;
}

double comm_seconds(const SolveTrace& trace, const MachineSpec& machine,
                    const GlobalMesh& mesh, int ranks) {
  Cost cost(machine, mesh, ranks);
  cost.comm(trace);
  return cost.seconds();
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
  Cost cost(spec_, mesh_, ranks(nodes));
  const bool is3d = mesh_.dims == 3;
  // 7-point sweeps stream the extra Kz face-coefficient field.
  const double kface = is3d ? 8.0 : 0.0;

  // Per-step field setup, as for the native solvers.
  cost.exchange(2, 2, 8);
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
    Cost vc(spec_, mesh_, ranks(nodes));
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
        vc.exchange(1, 1, 8);  // halo for the next simultaneous sweep
      }
      vc.sweep((32.0 + kface) * frac);  // residual
      vc.exchange(1, 1, 8);
      vc.sweep((is3d ? 9.0 : 8.0) * frac);    // restriction
      vc.sweep((is3d ? 17.0 : 16.0) * frac);  // prolongation + correction
      vc.exchange(1, 1, 8);
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
  // Each PCG iteration: the p exchange, A·p, two allreduces, the u/r
  // update and the direction update around one V-cycle.
  for (int i = 0; i < pcg_iters; ++i) {
    Cost it(spec_, mesh_, ranks(nodes));
    it.exchange(1, 1, 8);
    for (const Kernel k : {Kernel::kSmvp, Kernel::kCalcUr, Kernel::kXpby}) {
      it.kernel(k, PreconType::kNone, 0, 8, 1.0, 0.0);
    }
    it.reduce(2.0);
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
