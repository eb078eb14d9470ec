#pragma once

#include <string>

namespace tealeaf {

/// Analytic description of one of the paper's test systems (Table I plus
/// public STREAM / interconnect characteristics).  This is the documented
/// substitution for the real hardware (docs/architecture.md, "Performance
/// model"): kernel time is memory-bandwidth bound with a fixed per-sweep
/// launch overhead, halo exchanges follow an α-β model with optional PCIe
/// staging, and global reductions cost a per-hop latency over a binary
/// tree.
struct MachineSpec {
  std::string name;
  bool is_gpu = false;

  /// Simulated MPI ranks per node: 1 for the CUDA and hybrid versions,
  /// one per core for flat MPI (paper §IV).
  int ranks_per_node = 1;

  // --- node compute ------------------------------------------------------
  double mem_bw_gbs = 100.0;     ///< effective streaming bandwidth per node
  double cache_mb = 0.0;         ///< last-level cache per node (0 = none)
  double cache_bw_mult = 1.0;    ///< bandwidth boost when resident in cache
  /// Private L2 per core (0 = not known).  Sizes `auto` tile heights
  /// (auto_tile_rows): a row-block whose working set fits here keeps a
  /// fused kernel's intermediate field out of DRAM.  A solve resolves
  /// `auto` against machines::host()'s, the cache it runs in; the scaling
  /// model resolves it against the modelled machine's, to price that
  /// machine's blocked-cache bytes/cell variant.
  double l2_kb = 0.0;
  double kernel_launch_us = 1.0; ///< fixed overhead per kernel sweep

  // --- device<->host staging (GPU halo path; 0 disables) ------------------
  double stage_bw_gbs = 0.0;
  double stage_lat_us = 0.0;

  // --- interconnect -------------------------------------------------------
  double net_alpha_us = 1.5;     ///< point-to-point latency
  double net_bw_gbs = 5.0;       ///< point-to-point bandwidth
  double reduce_alpha_us = 2.0;  ///< allreduce per-hop latency
};

namespace machines {

/// Titan (OLCF): NVIDIA K20x per node, Cray Gemini interconnect.
[[nodiscard]] MachineSpec titan();

/// Piz Daint (CSCS, pre-P100): NVIDIA K20x per node, Cray Aries.
[[nodiscard]] MachineSpec piz_daint();

/// Spruce (AWE): 2× Xeon E5-2680v2 per node, SGI ICE-X, hybrid MPI+OpenMP
/// (one rank per node, threads inside).
[[nodiscard]] MachineSpec spruce_hybrid();

/// Spruce running flat MPI: 20 ranks per node (one per core).
[[nodiscard]] MachineSpec spruce_mpi();

/// The machine this process runs on: one process-wide spec, read once.
/// Its l2_kb is the per-core L2 the OS reports
/// (`sysconf(_SC_LEVEL2_CACHE_SIZE)`), 0 where it reports none, so
/// auto_tile_rows falls back to 64 rows there.  Nothing else is measured:
/// the remaining fields keep their defaults, so host() sizes tiles and
/// prices nothing.  Allocates nothing after the first call.
[[nodiscard]] const MachineSpec& host();

}  // namespace machines

/// Number of double fields a fused sweep streams per row — the working-set
/// unit behind both auto tiling and the model's blocked-cache variant
/// (res/dir/acc/w plus the two face-coefficient fields).
inline constexpr int kTileWorkingSetFields = 6;

/// Derive the `auto` row-block height for SolverConfig::tile_rows = -1:
/// the number of halo-extended rows of kTileWorkingSetFields double fields
/// that fit in HALF the machine's per-core L2 (the other half is left to
/// the read-ahead of neighbouring rows and everything else that lives in
/// the cache).  Falls back to 64 rows when the machine has no known L2.
/// Always >= 1.
[[nodiscard]] int auto_tile_rows(const MachineSpec& machine, int chunk_nx,
                                 int halo_depth);

}  // namespace tealeaf
