#include "model/machine.hpp"

#include <algorithm>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

namespace tealeaf {

int auto_tile_rows(const MachineSpec& machine, int chunk_nx,
                   int halo_depth) {
  constexpr int kFallbackRows = 64;
  const int row_cells = chunk_nx + 2 * std::max(0, halo_depth);
  if (machine.l2_kb <= 0.0 || row_cells <= 0) return kFallbackRows;
  const double row_bytes =
      static_cast<double>(kTileWorkingSetFields) * 8.0 * row_cells;
  const double budget = machine.l2_kb * 1024.0 / 2.0;
  return std::clamp(static_cast<int>(budget / row_bytes), 1, 1 << 20);
}

}  // namespace tealeaf

namespace tealeaf::machines {

// Constants are calibrated once against the paper's headline numbers
// (docs/benchmarks.md checks the figures they produce against the
// paper's claims): K20x effective STREAM
// ~175 GB/s, kernel launch ~8 µs for that driver era, PCIe gen-2 staging
// ~5 GB/s.  Gemini has both higher latency and a much slower software
// allreduce than Aries — the cause of the 47 % Titan/Piz Daint gap the
// paper reports at 2,048 nodes.

MachineSpec titan() {
  MachineSpec m;
  m.name = "Titan (K20x, Gemini)";
  m.is_gpu = true;
  m.ranks_per_node = 1;
  m.mem_bw_gbs = 175.0;
  m.kernel_launch_us = 8.0;
  m.stage_bw_gbs = 5.0;
  m.stage_lat_us = 9.0;
  m.net_alpha_us = 3.5;
  m.net_bw_gbs = 3.2;
  m.reduce_alpha_us = 7.0;
  return m;
}

MachineSpec piz_daint() {
  MachineSpec m;
  m.name = "Piz Daint (K20x, Aries)";
  m.is_gpu = true;
  m.ranks_per_node = 1;
  m.mem_bw_gbs = 175.0;
  m.kernel_launch_us = 8.0;
  m.stage_bw_gbs = 5.5;
  m.stage_lat_us = 8.0;
  m.net_alpha_us = 1.4;
  m.net_bw_gbs = 9.0;
  m.reduce_alpha_us = 2.2;
  return m;
}

MachineSpec spruce_hybrid() {
  MachineSpec m;
  m.name = "Spruce (E5-2680v2, ICE-X) hybrid";
  m.is_gpu = false;
  m.ranks_per_node = 1;
  m.mem_bw_gbs = 80.0;
  m.cache_mb = 50.0;  // 2 sockets × 25 MB LLC
  m.cache_bw_mult = 3.0;
  m.l2_kb = 256.0;  // E5-2680v2: 256 KB private L2 per core
  m.kernel_launch_us = 1.8;  // OpenMP region fork/join + barrier
  m.net_alpha_us = 1.2;
  m.net_bw_gbs = 5.6;  // FDR InfiniBand
  m.reduce_alpha_us = 1.6;
  return m;
}

MachineSpec spruce_mpi() {
  MachineSpec m = spruce_hybrid();
  m.name = "Spruce (E5-2680v2, ICE-X) flat MPI";
  m.ranks_per_node = 20;  // one rank per core, 2 × 10-core sockets
  m.kernel_launch_us = 0.3;  // plain loop startup, no thread fork
  return m;
}

const MachineSpec& host() {
  static const MachineSpec spec = [] {
    MachineSpec m;
    m.name = "host";
#ifdef _SC_LEVEL2_CACHE_SIZE
    const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (bytes > 0) m.l2_kb = static_cast<double>(bytes) / 1024.0;
#endif
    return m;
  }();
  return spec;
}

}  // namespace tealeaf::machines
