#pragma once

#include "comm/sim_comm.hpp"
#include "solvers/solver_config.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

/// Run one native solve as ONE parallel region of the cluster's
/// team_width around the whole solve: `body(team)` is the solver body,
/// every collective of which workshares on the region's Team (row-tiled
/// at the config's tile_rows).  The body returns identical stats on every
/// thread; thread 0's are returned.
/// Exceptions must not escape `body` (see parallel_region), so callers
/// validate the config first and the bodies report breakdown in the
/// stats.
///
/// A reduced-precision solve (the cluster's fp32 bank active) runs with
/// subnormals flushed to zero: every region thread holds a SubnormalFlush
/// around its body, because the FP control register is per thread and
/// the pool's workers would never see a mode set on the caller alone.
/// Each guard restores gradual underflow before the region joins, so
/// nothing outside an fp32 solve ever runs flushed.
template <class Body>
SolveStats solve_in_region(const SimCluster2D& cl, const Body& body) {
  const bool fp32 = cl.chunk(0).fp32_active();
  SolveStats out;
  parallel_region(cl.team_width(), [&](Team& t) {
    const SubnormalFlush flush(fp32);
    const SolveStats st = body(t);
    t.single([&] { out = st; });
  });
  return out;
}

}  // namespace tealeaf
