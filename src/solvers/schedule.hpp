#pragma once

#include "solvers/solver_config.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

/// Run one native solve as ONE parallel region around the whole solve:
/// `body(team)` is the solver body, every collective of which workshares
/// on the region's Team (row-tiled at the config's tile_rows).  The
/// body returns identical stats on every thread; thread 0's are returned.
/// Exceptions must not escape `body` (see parallel_region), so callers
/// validate the config first and the bodies report breakdown in the
/// stats.
template <class Body>
SolveStats solve_in_region(const Body& body) {
  SolveStats out;
  parallel_region([&](Team& t) {
    const SolveStats st = body(t);
    t.single([&] { out = st; });
  });
  return out;
}

}  // namespace tealeaf
