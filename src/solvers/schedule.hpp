#pragma once

#include "solvers/solver_config.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

/// Pick the execution schedule of one native solve from cfg.fuse_kernels
/// — the one place the solvers branch on it.  Every solver has one body,
/// `body(cfg, team)`, written against the nullable-Team collectives:
///  * unfused: `team == nullptr`, so each collective opens its own region
///    (the paper's baseline).  Tiling is a layer of the fused schedule,
///    so the body sees tile_rows = 0;
///  * fused: ONE hoisted parallel region around the whole solve, every
///    collective worksharing on the region's Team (row-tiled when
///    cfg.tile_rows > 0).
/// Both schedules run the same per-row arithmetic and record the same
/// CommStats, so iterates are bitwise identical across them.
template <class Body>
SolveStats run_scheduled(const SolverConfig& cfg, const Body& body) {
  if (!cfg.fuse_kernels) {
    SolverConfig unfused = cfg;
    unfused.tile_rows = 0;
    return body(unfused, nullptr);
  }
  SolveStats out;
  parallel_region([&](Team& t) {
    const SolveStats st = body(cfg, &t);
    t.single([&] { out = st; });
  });
  return out;
}

}  // namespace tealeaf
