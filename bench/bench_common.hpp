#pragma once

// Shared helpers for the figure-regeneration harnesses: measure a
// solver's real iteration structure on the crooked-pipe problem at a
// laptop-scale mesh, then hand it to the performance model for
// projection (DESIGN.md §2.2, EXPERIMENTS.md).

#include <cstdio>
#include <string>
#include <vector>

#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"

namespace tealeaf::bench {

/// A solver configuration on the paper's engine: untiled sweeps.  The
/// figure and ablation harnesses start from it, so their modelled curves
/// price the streaming sweeps the paper ran; the library default (auto
/// row tiles) would make the model take its blocked-bytes variant on
/// every machine with an L2.
inline SolverConfig paper_engine_config() {
  SolverConfig cfg;
  cfg.tile_rows = 0;
  return cfg;
}

/// Run one timestep of the crooked-pipe deck with the given solver
/// configuration and return the measured iteration structure.
inline SolverRunSummary measure_crooked_pipe(int mesh_n,
                                             const SolverConfig& solver,
                                             int ranks = 4) {
  InputDeck deck = decks::crooked_pipe(mesh_n, /*steps=*/1);
  deck.solver = solver;
  deck.solver.max_iters = 200000;
  TeaLeafApp app(deck, ranks);
  const SolveStats st = app.step();
  if (!st.converged) {
    std::fprintf(stderr, "warning: %s did not converge while measuring\n",
                 to_string(solver.type));
  }
  return SolverRunSummary::from(deck.solver, st, mesh_n);
}

/// The solver configurations of Figs. 5 & 6: CG plus PPCG at matrix-powers
/// halo depths 1/4/8/16.
inline std::vector<std::pair<std::string, SolverConfig>> cuda_fig_configs() {
  std::vector<std::pair<std::string, SolverConfig>> configs;
  SolverConfig cg = paper_engine_config();
  cg.type = SolverType::kCG;
  cg.eps = 1e-8;
  configs.emplace_back("CG - 1", cg);
  for (const int depth : {1, 4, 8, 16}) {
    SolverConfig pp = paper_engine_config();
    pp.type = SolverType::kPPCG;
    pp.eps = 1e-8;
    pp.inner_steps = 10;
    pp.halo_depth = depth;
    configs.emplace_back("PPCG - " + std::to_string(depth), pp);
  }
  return configs;
}

/// Standard node axis of the paper's figures (trimmed to `max_nodes`).
inline std::vector<int> node_axis(int max_nodes) {
  std::vector<int> nodes;
  for (int p = 1; p <= max_nodes; p *= 2) nodes.push_back(p);
  return nodes;
}

/// Print one scaling series as aligned rows (nodes, seconds).
inline void print_series(const std::vector<ScalingSeries>& series) {
  std::printf("%-8s", "nodes");
  for (const auto& s : series) std::printf(" %14s", s.label.c_str());
  std::printf("\n");
  if (series.empty()) return;
  for (std::size_t i = 0; i < series.front().points.size(); ++i) {
    std::printf("%-8d", series.front().points[i].nodes);
    for (const auto& s : series) std::printf(" %14.3f", s.points[i].seconds);
    std::printf("\n");
  }
}

/// Minimum-time point of a series (the "peak scaling" node count).
inline ScalingPoint best_point(const ScalingSeries& s) {
  ScalingPoint best = s.points.front();
  for (const auto& p : s.points)
    if (p.seconds < best.seconds) best = p;
  return best;
}

}  // namespace tealeaf::bench
