#pragma once

#include <string>
#include <vector>

#include "mesh/decomposition.hpp"
#include "model/machine.hpp"
#include "model/trace.hpp"

namespace tealeaf {

/// One point of a strong-scaling curve.
struct ScalingPoint {
  int nodes = 0;
  double seconds = 0.0;
};

/// A labelled curve, e.g. "PPCG - 16" on Titan (Figs. 5-7).
struct ScalingSeries {
  std::string label;
  std::vector<ScalingPoint> points;
};

/// Strong-scaling efficiency per point relative to the first point of the
/// series: eff(P) = T(P₀)·P₀ / (T(P)·P)  (Fig. 8; > 1 means super-linear).
[[nodiscard]] std::vector<double> scaling_efficiency(
    const ScalingSeries& series);

/// Cross-run speedups for a set of measured times (the design-space
/// sweep's ranking axis): speedup[i] = min(seconds) / seconds[i], so the
/// fastest run scores 1 and everything else < 1.  Non-positive entries
/// (failed runs) score 0.
[[nodiscard]] std::vector<double> relative_speedups(
    const std::vector<double>& seconds);

/// Wrap per-thread-count (or per-node) sweep measurements as a
/// ScalingSeries so scaling_efficiency applies to measured data too.
[[nodiscard]] ScalingSeries measured_series(
    std::string label, const std::vector<ScalingPoint>& points);

/// Projects a measured solver run onto a modelled machine across node
/// counts (docs/architecture.md, "Performance model").  It prices the
/// run's own trace — the kernel launches, halo exchanges and allreduces
/// the solve recorded — at the decomposition of each node count: kernel
/// cost is memory-bandwidth bound (each kernel's traffic as declared in
/// ops/kernels.hpp) with a per-launch overhead and an LLC capacity boost
/// (CPU); halo exchanges pay pack/unpack memory traffic, optional PCIe
/// staging and an α-β wire cost; allreduces pay a per-hop latency over a
/// binary tree of the ranks.  It keeps no description of the solvers.
class ScalingModel {
 public:
  ScalingModel(MachineSpec spec, GlobalMesh2D mesh, int timesteps);

  /// Modelled wall-clock of the full run on `nodes` nodes: timesteps ×
  /// (the driver's per-step field set-up and energy recovery + the run's
  /// trace).
  [[nodiscard]] double run_seconds(const SolverRunSummary& run,
                                   int nodes) const;

  [[nodiscard]] ScalingSeries sweep(const SolverRunSummary& run,
                                    const std::string& label,
                                    const std::vector<int>& node_counts) const;

  /// The BoomerAMG-substitute baseline (Fig. 7): MG-preconditioned CG
  /// with `pcg_iters` iterations per solve and a per-step setup cost of
  /// `setup_vcycles` V-cycle equivalents (AMG setup is expensive —
  /// paper §VIII).
  [[nodiscard]] double amg_run_seconds(int pcg_iters, int nodes,
                                       double setup_vcycles = 25.0) const;

  [[nodiscard]] ScalingSeries amg_sweep(int pcg_iters,
                                        const std::string& label,
                                        const std::vector<int>& node_counts,
                                        double setup_vcycles = 25.0) const;


 private:
  /// Ranks on `nodes` nodes, at most one per cell.
  [[nodiscard]] int ranks(int nodes) const;

  MachineSpec spec_;
  GlobalMesh2D mesh_;
  int timesteps_;
};

/// Seconds the communication of `trace` costs on `machine` with `mesh`
/// decomposed over `ranks` ranks: its halo exchanges and allreduces,
/// priced as run_seconds prices them (the sweep's comm_seconds).
[[nodiscard]] double comm_seconds(const SolveTrace& trace,
                                  const MachineSpec& machine,
                                  const GlobalMesh& mesh, int ranks);

}  // namespace tealeaf
