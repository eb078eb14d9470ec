#pragma once

#include <string>
#include <vector>

#include "driver/deck.hpp"
#include "io/json.hpp"
#include "model/machine.hpp"
#include "model/trace.hpp"

namespace tealeaf {

/// One resolved cell of the sweep cross-product.
struct SweepCase {
  std::string solver;  ///< "jacobi" | "cg" | "chebyshev" | "ppcg" | "mg-pcg"
  PreconType precon = PreconType::kNone;
  int halo_depth = 1;  ///< matrix-powers depth (PPCG)
  int mesh_n = 0;      ///< square mesh edge of this run
  int threads = 0;     ///< worker threads (0 = the mesh's team_width)
  int tile_rows = 0;   ///< engine row-block height (0 = untiled)
  int dims = 2;        ///< problem geometry: 2 (5-point) or 3 (7-point, n³)
  /// Operator representation: "stencil" | "csr"
  /// (SolverConfig::op — the ninth design-space axis).
  std::string op = "stencil";
  /// Storage precision: "double" | "single" | "mixed"
  /// (SolverConfig::precision — the tenth design-space axis).
  std::string precision = "double";

  /// Compact identifier, e.g. "ppcg/jac_diag/d4/n64/t2/fused" (every cell
  /// runs the fused schedule; tiled cells add "/b<rows>", 3-D cells
  /// "/3d", assembled-operator cells "/csr",
  /// reduced-precision cells "/f32" or "/mixed").
  [[nodiscard]] std::string label() const;
};

/// Measured outcome of one sweep cell.
struct SweepOutcome {
  SweepCase config;

  /// Cells whose combination the solver contract rejects (e.g.
  /// block-Jacobi × matrix-powers depth > 1) are enumerated but skipped,
  /// keeping the cross-product complete in the result table.
  bool skipped = false;
  std::string skip_reason;

  /// Non-empty when the run failed mid-solve (numerical breakdown or a
  /// thrown solver error): the row is recorded as failed — converged
  /// stays false — and the sweep continues with the next cell instead of
  /// aborting the cross-product.  Like skip_reason, carried by the JSON
  /// form only (the CSV status column reduces it to "failed").
  std::string fail_reason;

  bool converged = false;
  int iterations = 0;            ///< outer iterations over all steps
  long long inner_steps = 0;     ///< PPCG inner Chebyshev steps
  long long spmv = 0;            ///< operator applications
  long long reductions = 0;      ///< global allreduces issued
  long long exchanges = 0;       ///< halo-exchange calls issued
  long long messages = 0;        ///< point-to-point sends issued
  long long message_bytes = 0;   ///< total simulated payload bytes
  double final_norm = 0.0;       ///< final residual norm of the last solve
  /// Wall-clock of the solves, preconditioner set-up included.
  double solve_seconds = 0.0;
  double comm_seconds = 0.0;     ///< α-β modelled cost of the comm issued
};

/// The tidy result table of one design-space sweep: cells in deterministic
/// enumeration order plus ranking helpers and CSV/JSON serialisation.
/// The JSON form round-trips through from_json; it is the form programs
/// read back (RoutingTable, bench/check_sweep_smoke.py).  The CSV form is
/// write-only, for people and spreadsheets; it leaves out `skip_reason`
/// (free-text reasons may contain commas).
struct SweepReport {
  int ranks = 0;            ///< simulated ranks every cell ran on
  int steps = 0;            ///< timesteps every cell ran
  std::vector<SweepOutcome> cells;

  /// Indices of converged cells, fastest solve first (ties keep
  /// enumeration order).
  [[nodiscard]] std::vector<int> ranking() const;

  /// Index of the fastest converged cell, or -1 if none converged.
  [[nodiscard]] int best() const;

  /// Cross-run speedup per cell relative to the best (model/scaling's
  /// relative_speedups over solve_seconds; 0 for skipped/unconverged).
  [[nodiscard]] std::vector<double> speedups() const;

  [[nodiscard]] std::vector<std::string> to_csv_lines() const;
  void write_csv(const std::string& path) const;

  [[nodiscard]] io::JsonValue to_json() const;
  void write_json(const std::string& path) const;
  [[nodiscard]] static SweepReport from_json(const io::JsonValue& doc);
  [[nodiscard]] static SweepReport from_json_string(const std::string& text);
};

/// Expand the axes into the full cross-product in deterministic order:
/// solvers → preconditioners → halo depths → mesh sizes → threads →
/// tile rows → geometries → operators → precision,
/// each axis in its declared order (precision entries are canonicalised,
/// so "fp32" enumerates as "single").
/// `base_mesh` substitutes for an empty mesh-size axis and `base_dims`
/// for an empty geometry axis (so sweeping a 3-D deck stays 3-D unless
/// the deck asks for the cross-dimension comparison).
[[nodiscard]] std::vector<SweepCase> enumerate_cases(const SweepSpec& spec,
                                                     int base_mesh,
                                                     int base_dims = 2);

struct SweepOptions {
  int steps = 1;       ///< timesteps per cell (0 = the base deck's count)
  bool echo = false;   ///< print one progress line per cell
  /// Machine on which the model prices each cell's recorded
  /// communication into `comm_seconds` (simulated-comm time).
  MachineSpec machine = machines::spruce_hybrid();
};

/// Run the full cross-product of `spec` over the base deck, one
/// TeaLeaf run per cell, collecting per-run statistics.
[[nodiscard]] SweepReport run_sweep(const InputDeck& base,
                                    const SweepSpec& spec,
                                    const SweepOptions& opts = {});

/// The run summary of `cfg` where no measured trace exists (an unseen
/// mesh, another halo depth), for callers to hold at a measured count
/// (with_outer_iters) and mesh_n: a solve of `cfg` on a small `dims`-D
/// crooked pipe on one rank that runs every phase — the presteps, then
/// one check interval of Chebyshev steps or one main-loop iteration of
/// the other solvers (a mixed configuration runs them in one fp32 pass
/// between its fp64 guard residuals).
/// Throws TeaError if it leaves that course.
[[nodiscard]] SolverRunSummary fixed_iteration_run(const SolverConfig& cfg,
                                                   int dims);

/// Convenience: run the sweep the deck itself declares (`base.sweep`).
[[nodiscard]] SweepReport run_sweep(const InputDeck& base,
                                    const SweepOptions& opts = {});

}  // namespace tealeaf
