// The paper's results from one program: Figs. 3-8, Table I and the
// ablations, written as named results to one JSON file and checked
// against the quantitative claims in bench/paper_claims.json.
//
// The modelled figures share one recipe: each solver configuration's
// iteration structure is measured once on the 96² crooked pipe,
// projected to the paper's 4000² mesh (iterations ∝ n) and priced on a
// machine model over the paper's node axis.  Figs. 3-4, Table I, the
// κ and iteration-bound ablations and the sweep-matrix ranking are
// measurements (or model constants) only.
//
// Run:  ./bench/paper_figures [--json paper_figures.json]
//           [--claims bench/paper_claims.json]
// Exits 1, naming each failed claim, when a claim does not hold.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/solve_api.hpp"
#include "comm/gather.hpp"
#include "driver/decks.hpp"
#include "driver/sweep.hpp"
#include "driver/tealeaf_app.hpp"
#include "io/json.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "solvers/cg.hpp"
#include "solvers/cheby_coef.hpp"
#include "solvers/solver.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"

namespace {

using namespace tealeaf;
using io::JsonValue;

constexpr int kMeasureMesh = 96;  ///< the pipe every config is measured on
constexpr int kRanks = 4;         ///< simulated ranks of those measurements
constexpr int kPaperMesh = 4000;  ///< the paper's 4000² study
constexpr int kTimesteps = 10;    ///< modelled timesteps per run
constexpr double kEps = 1e-8;

constexpr SolverType kCG = SolverType::kCG;
constexpr SolverType kPPCG = SolverType::kPPCG;
constexpr PreconType kNone = PreconType::kNone;

/// A solver configuration, measured once on the 96² crooked pipe.
struct Config {
  const char* name;
  SolverType type;
  PreconType precon;
  int halo_depth;
  int inner_steps;
  bool fused_cg;
};

const Config kConfigs[] = {
    {"CG - 1", kCG, kNone, 1, 10, false},
    {"CG - 1 fused", kCG, kNone, 1, 10, true},
    {"CG + jac_diag", kCG, PreconType::kJacobiDiag, 1, 10, false},
    {"CG + jac_block", kCG, PreconType::kJacobiBlock, 1, 10, false},
    {"PPCG - 1", kPPCG, kNone, 1, 10, false},
    {"PPCG - 4", kPPCG, kNone, 4, 10, false},
    {"PPCG - 8", kPPCG, kNone, 8, 10, false},
    {"PPCG - 16", kPPCG, kNone, 16, 10, false},
    {"PPCG - 1 (5 inner)", kPPCG, kNone, 1, 5, false},
    {"PPCG - 1 (20 inner)", kPPCG, kNone, 1, 20, false},
};

/// Fig. 7's PETSc CG + BoomerAMG baseline: ScalingModel::amg_sweep over
/// the measured mg-pcg iterations.
constexpr const char* kAmg = "BoomerAMG";

struct Machine {
  const char* key;
  MachineSpec (*spec)();
};

const Machine kMachines[] = {
    {"spruce_mpi", machines::spruce_mpi},
    {"spruce_hybrid", machines::spruce_hybrid},
    {"titan", machines::titan},
    {"piz_daint", machines::piz_daint},
};

/// One modelled strong-scaling series: a config on a machine, projected
/// to 4000² and priced at 1, 2, 4, … max_nodes nodes.  Fig. 8 and the
/// fused-CG ablation read the series of Figs. 5-7.
struct ScalingSpec {
  const char* figure;
  const char* machine;
  const char* config;
  int max_nodes;
};

const ScalingSpec kScaling[] = {
    {"5", "titan", "CG - 1", 8192},
    {"5", "titan", "PPCG - 1", 8192},
    {"5", "titan", "PPCG - 4", 8192},
    {"5", "titan", "PPCG - 8", 8192},
    {"5", "titan", "PPCG - 16", 8192},
    {"6", "piz_daint", "CG - 1", 2048},
    {"6", "piz_daint", "PPCG - 1", 2048},
    {"6", "piz_daint", "PPCG - 4", 2048},
    {"6", "piz_daint", "PPCG - 8", 2048},
    {"6", "piz_daint", "PPCG - 16", 2048},
    {"7", "spruce_hybrid", kAmg, 1024},
    {"7", "spruce_hybrid", "CG - 1", 1024},
    {"7", "spruce_hybrid", "PPCG - 1", 1024},
    {"7", "spruce_mpi", kAmg, 1024},
    {"7", "spruce_mpi", "CG - 1", 1024},
    {"7", "spruce_mpi", "PPCG - 1", 1024},
    {"fused CG ablation", "titan", "CG - 1 fused", 8192},
};

/// A measured config: its 96² solve and the run projected to 4000².
struct Measured {
  SolveStats stats;
  SolverRunSummary run;
};

using MeasuredMap = std::map<std::string, Measured>;
using SeriesMap = std::map<std::string, ScalingSeries>;  ///< "machine/config"

/// A JSON object with these members, in order.
JsonValue object(
    std::initializer_list<std::pair<const char*, JsonValue>> members) {
  JsonValue o = JsonValue::object();
  for (const auto& [key, value] : members) o.set(key, value);
  return o;
}

template <class T>
JsonValue array(const std::vector<T>& values) {
  JsonValue a = JsonValue::array();
  for (const T& v : values) a.push_back(v);
  return a;
}

ScalingModel model(const std::string& machine) {
  for (const Machine& m : kMachines) {
    if (machine == m.key) {
      return ScalingModel(m.spec(),
                          GlobalMesh2D(kPaperMesh, kPaperMesh, 0, 10, 0, 10),
                          kTimesteps);
    }
  }
  throw TeaError("unknown machine " + machine);
}

std::vector<int> node_axis(int max_nodes) {
  std::vector<int> nodes;
  for (int p = 1; p <= max_nodes; p *= 2) nodes.push_back(p);
  return nodes;
}

std::vector<double> seconds_of(const ScalingSeries& s) {
  std::vector<double> seconds;
  for (const ScalingPoint& p : s.points) seconds.push_back(p.seconds);
  return seconds;
}

double seconds_at(const ScalingSeries& s, int nodes) {
  for (const ScalingPoint& p : s.points)
    if (p.nodes == nodes) return p.seconds;
  throw TeaError(s.label + " has no point at " + std::to_string(nodes));
}

/// Index of the minimum-time point (the "peak scaling" node count).
std::size_t best_index(const ScalingSeries& s) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < s.points.size(); ++i)
    if (s.points[i].seconds < s.points[best].seconds) best = i;
  return best;
}

/// One timestep of the crooked pipe at `n`² on kRanks ranks.
SolveStats solve_pipe(int n, SolverConfig cfg) {
  InputDeck deck = decks::crooked_pipe(n, /*steps=*/1);
  cfg.max_iters = 200000;
  deck.solver = cfg;
  const SolveStats st = TeaLeafApp(deck, kRanks).step();
  TEA_REQUIRE(st.converged, std::string(to_string(cfg.type)) +
                                " did not converge on the crooked pipe");
  return st;
}

/// The solver configuration of a named config.
SolverConfig config_of(const std::string& name) {
  for (const Config& c : kConfigs) {
    if (name != c.name) continue;
    // The paper's engine: untiled sweeps, so the model prices the
    // streaming sweeps the paper ran rather than its L2-blocked variant.
    SolverConfig cfg;
    cfg.tile_rows = 0;
    cfg.type = c.type;
    cfg.precon = c.precon;
    cfg.eps = kEps;
    cfg.halo_depth = c.halo_depth;
    cfg.inner_steps = c.inner_steps;
    cfg.fuse_cg_reductions = c.fused_cg;
    return cfg;
  }
  throw TeaError("unknown config " + name);
}

MeasuredMap measure_configs(JsonValue& out) {
  MeasuredMap measured;
  for (const Config& c : kConfigs) {
    const SolverConfig cfg = config_of(c.name);
    const SolveStats st = solve_pipe(kMeasureMesh, cfg);
    const SolverRunSummary run = project_to_mesh(
        SolverRunSummary::from(cfg, st, kMeasureMesh), kPaperMesh);
    out.set(c.name, object({
                        {"outer_iters", st.outer_iters - st.eigen_cg_iters},
                        {"eigen_cg_iters", st.eigen_cg_iters},
                        {"spmv", st.spmv_applies},
                        {"projected_outer_iters", run.outer_iters},
                    }));
    measured[c.name] = {st, run};
  }
  return measured;
}

/// Fig. 7's baseline: mg-pcg's iterations on the 96² pipe, projected to
/// 4000² with a weak logarithmic growth (MG convergence is near mesh
/// independent, but on this 1000:1-contrast material the interpolation
/// degrades slowly with resolution).
int measure_amg(JsonValue& out) {
  SolverConfig mg = with_solver_name(SolverConfig{}, "mg-pcg");
  mg.eps = 1e-10;
  mg.max_iters = 1000;
  const SolveStats st =
      SolveSession(decks::crooked_pipe(kMeasureMesh, 1), 1).solve(mg);
  TEA_REQUIRE(st.converged, "mg-pcg did not converge on the crooked pipe");
  const int projected = static_cast<int>(std::lround(
      st.outer_iters *
      (1.0 + 0.15 * std::log2(static_cast<double>(kPaperMesh) /
                              kMeasureMesh))));
  out.set(kAmg, object({
                    {"outer_iters", st.outer_iters},
                    {"projected_outer_iters", projected},
                }));
  return projected;
}

SeriesMap model_series(const MeasuredMap& measured, int amg_iters,
                       JsonValue& out) {
  SeriesMap series;
  for (const ScalingSpec& s : kScaling) {
    const std::string key = std::string(s.machine) + "/" + s.config;
    const ScalingModel m = model(s.machine);
    const std::vector<int> nodes = node_axis(s.max_nodes);
    series[key] = s.config == std::string(kAmg)
                      ? m.amg_sweep(amg_iters, key, nodes)
                      : m.sweep(measured.at(s.config).run, key, nodes);
    out.set(key, object({
                     {"figure", s.figure},
                     {"nodes", array(nodes)},
                     {"seconds", array(seconds_of(series[key]))},
                 }));
  }
  return series;
}

JsonValue fig5(const SeriesMap& series) {
  const auto at_8192 = [&](const std::string& config) {
    return seconds_at(series.at("titan/" + config), 8192);
  };
  const ScalingSeries& ppcg16 = series.at("titan/PPCG - 16");
  const ScalingPoint best = ppcg16.points[best_index(ppcg16)];
  // The plateau: the smallest node count from which every point is
  // within 10% of the series' best.
  int plateau = ppcg16.points.back().nodes;
  for (auto p = ppcg16.points.rbegin();
       p != ppcg16.points.rend() && p->seconds <= 1.1 * best.seconds; ++p) {
    plateau = p->nodes;
  }
  // Deeper halos faster: the largest time ratio of a depth to the next
  // shallower one at 8192 nodes (< 1 while every step deeper pays).
  double ratio = 0.0;
  const char* depths[] = {"PPCG - 1", "PPCG - 4", "PPCG - 8", "PPCG - 16"};
  for (int i = 1; i < 4; ++i)
    ratio = std::max(ratio, at_8192(depths[i]) / at_8192(depths[i - 1]));
  return object({
      {"ppcg16_s_at_8192", at_8192("PPCG - 16")},
      {"cg1_over_ppcg16_at_8192", at_8192("CG - 1") / at_8192("PPCG - 16")},
      {"ppcg16_best_nodes", best.nodes},
      {"ppcg16_best_s", best.seconds},
      {"ppcg16_plateau_nodes", plateau},
      {"deeper_halo_max_time_ratio_at_8192", ratio},
  });
}

JsonValue fig6(const SeriesMap& series) {
  const double daint = seconds_at(series.at("piz_daint/PPCG - 16"), 2048);
  const double titan = seconds_at(series.at("titan/PPCG - 16"), 2048);
  return object({
      {"daint_ppcg16_s_at_2048", daint},
      {"titan_ppcg16_s_at_2048", titan},
      {"daint_lead_pct", (titan / daint - 1.0) * 100.0},
  });
}

JsonValue fig7(const SeriesMap& series) {
  const auto best_at_512 = [&](const std::string& config) {
    return std::min(seconds_at(series.at("spruce_hybrid/" + config), 512),
                    seconds_at(series.at("spruce_mpi/" + config), 512));
  };
  const auto peak_nodes = [&](const std::string& key) {
    const ScalingSeries& s = series.at(key);
    return s.points[best_index(s)].nodes;
  };
  const double amg = best_at_512(kAmg);
  const double ppcg = best_at_512("PPCG - 1");
  return object({
      {"amg_mpi_peak_nodes", peak_nodes(std::string("spruce_mpi/") + kAmg)},
      {"ppcg1_mpi_peak_nodes", peak_nodes("spruce_mpi/PPCG - 1")},
      {"best_amg_s_at_512", amg},
      {"best_ppcg_s_at_512", ppcg},
      {"ppcg_lead_at_512", amg / ppcg},
  });
}

/// Strong-scaling efficiency of the best config per system.
JsonValue fig8(const SeriesMap& series) {
  const ScalingSeries& spruce = series.at("spruce_mpi/PPCG - 1");
  const std::vector<double> e_spruce = scaling_efficiency(spruce);
  const std::vector<double> e_daint =
      scaling_efficiency(series.at("piz_daint/PPCG - 16"));
  const std::vector<double> e_titan =
      scaling_efficiency(series.at("titan/PPCG - 16"));
  std::size_t peak = 0;
  int superlinear_through = 0;  // largest node count above efficiency 1
  for (std::size_t i = 0; i < e_spruce.size(); ++i) {
    if (e_spruce[i] > e_spruce[peak]) peak = i;
    if (e_spruce[i] > 1.0) superlinear_through = spruce.points[i].nodes;
  }
  double daint_over_titan = e_daint[1] / e_titan[1];
  for (std::size_t i = 1; i < e_daint.size(); ++i)
    daint_over_titan = std::min(daint_over_titan, e_daint[i] / e_titan[i]);
  return object({
      {"efficiency", object({
                         {"spruce_mpi/PPCG - 1", array(e_spruce)},
                         {"piz_daint/PPCG - 16", array(e_daint)},
                         {"titan/PPCG - 16", array(e_titan)},
                     })},
      {"spruce_peak_efficiency", e_spruce[peak]},
      {"spruce_peak_nodes", spruce.points[peak].nodes},
      {"spruce_superlinear_through_nodes", superlinear_through},
      {"daint_efficiency_at_2048", e_daint.back()},
      {"titan_efficiency_at_2048", e_titan[e_daint.size() - 1]},
      {"min_daint_over_titan_efficiency", daint_over_titan},
  });
}

/// Chronopoulos-Gear CG (one fused allreduce) against classic CG on Titan.
JsonValue fused_cg_ablation(const SeriesMap& series) {
  const ScalingSeries& classic = series.at("titan/CG - 1");
  const ScalingSeries& fused = series.at("titan/CG - 1 fused");
  std::vector<double> speedup;
  for (std::size_t i = 0; i < classic.points.size(); ++i)
    speedup.push_back(classic.points[i].seconds / fused.points[i].seconds);
  return object({
      {"speedup", array(speedup)},
      {"speedup_at_8192", speedup.back()},
  });
}

/// Matrix-powers depth on Titan at 2048 nodes and Spruce (hybrid) at 512:
/// one fixed-iteration trace per depth, each held at the depth-1 run's
/// projected outer iterations, since depth does not change the maths.
/// 20 inner steps, so even depth-16 halos are consumed (⌊m/d⌋ ≥ 1).
JsonValue halo_depth_ablation(const MeasuredMap& measured) {
  const std::vector<int> depths = {1, 2, 4, 8, 12, 16, 24, 32};
  const ScalingModel titan = model("titan");
  const ScalingModel spruce = model("spruce_hybrid");
  const char* config = "PPCG - 1 (20 inner)";
  const int outer_iters = measured.at(config).run.outer_iters;
  std::vector<double> t_titan, t_spruce;
  for (const int depth : depths) {
    SolverConfig cfg = config_of(config);
    cfg.halo_depth = depth;
    SolverRunSummary run =
        with_outer_iters(fixed_iteration_run(cfg, 2), outer_iters);
    run.mesh_n = kPaperMesh;
    t_titan.push_back(titan.run_seconds(run, 2048));
    t_spruce.push_back(spruce.run_seconds(run, 512));
  }
  const auto best_depth = [&](const std::vector<double>& t) {
    return depths[std::min_element(t.begin(), t.end()) - t.begin()];
  };
  return object({
      {"depths", array(depths)},
      {"titan_s_at_2048", array(t_titan)},
      {"spruce_hybrid_s_at_512", array(t_spruce)},
      {"titan_best_depth", best_depth(t_titan)},
      {"spruce_best_depth", best_depth(t_spruce)},
      {"titan_d16_over_d12", t_titan[5] / t_titan[4]},
  });
}

/// Eqs. 4-7 against measurement: k_outer bounds the outer iterations and
/// k_total the SpMV count of a degree-(inner+1) polynomial.
JsonValue iteration_bounds(const MeasuredMap& measured) {
  JsonValue rows = JsonValue::array();
  double worst = 0.0;
  for (const auto& [name, inner] :
       {std::pair{"PPCG - 1 (5 inner)", 5}, std::pair{"PPCG - 1", 10},
        std::pair{"PPCG - 1 (20 inner)", 20}}) {
    const SolveStats& st = measured.at(name).stats;
    const IterationBounds b =
        chebyshev_iteration_bounds(st.eigmin, st.eigmax, inner + 1, kEps);
    const int outer = st.outer_iters - st.eigen_cg_iters;
    worst = std::max(worst, outer / b.k_outer);
    rows.push_back(object({
        {"inner_steps", inner},
        {"kappa_cg", b.kappa_cg},
        {"kappa_pcg", b.kappa_pcg},
        {"k_outer", b.k_outer},
        {"outer_iters", outer},
        {"k_total", b.k_total},
        {"spmv", st.spmv_applies},
    }));
  }
  return object({{"rows", rows}, {"max_outer_over_k_outer", worst}});
}

/// κ(M⁻¹A) per preconditioner from the Lanczos tridiagonal of 40 CG steps
/// on the first timestep's operator, beside the full CG solve's iterations.
JsonValue kappa_ablation(const MeasuredMap& measured) {
  JsonValue rows = JsonValue::array();
  double kappa_none = 0.0;
  double cut = 0.0;  // the last row's: block Jacobi
  for (const auto& [precon, config] :
       {std::pair{kNone, "CG - 1"},
        std::pair{PreconType::kJacobiDiag, "CG + jac_diag"},
        std::pair{PreconType::kJacobiBlock, "CG + jac_block"}}) {
    SolveSession session(decks::crooked_pipe(kMeasureMesh, 1), kRanks);
    session.prepare();
    SolverConfig cfg;
    cfg.tile_rows = 0;
    cfg.precon = precon;
    // The CG steps run by hand, so their fields are allocated by hand.
    session.cluster().allocate(solve_fields(session.cluster(), cfg));
    CGRecurrence rec;  // every thread records the same; thread 0's is kept
    parallel_region([&](const Team& team) {
      CGRecurrence mine;
      SolveStats st;
      double rro = cg_setup(session.cluster(), cfg.precon, team);
      (void)cg_presteps(session.cluster(), cfg, 40, 0.0, rro, mine, st, team);
      team.single([&] { rec = std::move(mine); });
    });
    const EigenEstimate est = estimate_eigenvalues(rec, 1.0, 1.0);
    const double kappa = est.eigmax / est.eigmin;
    if (precon == kNone) kappa_none = kappa;
    cut = (1.0 - kappa / kappa_none) * 100.0;
    rows.push_back(object({
        {"precon", to_string(precon)},
        {"eigmin", est.eigmin},
        {"eigmax", est.eigmax},
        {"kappa", kappa},
        {"kappa_cut_pct", cut},
        {"cg_iters", measured.at(config).stats.outer_iters},
    }));
  }
  return object({{"rows", rows}, {"jac_block_cut_pct", cut}});
}

/// The crooked pipe with PPCG at depth 4, as Figs. 3 and 4 run it.
InputDeck pipe_deck(int n, int steps) {
  InputDeck deck = decks::crooked_pipe(n, steps);
  deck.solver.type = kPPCG;
  deck.solver.inner_steps = 10;
  deck.solver.halo_depth = 4;
  deck.solver.eps = kEps;
  return deck;
}

/// Fig. 3: the crooked pipe at 128² after 25 steps of dt = 0.04 µs (the
/// paper runs 4000² to 15 µs): the field summary and the temperature
/// along the pipe against the dense background.
JsonValue fig3() {
  const int n = 128;
  TeaLeafApp app(pipe_deck(n, 25), kRanks);
  const RunResult rr = app.run();
  const Field2D<double> u = gather_field(app.cluster(), FieldId::kU);
  const GlobalMesh2D mesh(n, n, 0, 10, 0, 10);
  const auto temp_at = [&](double x, double y) {
    return u(std::min(n - 1, static_cast<int>(x / mesh.dx())),
             std::min(n - 1, static_cast<int>(y / mesh.dy())));
  };
  const FieldSummary& fs = rr.final_summary;
  return object({
      {"mesh", n},
      {"steps", rr.steps},
      {"sim_time_us", rr.sim_time},
      {"wall_s", rr.wall_seconds},
      {"outer_iters", rr.total_outer_iters},
      {"converged", rr.all_converged},
      {"volume", fs.volume},
      {"mass", fs.mass},
      {"ie", fs.ie},
      {"avg_temp", fs.avg_temp()},
      {"temp_inlet", temp_at(0.5, 7.5)},
      {"temp_mid", temp_at(5.0, 2.5)},
      {"temp_outlet", temp_at(9.5, 5.5)},
      {"temp_background", temp_at(5.0, 9.0)},
  });
}

/// Fig. 4: average temperature at t = 1 µs against mesh size.  The
/// operator conserves the volume-average temperature, so what converges
/// is the resolved geometry: non-aligned meshes against an aligned 160²
/// reference (n divisible by 20 quantises the pipe exactly).
JsonValue fig4() {
  const auto run_to_1us = [](int n) {
    InputDeck deck = pipe_deck(n, 0);
    deck.end_time = 1.0;
    return TeaLeafApp(deck, 2).run();
  };
  const double ref = run_to_1us(160).final_summary.avg_temp();
  JsonValue rows = JsonValue::array();
  std::vector<double> err;
  for (const int n : {24, 36, 52, 76, 108, 156}) {
    const RunResult rr = run_to_1us(n);
    err.push_back(std::fabs(rr.final_summary.avg_temp() - ref));
    rows.push_back(object({
        {"mesh", n},
        {"avg_temp", rr.final_summary.avg_temp()},
        {"abs_err_vs_ref", err.back()},
        {"steps", rr.steps},
    }));
  }
  return object({
      {"end_time_us", 1.0},
      {"ref_mesh", 160},
      {"ref_avg_temp", ref},
      {"rows", rows},
      {"first_err", err.front()},
      {"last_err", err.back()},
  });
}

/// Table I: the modelled constants standing in for each test system.
JsonValue table1() {
  JsonValue rows = JsonValue::array();
  for (const Machine& machine : kMachines) {
    const MachineSpec m = machine.spec();
    rows.push_back(object({
        {"key", machine.key},
        {"system", m.name},
        {"device", m.is_gpu ? "K20x" : "E5-2680"},
        {"ranks_per_node", m.ranks_per_node},
        {"mem_bw_gbs", m.mem_bw_gbs},
        {"net_alpha_us", m.net_alpha_us},
        {"net_bw_gbs", m.net_bw_gbs},
        {"reduce_alpha_us", m.reduce_alpha_us},
    }));
  }
  return rows;
}

/// The design-space loop closed: sweep solver × precon × depth on the 48²
/// pipe, rank the cells by measured solve time, and project every
/// converged cell onto Titan at 4000² up to 512 nodes.  The ranking is
/// wall-clock; the projections are not.
JsonValue sweep_matrix() {
  const int mesh = 48;
  InputDeck base = decks::crooked_pipe(mesh, /*steps=*/1);
  base.solver.eps = kEps;
  base.solver.max_iters = 200000;
  SweepSpec spec;
  spec.solvers = {"cg", "ppcg", "chebyshev"};
  spec.precons = {kNone, PreconType::kJacobiDiag};
  spec.halo_depths = {1, 4, 8, 16};
  spec.ranks = kRanks;
  SweepOptions opts;
  opts.machine = machines::titan();
  const SweepReport report = run_sweep(base, spec, opts);

  const ScalingModel titan = model("titan");
  JsonValue ranking = JsonValue::array();
  JsonValue projected = JsonValue::object();
  for (const int i : report.ranking()) {
    const SweepCase& c = report.cells[i].config;
    ranking.push_back(object({
        {"config", c.label()},
        {"iterations", report.cells[i].iterations},
        {"solve_s", report.cells[i].solve_seconds},
    }));
    SolverConfig cfg = base.solver;
    cfg.type = solver_type_from_string(c.solver);
    cfg.precon = c.precon;
    cfg.halo_depth = c.halo_depth;
    cfg.tile_rows = c.tile_rows;  // project the engine the cell ran
    const SolverRunSummary run = project_to_mesh(
        SolverRunSummary::from(cfg, solve_pipe(mesh, cfg), mesh), kPaperMesh);
    const ScalingSeries s = titan.sweep(run, c.label(), node_axis(512));
    const std::size_t peak = best_index(s);
    projected.set(c.label(),
                  object({
                      {"seconds", array(seconds_of(s))},
                      {"best_nodes", s.points[peak].nodes},
                      {"best_s", s.points[peak].seconds},
                      {"efficiency_at_best", scaling_efficiency(s)[peak]},
                  }));
  }
  return object({
      {"mesh", mesh},
      {"cells", static_cast<int>(report.cells.size())},
      {"ranking", ranking},
      {"titan_nodes", array(node_axis(512))},
      {"titan_projection", projected},
  });
}

// ---- the claims check ------------------------------------------------------

/// The number at `path` in the results: object keys joined by dots, e.g.
/// "fig5.ppcg16_s_at_8192".
double result_at(const JsonValue& doc, const std::string& path) {
  const JsonValue* v = &doc;
  std::istringstream keys(path);
  std::string key;
  while (std::getline(keys, key, '.')) {
    TEA_REQUIRE(v->contains(key), "claims: no result named " + path);
    v = &v->at(key);
  }
  TEA_REQUIRE(v->kind() == JsonValue::Kind::kNumber,
              "claims: result " + path + " is not a number");
  return v->as_number();
}

struct Bound {
  const char* key;
  const char* op;
  bool lower;
  bool strict;
};

/// A claim's bound keys: inclusive min/max, exclusive above/below.
constexpr Bound kBounds[] = {
    {"min", ">=", true, false},
    {"above", ">", true, true},
    {"max", "<=", false, false},
    {"below", "<", false, true},
};

bool holds(const JsonValue& claim, double v) {
  for (const Bound& b : kBounds) {
    if (!claim.contains(b.key)) continue;
    const double x = claim.at(b.key).as_number();
    if (b.lower ? (b.strict ? v <= x : v < x) : (b.strict ? v >= x : v > x))
      return false;
  }
  return true;
}

/// How far `v` lies outside the claim's bounds, as a log ratio.
double miss(const JsonValue& claim, double v) {
  TEA_REQUIRE(v > 0.0, "claims: a deviation needs positive values");
  double d = 0.0;
  for (const Bound& b : kBounds) {
    if (!claim.contains(b.key)) continue;
    const double x = claim.at(b.key).as_number();
    d = std::max(d, b.lower ? std::log(x / v) : std::log(v / x));
  }
  return d;
}

std::string bound_text(const JsonValue& claim) {
  std::string text;
  for (const Bound& b : kBounds) {
    if (!claim.contains(b.key)) continue;
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s%s %g", text.empty() ? "" : ", ",
                  b.op, claim.at(b.key).as_number());
    text += buf;
  }
  return text;
}

/// Check each claim against the results.  A claim passes inside its
/// bounds; a recorded deviation also passes while its value is no further
/// outside them than the recorded one.  Prints one line per claim and
/// returns the checked claims; `failed` collects the ids that fail.
JsonValue check_claims(const JsonValue& claims, const JsonValue& results,
                       std::vector<std::string>& failed) {
  JsonValue out = JsonValue::array();
  std::printf("%-40s %10s  %-22s %s\n", "claim", "value", "bound", "status");
  for (std::size_t i = 0; i < claims.at("claims").size(); ++i) {
    const JsonValue& claim = claims.at("claims").at(i);
    const std::string& id = claim.at("id").as_string();
    const std::string bound = bound_text(claim);
    TEA_REQUIRE(!bound.empty(), "claims: " + id + " has no bound");
    const double v = result_at(results, claim.at("result").as_string());
    std::string status = "pass";
    if (!holds(claim, v)) {
      const bool kept =
          claim.contains("deviation") &&
          miss(claim, v) <=
              miss(claim, claim.at("deviation").at("recorded").as_number());
      status = kept ? "deviation" : "FAIL";
    }
    if (status == "FAIL") failed.push_back(id);
    std::printf("%-40s %10.4g  %-22s %s\n", id.c_str(), v, bound.c_str(),
                status.c_str());
    out.push_back(object({{"id", id}, {"value", v}, {"status", status}}));
  }
  return out;
}

JsonValue load_json(const std::string& path) {
  std::ifstream in(path);
  TEA_REQUIRE(in.is_open(), "cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return JsonValue::parse(text.str());
}

int run(const Args& args) {
  const JsonValue claims = load_json(args.get("claims", TEALEAF_PAPER_CLAIMS));

  JsonValue measured_json = JsonValue::object();
  const MeasuredMap measured = measure_configs(measured_json);
  const int amg_iters = measure_amg(measured_json);
  JsonValue series_json = JsonValue::object();
  const SeriesMap series = model_series(measured, amg_iters, series_json);

  JsonValue doc = object({
      {"setup", object({
                    {"measure_mesh", kMeasureMesh},
                    {"measure_ranks", kRanks},
                    {"paper_mesh", kPaperMesh},
                    {"timesteps", kTimesteps},
                    {"eps", kEps},
                })},
      {"measured", measured_json},
      {"series", series_json},
      {"fig3", fig3()},
      {"fig4", fig4()},
      {"fig5", fig5(series)},
      {"fig6", fig6(series)},
      {"fig7", fig7(series)},
      {"fig8", fig8(series)},
      {"table1", table1()},
      {"fused_cg", fused_cg_ablation(series)},
      {"halo_depth", halo_depth_ablation(measured)},
      {"iteration_bounds", iteration_bounds(measured)},
      {"kappa", kappa_ablation(measured)},
      {"sweep_matrix", sweep_matrix()},
  });
  std::vector<std::string> failed;
  doc.set("claims", check_claims(claims, doc, failed));

  const std::string path = args.get("json", "paper_figures.json");
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  TEA_REQUIRE(out.good(), "cannot write " + path);
  std::printf("\nwrote %s\n", path.c_str());
  for (const std::string& id : failed)
    std::fprintf(stderr, "claim failed: %s\n", id.c_str());
  return failed.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv, {{"json"}, {"claims"}}, run);
}
