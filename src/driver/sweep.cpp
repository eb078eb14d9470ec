#include "driver/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include "api/solve_api.hpp"
#include "driver/decks.hpp"
#include "io/csv.hpp"
#include "model/scaling.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/numeric.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

std::string SweepCase::label() const {
  std::ostringstream os;
  os << solver << "/" << to_string(precon) << "/d" << halo_depth << "/n"
     << mesh_n << "/t" << threads << "/fused";
  if (tile_rows != 0) os << "/b" << tile_rows;
  if (dims == 3) os << "/3d";
  if (op != "stencil") os << "/" << op;
  if (precision == "single") os << "/f32";
  if (precision == "mixed") os << "/mixed";
  return os.str();
}

std::vector<SweepCase> enumerate_cases(const SweepSpec& spec, int base_mesh,
                                       int base_dims) {
  spec.validate();
  TEA_REQUIRE(base_mesh >= 4, "sweep: base mesh must be >= 4");
  TEA_REQUIRE(base_dims == 2 || base_dims == 3,
              "sweep: base geometry must be 2d or 3d");
  std::vector<int> meshes = spec.mesh_sizes;
  if (meshes.empty()) meshes.push_back(base_mesh);
  std::vector<int> geometries = spec.geometries;
  if (geometries.empty()) geometries.push_back(base_dims);
  std::vector<std::string> operators = spec.operators;
  if (operators.empty()) operators.push_back("stencil");
  // Canonicalise the precision entries ("fp32" → "single") so labels and
  // result tables always carry the canonical names.
  std::vector<std::string> precisions;
  for (const std::string& p : spec.precisions) {
    precisions.push_back(to_string(precision_from_string(p)));
  }
  if (precisions.empty()) precisions.push_back("double");

  std::vector<SweepCase> cases;
  cases.reserve(spec.num_cases());
  for (const std::string& solver : spec.solvers) {
    for (const PreconType precon : spec.precons) {
      for (const int depth : spec.halo_depths) {
        for (const int mesh : meshes) {
          for (const int threads : spec.thread_counts) {
            for (const int tile : spec.tile_rows) {
              for (const int dims : geometries) {
                for (const std::string& op : operators) {
                  for (const std::string& prec : precisions) {
                    cases.push_back({solver, precon, depth, mesh, threads,
                                     tile, dims, op, prec});
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cases;
}

namespace {

/// Run one cell through the SolveSession facade (the same entry path
/// TeaLeafApp and the solve server use).  A cell's seconds include any
/// preconditioner set-up (the multigrid hierarchy's build), which is part
/// of its cost per step; its comm_seconds price each solve's trace on
/// `machine` (model/scaling.hpp).
void run_cell(const InputDeck& deck, int ranks, int steps,
              const MachineSpec& machine, SweepOutcome& out) {
  SolveSession session(deck, ranks);
  session.cluster().reset_stats();
  out.converged = true;
  for (int s = 0; s < steps; ++s) {
    const SolveStats st = session.solve();
    out.converged = out.converged && st.converged;
    out.iterations += st.outer_iters;
    out.inner_steps += st.inner_steps;
    out.spmv += st.spmv_applies;
    out.final_norm = st.final_norm;
    out.solve_seconds += st.setup_seconds + st.solve_seconds;
    out.comm_seconds +=
        comm_seconds(st.trace, machine, session.cluster().mesh(), ranks);
    if (st.breakdown) {
      // Numerical breakdown: record the row as failed and stop this cell;
      // the sweep moves on to the next configuration.
      out.fail_reason = st.breakdown_reason;
      out.converged = false;
      break;
    }
  }
  const CommStats& cs = session.cluster().stats();
  out.reductions = cs.reductions;
  out.exchanges = cs.exchange_calls;
  out.messages = cs.messages;
  out.message_bytes = cs.message_bytes;
}

/// `deck` on an n² mesh, or on an n³ brick for dims 3: a deck without its
/// own z extents mirrors the x axis, and 2-D states extrude through z
/// (see StateDef), so every deck has an honest 3-D reading.
InputDeck at_shape(InputDeck deck, int n, int dims) {
  if (dims == 3 && !(deck.dims == 3 && deck.zmax > deck.zmin)) {
    deck.zmin = deck.xmin;
    deck.zmax = deck.xmax;
  }
  deck.x_cells = n;
  deck.y_cells = n;
  deck.z_cells = dims == 3 ? n : 1;
  deck.dims = dims;
  return deck;
}

/// A JSON number that must be an integer (checked_integer's rule).
template <class Int>
Int json_int(const io::JsonValue& obj, const char* key) {
  return checked_integer<Int>(obj.at(key).as_number(),
                              std::string("sweep json key ") + key);
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

SweepReport run_sweep(const InputDeck& base, const SweepSpec& spec,
                      const SweepOptions& opts) {
  base.validate();
  const std::vector<SweepCase> cases =
      enumerate_cases(spec, base.x_cells, base.dims);
  const int steps = opts.steps > 0 ? opts.steps : base.num_steps();
  TEA_REQUIRE(steps >= 1, "sweep: need at least one timestep per cell");

  SweepReport report;
  report.ranks = spec.ranks;
  report.steps = steps;
  report.cells.reserve(cases.size());

  for (const SweepCase& cs : cases) {
    SweepOutcome out;
    out.config = cs;

    InputDeck deck = at_shape(base, cs.mesh_n, cs.dims);
    deck.sweep = SweepSpec{};  // cells are single solves
    deck.end_time = 0.0;
    deck.end_step = steps;
    deck.solver.precon = cs.precon;
    deck.solver.halo_depth = cs.halo_depth;
    deck.solver.tile_rows = cs.tile_rows;
    deck.solver.op = operator_kind_from_string(cs.op);
    deck.solver.precision = precision_from_string(cs.precision);

    if (!deck.matrix_file.empty() && cs.precision != "double") {
      out.skipped = true;
      out.skip_reason =
          "a loaded matrix_file operator has no stencil coefficients to "
          "re-assemble in fp32";
    } else {
      try {
        deck.solver = with_solver_name(deck.solver, cs.solver);
        deck.solver.validate();
      } catch (const TeaError& e) {
        out.skipped = true;
        out.skip_reason = e.what();
      }
    }

    if (!out.skipped) {
      // The multigrid baseline solves the undecomposed grid (paper
      // Fig. 7's PETSc+BoomerAMG stand-in), so its cells run on one rank.
      const int ranks =
          deck.solver.precon == PreconType::kMultigrid ? 1 : spec.ranks;
      ThreadScope threads(cs.threads);
      try {
        run_cell(deck, ranks, steps, opts.machine, out);
      } catch (const TeaError& e) {
        // A solver contract violation mid-run fails this row only; the
        // rest of the cross-product still runs.
        out.fail_reason = e.what();
        out.converged = false;
      }
    }

    if (opts.echo) {
      std::printf("%-28s %s\n", cs.label().c_str(),
                  out.skipped ? ("skipped: " + out.skip_reason).c_str()
                  : !out.fail_reason.empty()
                      ? ("FAILED: " + out.fail_reason).c_str()
                  : out.converged
                      ? ("ok, " + std::to_string(out.iterations) + " iters")
                            .c_str()
                      : "DID NOT CONVERGE");
    }
    report.cells.push_back(std::move(out));
  }
  return report;
}

SolverRunSummary fixed_iteration_run(const SolverConfig& cfg, int dims) {
  // Small, yet hard enough that no prestep run reaches the fp32 inner
  // tolerance (1e-5) of a mixed solve, whose one pass then spends the
  // whole budget (on a 16³ brick, 17 CG presteps reach it).
  const int n = 32;
  InputDeck deck = at_shape(decks::crooked_pipe(n, /*steps=*/1), n, dims);
  const bool chebyshev = cfg.type == SolverType::kChebyshev;
  const bool presteps = chebyshev || cfg.type == SolverType::kPPCG;
  const int loop = chebyshev ? cfg.cheby_check_interval : 1;
  deck.solver = cfg;
  deck.solver.eps = std::numeric_limits<double>::min();  // never met
  deck.solver.max_iters = loop + (presteps ? cfg.eigen_cg_iters : 0);
  struct Quiet {  // a capped solve's "hit max_iters" warning is expected
    log::Level was = log::level();
    Quiet() { log::set_level(std::max(was, log::Level::kError)); }
    ~Quiet() { log::set_level(was); }
  } quiet;
  const SolveStats st = SolveSession(deck, 1).solve();
  TEA_REQUIRE(!st.converged && !st.breakdown &&
                  st.outer_iters - st.eigen_cg_iters == loop,
              "the trace solve of " + std::string(to_string(cfg.type)) +
                  " did not run its fixed course " + st.breakdown_reason);
  return SolverRunSummary::from(cfg, st, n);
}

SweepReport run_sweep(const InputDeck& base, const SweepOptions& opts) {
  TEA_REQUIRE(base.sweep.requested(),
              "run_sweep: the deck has no sweep_* section");
  return run_sweep(base, base.sweep, opts);
}

std::vector<int> SweepReport::ranking() const {
  std::vector<int> idx;
  for (int i = 0; i < static_cast<int>(cells.size()); ++i) {
    if (!cells[i].skipped && cells[i].converged) idx.push_back(i);
  }
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return cells[a].solve_seconds < cells[b].solve_seconds;
  });
  return idx;
}

int SweepReport::best() const {
  const std::vector<int> r = ranking();
  return r.empty() ? -1 : r.front();
}

std::vector<double> SweepReport::speedups() const {
  std::vector<double> seconds;
  seconds.reserve(cells.size());
  for (const SweepOutcome& c : cells) {
    // Clamp to a tiny positive time so a converged cell that beat the
    // timer resolution still ranks (relative_speedups treats <= 0 as a
    // failed run) — keeps speedups() consistent with ranking().
    seconds.push_back(!c.skipped && c.converged
                          ? std::max(c.solve_seconds, 1e-12)
                          : 0.0);
  }
  return relative_speedups(seconds);
}

namespace {

constexpr const char* kCsvColumns[] = {
    "solver",      "precon",        "halo_depth",   "mesh",
    "threads",     "tile_rows",     "geometry",     "operator",
    "precision",   "sweep_ranks",   "sweep_steps",  "status",
    "converged",   "iterations",    "inner_steps",  "spmv",
    "reductions",  "exchanges",     "messages",     "message_bytes",
    "final_norm",  "solve_seconds", "comm_seconds", "speedup",
    "rank"};

}  // namespace

std::vector<std::string> SweepReport::to_csv_lines() const {
  io::CsvWriter csv("");
  csv.header({std::begin(kCsvColumns), std::end(kCsvColumns)});
  const std::vector<double> speedup = speedups();
  const std::vector<int> order = ranking();
  std::vector<int> rank_of(cells.size(), 0);  // 1-based; 0 = unranked
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    rank_of[order[pos]] = static_cast<int>(pos) + 1;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepOutcome& c = cells[i];
    const char* status =
        c.skipped ? "skipped" : (!c.fail_reason.empty() ? "failed" : "ok");
    csv.row(c.config.solver, to_string(c.config.precon), c.config.halo_depth,
            c.config.mesh_n, c.config.threads, c.config.tile_rows,
            c.config.dims == 3 ? "3d" : "2d",
            c.config.op, c.config.precision, ranks, steps, status,
            c.converged ? 1 : 0, c.iterations, c.inner_steps, c.spmv,
            c.reductions, c.exchanges, c.messages, c.message_bytes,
            fmt_double(c.final_norm),
            fmt_double(c.solve_seconds), fmt_double(c.comm_seconds),
            fmt_double(speedup[i]), rank_of[i]);
  }
  return csv.lines();
}

void SweepReport::write_csv(const std::string& path) const {
  io::CsvWriter csv(path);
  for (const std::string& line : to_csv_lines()) {
    csv.row(line);  // lines are pre-joined; emit verbatim
  }
}

io::JsonValue SweepReport::to_json() const {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("ranks", ranks);
  doc.set("steps", steps);
  io::JsonValue arr = io::JsonValue::array();
  const std::vector<double> speedup = speedups();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepOutcome& c = cells[i];
    io::JsonValue cell = io::JsonValue::object();
    cell.set("solver", c.config.solver);
    cell.set("precon", to_string(c.config.precon));
    cell.set("halo_depth", c.config.halo_depth);
    cell.set("mesh", c.config.mesh_n);
    cell.set("threads", c.config.threads);
    cell.set("tile_rows", c.config.tile_rows);
    cell.set("geometry", c.config.dims == 3 ? "3d" : "2d");
    cell.set("operator", c.config.op);
    cell.set("precision", c.config.precision);
    cell.set("skipped", c.skipped);
    if (c.skipped) cell.set("skip_reason", c.skip_reason);
    if (!c.fail_reason.empty()) cell.set("fail_reason", c.fail_reason);
    cell.set("converged", c.converged);
    cell.set("iterations", c.iterations);
    cell.set("inner_steps", c.inner_steps);
    cell.set("spmv", c.spmv);
    cell.set("reductions", c.reductions);
    cell.set("exchanges", c.exchanges);
    cell.set("messages", c.messages);
    cell.set("message_bytes", c.message_bytes);
    cell.set("final_norm", c.final_norm);
    cell.set("solve_seconds", c.solve_seconds);
    cell.set("comm_seconds", c.comm_seconds);
    cell.set("speedup", speedup[i]);
    arr.push_back(std::move(cell));
  }
  doc.set("cells", std::move(arr));
  io::JsonValue order = io::JsonValue::array();
  for (const int i : ranking()) order.push_back(i);
  doc.set("ranking", std::move(order));
  const int b = best();
  doc.set("best", b >= 0 ? io::JsonValue(b) : io::JsonValue());
  if (b >= 0) doc.set("best_label", cells[b].config.label());
  return doc;
}

void SweepReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  TEA_REQUIRE(out.is_open(), "cannot open JSON output: " + path);
  out << to_json().dump(2) << "\n";
}

SweepReport SweepReport::from_json(const io::JsonValue& doc) {
  SweepReport report;
  report.ranks = json_int<int>(doc, "ranks");
  report.steps = json_int<int>(doc, "steps");
  const io::JsonValue& arr = doc.at("cells");
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const io::JsonValue& cell = arr.at(i);
    // Sweeps recorded before the pipelined and unfused schedules were
    // retired carry "pipeline" and "fused" flags.  A cell that names a
    // retired schedule ("pipeline": true or "fused": false) measured a
    // route that no longer exists, so it is dropped.
    if (cell.contains("pipeline") && cell.at("pipeline").as_bool()) continue;
    if (cell.contains("fused") && !cell.at("fused").as_bool()) continue;
    SweepOutcome out;
    out.config.solver = cell.at("solver").as_string();
    out.config.precon = precon_type_from_string(cell.at("precon").as_string());
    out.config.halo_depth = json_int<int>(cell, "halo_depth");
    out.config.mesh_n = json_int<int>(cell, "mesh");
    out.config.threads = json_int<int>(cell, "threads");
    if (cell.contains("tile_rows")) {
      out.config.tile_rows = json_int<int>(cell, "tile_rows");
    }
    if (cell.contains("geometry")) {
      const std::string& geometry = cell.at("geometry").as_string();
      TEA_REQUIRE(geometry == "2d" || geometry == "3d",
                  "sweep json: unknown geometry \"" + geometry +
                      "\" (expected 2d or 3d)");
      out.config.dims = geometry == "3d" ? 3 : 2;
    }
    if (cell.contains("operator")) {
      out.config.op = cell.at("operator").as_string();
      (void)operator_kind_from_string(out.config.op);  // throws on unknown
    }
    if (cell.contains("precision")) {
      out.config.precision =
          to_string(precision_from_string(cell.at("precision").as_string()));
    }
    out.skipped = cell.at("skipped").as_bool();
    if (cell.contains("skip_reason")) {
      out.skip_reason = cell.at("skip_reason").as_string();
    }
    if (cell.contains("fail_reason")) {
      out.fail_reason = cell.at("fail_reason").as_string();
    }
    out.converged = cell.at("converged").as_bool();
    out.iterations = json_int<int>(cell, "iterations");
    out.inner_steps = json_int<long long>(cell, "inner_steps");
    out.spmv = json_int<long long>(cell, "spmv");
    out.reductions = json_int<long long>(cell, "reductions");
    out.exchanges = json_int<long long>(cell, "exchanges");
    out.messages = json_int<long long>(cell, "messages");
    out.message_bytes = json_int<long long>(cell, "message_bytes");
    out.final_norm = cell.at("final_norm").as_number();
    out.solve_seconds = cell.at("solve_seconds").as_number();
    out.comm_seconds = cell.at("comm_seconds").as_number();
    report.cells.push_back(std::move(out));
  }
  return report;
}

SweepReport SweepReport::from_json_string(const std::string& text) {
  return from_json(io::JsonValue::parse(text));
}

}  // namespace tealeaf
