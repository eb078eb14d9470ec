#include "server/routing.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "model/scaling.hpp"
#include "precon/preconditioner.hpp"
#include "util/error.hpp"

namespace tealeaf {

namespace {

/// Shared tail of label() and route_key(): every axis past the mesh size.
void append_axis_suffixes(std::ostringstream& os, const RouteEntry& e) {
  // Every route runs the one (fused) schedule; the segment stays because
  // persisted route databases key evidence by it, and unfused keys of
  // older databases must not start matching the surviving route.
  os << "/fused";
  if (e.config.tile_rows != 0) os << "/b" << e.config.tile_rows;
  if (e.dims == 3) os << "/3d";
  if (e.config.op != OperatorKind::kStencil) {
    os << "/" << to_string(e.config.op);
  }
  if (e.config.precision == Precision::kSingle) os << "/f32";
  if (e.config.precision == Precision::kMixed) os << "/mixed";
}

}  // namespace

std::string RouteEntry::label() const {
  std::ostringstream os;
  if (projected) os << "~";
  os << solver << "/" << to_string(config.precon) << "/d"
     << config.halo_depth << "/n" << mesh_n;
  append_axis_suffixes(os, *this);
  return os.str();
}

std::string RouteEntry::route_key() const {
  std::ostringstream os;
  os << solver << "/" << to_string(config.precon) << "/d"
     << config.halo_depth;
  append_axis_suffixes(os, *this);
  return os.str();
}

SolverConfig RouteEntry::overlay(const SolverConfig& base) const {
  SolverConfig cfg = base;
  cfg.precon = config.precon;
  cfg.halo_depth = config.halo_depth;
  cfg.tile_rows = config.tile_rows;
  cfg.op = config.op;
  cfg.precision = config.precision;
  return with_solver_name(cfg, solver);
}

RouteEntry RouteEntry::validated() const {
  try {
    (void)overlay(config).validated();
  } catch (const TeaError& e) {
    throw TeaError("route " + label() + ": " + e.what());
  }
  return *this;
}

RoutingTable RoutingTable::from_sweep(const SweepReport& report) {
  RoutingTable table;
  table.ranks_ = report.ranks;
  table.steps_ = std::max(1, report.steps);
  for (const SweepOutcome& cell : report.cells) {
    if (cell.skipped || !cell.converged || !cell.fail_reason.empty()) {
      continue;
    }
    MeasuredCell mc;
    mc.entry.solver = cell.config.solver;
    if (cell.config.solver != "mg-pcg") {
      mc.entry.config.type = solver_type_from_string(cell.config.solver);
    }
    mc.entry.config.precon = cell.config.precon;
    mc.entry.config.halo_depth = cell.config.halo_depth;
    mc.entry.config.tile_rows = cell.config.tile_rows;
    mc.entry.config.op = operator_kind_from_string(cell.config.op);
    mc.entry.config.precision = precision_from_string(cell.config.precision);
    mc.entry.threads = cell.config.threads;
    mc.entry.mesh_n = cell.config.mesh_n;
    mc.entry.dims = cell.config.dims;
    // Rank and project per step, so tables swept with different step
    // counts stay comparable.
    mc.entry.seconds = cell.solve_seconds / table.steps_;
    mc.iterations = static_cast<int>(
        std::lround(static_cast<double>(cell.iterations) / table.steps_));
    table.cells_.push_back(std::move(mc));
  }
  return table;
}

RoutingTable RoutingTable::from_json_string(const std::string& text) {
  return from_sweep(SweepReport::from_json_string(text));
}

RoutingTable RoutingTable::from_json_file(const std::string& path) {
  std::ifstream in(path);
  TEA_REQUIRE(in.is_open(), "routing table: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json_string(buf.str());
}

std::vector<RouteEntry> RoutingTable::route(int dims, int mesh_n, int nranks,
                                            const MachineSpec& machine) const {
  // Exact shape first: cells measured on this (dims, mesh_n).
  std::vector<RouteEntry> out;
  const auto multigrid = [](const RouteEntry& e) {
    return e.overlay(e.config).precon == PreconType::kMultigrid;
  };
  const auto viable = [&](const MeasuredCell& mc) {
    if (mc.entry.dims != dims) return false;
    try {
      if (multigrid(mc.entry.validated()) && nranks > 1) return false;
    } catch (const TeaError&) {
      return false;
    }
    return true;
  };
  for (const MeasuredCell& mc : cells_) {
    if (viable(mc) && mc.entry.mesh_n == mesh_n) out.push_back(mc.entry);
  }
  if (out.empty()) {
    // Unseen mesh: take the nearest measured mesh of this geometry and
    // re-rank its entries through the scaling model's projection.
    int nearest = 0;
    for (const MeasuredCell& mc : cells_) {
      if (!viable(mc)) continue;
      if (nearest == 0 || std::abs(mc.entry.mesh_n - mesh_n) <
                              std::abs(nearest - mesh_n)) {
        nearest = mc.entry.mesh_n;
      }
    }
    if (nearest == 0) return out;
    const GlobalMesh source_mesh =
        dims == 3 ? GlobalMesh::make3d(nearest, nearest, nearest)
                  : GlobalMesh(nearest, nearest);
    const GlobalMesh target_mesh =
        dims == 3 ? GlobalMesh::make3d(mesh_n, mesh_n, mesh_n)
                  : GlobalMesh(mesh_n, mesh_n);
    const ScalingModel source_model(machine, source_mesh, /*timesteps=*/1);
    const ScalingModel target_model(machine, target_mesh, /*timesteps=*/1);
    for (const MeasuredCell& mc : cells_) {
      if (!viable(mc) || mc.entry.mesh_n != nearest) continue;
      RouteEntry e = mc.entry;
      e.projected = true;
      if (!multigrid(e)) {
        auto traced = traces_.find(e.route_key());
        if (traced == traces_.end()) {
          traced = traces_
                       .emplace(e.route_key(),
                                fixed_iteration_run(e.overlay(e.config), dims))
                       .first;
        }
        SolverRunSummary measured = with_outer_iters(
            traced->second,
            std::max(0, mc.iterations - traced->second.presteps));
        measured.mesh_n = nearest;
        const double base = source_model.run_seconds(measured, nranks);
        const double proj = target_model.run_seconds(
            project_to_mesh(measured, mesh_n), nranks);
        if (base > 0.0 && proj > 0.0) e.seconds *= proj / base;
      } else {
        // mg-pcg: near mesh-independent iterations, cost ∝ cells.
        const double cells_ratio =
            std::pow(static_cast<double>(mesh_n) / nearest, dims);
        e.seconds *= cells_ratio;
      }
      e.mesh_n = mesh_n;
      out.push_back(std::move(e));
    }
  }
  // Overlay the online evidence.  Blending is gradual — the measured EWMA
  // only takes over as observations accumulate — so one noisy sample
  // cannot flip a ranking the sweep backed with a full measurement.
  const std::string shape = shape_key(dims, mesh_n, nranks);
  for (RouteEntry& e : out) {
    e.predicted_seconds = e.seconds;
    const RouteObservation* obs = db_.find(shape, e.route_key());
    if (obs == nullptr) continue;
    e.observations = obs->observations;
    e.demoted = obs->demoted;
    e.learned = obs->observations >= learn_.min_observations;
    if (obs->observations > 0) {
      const double w =
          static_cast<double>(obs->observations) /
          static_cast<double>(obs->observations + learn_.min_observations);
      e.seconds = (1.0 - w) * e.predicted_seconds + w * obs->ewma_seconds;
    }
  }
  // Demoted entries fall below every non-demoted viable entry but keep
  // their relative order by blended seconds, so if everything for a shape
  // demotes the server still picks the fastest-observed of them.
  std::stable_sort(out.begin(), out.end(),
                   [](const RouteEntry& a, const RouteEntry& b) {
                     if (a.demoted != b.demoted) return !a.demoted;
                     return a.seconds < b.seconds;
                   });
  return out;
}

std::string RoutingTable::shape_key(int dims, int mesh_n, int nranks) {
  std::ostringstream os;
  os << dims << "d/n" << mesh_n << "/r" << nranks;
  return os.str();
}

void RoutingTable::set_learning(RouteLearnOptions opts) {
  TEA_REQUIRE(opts.min_observations >= 1,
              "route learning: min_observations must be >= 1");
  TEA_REQUIRE(opts.demote_ratio > 1.0,
              "route learning: demote_ratio must exceed 1 (a route cannot "
              "be demoted for matching its prediction)");
  TEA_REQUIRE(opts.ewma_alpha > 0.0 && opts.ewma_alpha <= 1.0,
              "route learning: ewma_alpha must be in (0, 1]");
  learn_ = opts;
}

ObserveOutcome RoutingTable::observe(int dims, int mesh_n, int nranks,
                                     const std::string& route_key,
                                     double measured_seconds,
                                     double predicted_seconds) {
  const std::string shape = shape_key(dims, mesh_n, nranks);
  RouteObservation& obs = db_.record(shape, route_key, measured_seconds,
                                     predicted_seconds, learn_.ewma_alpha);
  ObserveOutcome out;
  out.shape = shape;
  out.observations = obs.observations;
  out.ewma_seconds = obs.ewma_seconds;
  const bool was_demoted = obs.demoted;
  if (obs.observations >= learn_.min_observations &&
      predicted_seconds > 0.0) {
    const double ratio = obs.ewma_seconds / predicted_seconds;
    if (ratio > learn_.demote_ratio) {
      obs.demoted = true;
    } else if (obs.breakdowns == 0) {
      // Fresh evidence back inside the ratio clears a latency demotion;
      // a breakdown demotion stays until the database is rebuilt.
      obs.demoted = false;
    }
  }
  out.demoted = obs.demoted;
  out.newly_demoted = obs.demoted && !was_demoted;
  out.newly_promoted = !obs.demoted && was_demoted;
  return out;
}

ObserveOutcome RoutingTable::observe_breakdown(int dims, int mesh_n,
                                               int nranks,
                                               const std::string& route_key) {
  const std::string shape = shape_key(dims, mesh_n, nranks);
  const RouteObservation* before = db_.find(shape, route_key);
  const bool was_demoted = before != nullptr && before->demoted;
  const RouteObservation& obs = db_.record_breakdown(shape, route_key);
  ObserveOutcome out;
  out.shape = shape;
  out.observations = obs.observations;
  out.ewma_seconds = obs.ewma_seconds;
  out.demoted = true;
  out.newly_demoted = !was_demoted;
  return out;
}

RouteDatabase RoutingTable::seed_database() const {
  RouteDatabase db;
  for (const MeasuredCell& mc : cells_) {
    const std::string shape =
        shape_key(mc.entry.dims, mc.entry.mesh_n, std::max(1, ranks_));
    db.record(shape, mc.entry.route_key(), mc.entry.seconds,
              mc.entry.seconds, /*alpha=*/1.0);
  }
  return db;
}

}  // namespace tealeaf
