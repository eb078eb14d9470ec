#include "server/solve_server.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "server/batch.hpp"
#include "solvers/solver.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace tealeaf {

double ServerStats::percentile(double q) const {
  if (latencies.empty()) return 0.0;
  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * (static_cast<double>(sorted.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

SolveServer::SolveServer(ServerOptions opts)
    : opts_(std::move(opts)), cache_(opts_.max_sessions) {
  TEA_REQUIRE(opts_.max_batch >= 1, "solve server: max_batch must be >= 1");
  opts_.routes.set_learning(opts_.learn);  // validates the policy
  if (!opts_.route_db_path.empty()) {
    // Merge-on-load: evidence from earlier runs (or other servers writing
    // the same path) compounds with whatever the table already holds.
    opts_.routes.merge_database(
        RouteDatabase::load_if_exists(opts_.route_db_path));
  }
}

void SolveServer::save_route_db() const {
  TEA_REQUIRE(!opts_.route_db_path.empty(),
              "solve server: save_route_db needs ServerOptions::route_db_path");
  opts_.routes.database().save(opts_.route_db_path);
}

void SolveServer::submit(SolveRequest req) { queue_.push_back(std::move(req)); }

SolveServer::Routed SolveServer::route_request(const SolveRequest& req,
                                               int max_halo) const {
  Routed r;
  if (req.config.has_value()) {
    r.config = *req.config;
    return r;  // explicit override: no routing, no ranked fallbacks
  }
  const int mesh_n = std::max(req.deck.x_cells, req.deck.y_cells);
  std::vector<RouteEntry> ranked =
      opts_.routes.route(req.deck.dims, mesh_n, req.nranks);
  if (max_halo > 0) {
    std::erase_if(ranked, [&](const RouteEntry& e) {
      return e.config.halo_depth > max_halo;
    });
  }
  if (!req.deck.matrix_file.empty()) {
    // A loaded Matrix Market operator only exists on the assembled paths:
    // stencil-operator routes (mg-pcg included) cannot serve this deck,
    // and neither can reduced precision (no stencil coefficients to
    // re-assemble in fp32).
    std::erase_if(ranked, [](const RouteEntry& e) {
      return e.config.op == OperatorKind::kStencil ||
             e.config.precision != Precision::kDouble;
    });
  }
  if (ranked.empty()) {
    r.config = req.deck.solver;
    return r;
  }
  const RouteEntry& best = ranked.front();
  r.config = best.overlay(req.deck.solver);
  r.label = best.label();
  r.route_key = best.route_key();
  r.predicted_seconds = best.predicted_seconds;
  r.observations = best.observations;
  r.learned = best.learned;
  r.demoted = best.demoted;
  r.fallbacks.assign(ranked.begin() + 1, ranked.end());
  return r;
}

SolveStats SolveServer::solve_solo(SolveSession& session,
                                   const SolverConfig& cfg) const {
  const SolverConfig resolved = cfg.validated();
  session.prepare(resolved.op);
  const SolveStats st = run_solver(session.cluster(), resolved);
  // On breakdown, u is garbage: skip the energy recovery so the session's
  // energy field stays intact and a retry can rebuild u0 from it.
  if (!st.breakdown) session.finish_solve(st);
  return st;
}

namespace {

/// One request of an in-flight drain group, carrying its routing decision
/// and borrowed session through batching and the re-route pass.
struct Pending {
  std::size_t order = 0;  ///< arrival index (results return in this order)
  const SolveRequest* req = nullptr;
  SolveSession* session = nullptr;
  SolverConfig config;
  std::string label;
  bool hinted = false;
  std::vector<RouteEntry> fallbacks;
  /// Refinement identity of the route being run ("" = override/fallback);
  /// the re-route pass rewrites these when it switches entries.
  std::string route_key;
  double predicted_seconds = 0.0;
  long long observations = 0;
  bool learned = false;
  bool demoted = false;
};

}  // namespace

std::vector<SolveResult> SolveServer::drain() {
  std::vector<SolveRequest> reqs(queue_.begin(), queue_.end());
  queue_.clear();
  std::vector<SolveResult> results(reqs.size());
  if (reqs.empty()) return results;
  Timer drain_timer;

  // Route first: the chosen configuration fixes each request's halo
  // allocation and so its shape key.  Groups keep arrival order.
  std::vector<Pending> pending(reqs.size());
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::string> group_order;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Pending& p = pending[i];
    p.order = i;
    p.req = &reqs[i];
    const Routed routed = route_request(reqs[i]);
    p.config = routed.config;
    p.label = routed.label;
    p.fallbacks = routed.fallbacks;
    p.route_key = routed.route_key;
    p.predicted_seconds = routed.predicted_seconds;
    p.observations = routed.observations;
    p.learned = routed.learned;
    p.demoted = routed.demoted;
    // The routed (or override) precision is part of the session shape:
    // write it back into this drain's copy of the deck so the group key,
    // the cache acquire and the session reset all agree, and an fp64
    // request can never share a session — or its eigenvalue memo — with a
    // single/mixed one of the same geometry.
    reqs[i].deck.solver.precision = p.config.precision;
    const int halo = std::max(2, p.config.halo_depth);
    const std::string key =
        ProblemShape::of(reqs[i].deck, reqs[i].nranks, halo).key();
    auto [it, fresh] = groups.try_emplace(key);
    if (fresh) group_order.push_back(key);
    it->second.push_back(i);
  }

  const long long hits_before = cache_.hits();
  for (const std::string& key : group_order) {
    const std::vector<std::size_t>& members = groups[key];
    for (std::size_t at = 0; at < members.size();
         at += static_cast<std::size_t>(opts_.max_batch)) {
      const std::size_t chunk = std::min(
          members.size() - at, static_cast<std::size_t>(opts_.max_batch));
      const SolveRequest& first = reqs[members[at]];
      const int halo =
          std::max(2, pending[members[at]].config.halo_depth);
      std::vector<SolveSession*> sessions = cache_.acquire(
          first.deck, first.nranks, halo, static_cast<int>(chunk));

      Timer batch_timer;
      std::vector<BatchItem> items;
      std::vector<Pending*> batch;  // batchable members, aligned with items
      for (std::size_t b = 0; b < chunk; ++b) {
        Pending& p = pending[members[at + b]];
        p.session = sessions[b];
        p.session->reset(p.req->deck);
        if (opts_.reuse_eigen_estimates && p.session->has_eig_estimate()) {
          p.config = p.session->with_eig_hints(p.config);
        }
        // Explicit-override hints count too: stripping them is a valid
        // re-route when they turn out stale.
        p.hinted = p.config.has_eig_hints();
        if (!batchable(p.config)) continue;  // solo below
        p.config = p.config.validated();
        p.session->prepare(p.config.op);
        items.push_back({&p.session->cluster(), p.config, {}});
        batch.push_back(&p);
      }
      solve_batched(items);
      for (std::size_t b = 0; b < items.size(); ++b) {
        // Broken attempts skip the energy recovery (u is garbage), keeping
        // the session's fields intact for the re-route retry.
        if (!items[b].stats.breakdown) {
          batch[b]->session->finish_solve(items[b].stats);
        }
      }

      // Members the batch engine cannot run solve solo: run_solver builds
      // the multigrid hierarchy and dispatches the fp32 storage and the
      // iterative-refinement outer loop itself, outside any region.
      for (std::size_t b = 0; b < chunk; ++b) {
        Pending& p = pending[members[at + b]];
        if (!batchable(p.config)) {
          results[p.order].stats = solve_solo(*p.session, p.config);
        }
      }
      ++stats_.batches;
      if (items.size() > 1) {
        stats_.batched_requests += static_cast<long long>(items.size());
      }

      const double batch_seconds = batch_timer.elapsed_s();
      for (std::size_t b = 0; b < items.size(); ++b) {
        results[batch[b]->order].stats = items[b].stats;
        results[batch[b]->order].batched = items.size() > 1;
      }
      for (std::size_t b = 0; b < chunk; ++b) {
        Pending& p = pending[members[at + b]];
        SolveResult& res = results[p.order];
        res.config = p.config;
        res.route_label = p.label;
        res.tag = p.req->tag;
        res.latency_seconds = batch_seconds;

        // One-shot breakdown re-route: hinted solves fall back to the
        // prestepped form of the same route; otherwise the next-ranked
        // entry that fits this session's halo runs.
        if (res.stats.breakdown && opts_.reroute_on_failure) {
          Timer retry_timer;
          SolverConfig retry = p.config;
          std::string retry_label = p.label;
          std::string retry_route_key = p.route_key;
          double retry_predicted = p.predicted_seconds;
          bool have_retry = false;
          bool switched_route = false;
          if (p.hinted) {
            retry.eig_hint_min = retry.eig_hint_max = 0.0;
            have_retry = true;
          } else {
            for (const RouteEntry& e : p.fallbacks) {
              if (e.config.halo_depth >
                  p.session->cluster().halo_depth()) {
                continue;
              }
              retry = e.overlay(p.req->deck.solver);
              // The session's shape was keyed on the first route's
              // precision, so the retry keeps it rather than adopting the
              // fallback's (a precision flip would need a new session).
              // A fallback that cannot run at that precision (mg-pcg is
              // double-only) is passed over.
              retry.precision = p.req->deck.solver.precision;
              try {
                retry = retry.validated();
              } catch (const TeaError&) {
                continue;
              }
              retry_label = e.label();
              retry_route_key = e.route_key();
              retry_predicted = e.predicted_seconds;
              have_retry = true;
              switched_route = true;
              break;
            }
          }
          if (have_retry) {
            // A breakdown that forces a route switch is the strongest
            // negative evidence there is: demote the broken route before
            // running the fallback.  A hint-strip retry stays on the same
            // route — the stale hints were at fault, not the entry.
            if (opts_.learn_routes && switched_route &&
                !p.route_key.empty()) {
              const ObserveOutcome o = opts_.routes.observe_breakdown(
                  p.req->deck.dims,
                  std::max(p.req->deck.x_cells, p.req->deck.y_cells),
                  p.req->nranks, p.route_key);
              ++stats_.route_observations;
              if (o.newly_demoted) ++stats_.demotions;
            }
            p.route_key = retry_route_key;
            p.predicted_seconds = retry_predicted;
            p.session->forget_eig_estimate();
            res.failed_attempt_iters =
                res.stats.outer_iters + res.stats.inner_steps;
            // The broken attempt skipped finish_solve, so energy is still
            // the request's input state; the retry's prepare() rebuilds
            // u/u0 from it.
            res.stats = solve_solo(*p.session, retry);
            res.config = retry;
            res.route_label = retry_label;
            res.attempts = 2;
            res.rerouted = true;
            ++stats_.reroutes;
            res.latency_seconds += retry_timer.elapsed_s();
          }
        }

        // Close the routing loop: feed the measured latency of the final
        // attempt back into the table.  Non-converged (but not broken)
        // attempts still observe — running to max_iters is an honest
        // measurement of at least how slow the route is here.
        if (!p.route_key.empty()) {
          res.predicted_route_seconds = p.predicted_seconds;
          res.route_observations = p.observations;
          res.route_learned = p.learned;
          res.route_demoted = p.demoted;
          if (opts_.learn_routes) {
            const int mesh_n =
                std::max(p.req->deck.x_cells, p.req->deck.y_cells);
            ObserveOutcome o;
            if (res.stats.breakdown) {
              // Final attempt broke down (no viable re-route): demote.
              o = opts_.routes.observe_breakdown(
                  p.req->deck.dims, mesh_n, p.req->nranks, p.route_key);
            } else {
              double measured = res.latency_seconds;
              if (opts_.learn_latency_hook) {
                measured = opts_.learn_latency_hook(p.route_key, measured);
              }
              o = opts_.routes.observe(p.req->deck.dims, mesh_n,
                                       p.req->nranks, p.route_key, measured,
                                       p.predicted_seconds);
            }
            ++stats_.route_observations;
            if (o.newly_demoted) ++stats_.demotions;
            if (o.newly_promoted) ++stats_.promotions;
            res.route_observations = o.observations;
            res.route_demoted = o.demoted;
            res.route_learned =
                o.observations >= opts_.learn.min_observations;
          }
        }
        if (!res.ok()) ++stats_.failures;
      }
    }
  }

  stats_.requests += static_cast<long long>(reqs.size());
  stats_.busy_seconds += drain_timer.elapsed_s();
  const long long new_hits = cache_.hits() - hits_before;
  stats_.cache_hits = cache_.hits();
  stats_.cache_misses = cache_.misses();
  for (SolveResult& res : results) {
    stats_.latencies.push_back(res.latency_seconds);
  }
  // cache_hit marks are per-drain approximations: the first `new_hits`
  // requests of each drain reused pooled sessions.
  long long mark = new_hits;
  for (SolveResult& res : results) {
    if (mark-- <= 0) break;
    res.cache_hit = true;
  }
  return results;
}

SolveResult SolveServer::solve_one(SolveRequest req) {
  submit(std::move(req));
  std::vector<SolveResult> out = drain();
  TEA_ASSERT(out.size() == 1, "solve_one: expected exactly one result");
  return out.front();
}

RunResult SolveServer::run(const InputDeck& deck, int nranks) {
  Timer timer;
  RunResult result;

  // Deck-driven learning: tl_route_db merges a persisted database in (and
  // receives the accumulated one at the end when learning), tl_route_learn
  // turns latency feedback on for this run, tl_route_demote_ratio
  // overrides the demotion threshold.
  if (!deck.route_db.empty()) {
    opts_.routes.merge_database(RouteDatabase::load_if_exists(deck.route_db));
  }
  if (deck.route_demote_ratio > 0.0) {
    opts_.learn.demote_ratio = deck.route_demote_ratio;
    opts_.routes.set_learning(opts_.learn);
  }
  const bool learn = opts_.learn_routes || deck.route_learn;

  SolveRequest probe;
  probe.deck = deck;
  probe.nranks = nranks;
  const Routed first = route_request(probe);
  const int halo = std::max(
      {2, first.config.halo_depth, deck.solver.halo_depth});
  SolveSession session(deck, nranks, halo);
  const int mesh_n = std::max(deck.x_cells, deck.y_cells);

  const int steps = deck.num_steps();
  for (int s = 0; s < steps; ++s) {
    // Steps share the session (each consumes the previous step's energy),
    // so re-route candidates must fit the allocated halo.  Routing runs
    // fresh every step, so a demotion learned on step s re-routes step
    // s+1 — within-run convergence onto the fastest route.
    Routed routed = route_request(probe, session.cluster().halo_depth());
    std::string route_key = routed.route_key;
    double predicted = routed.predicted_seconds;
    if (opts_.reuse_eigen_estimates && session.has_eig_estimate()) {
      routed.config = session.with_eig_hints(routed.config);
    }
    const bool hinted = routed.config.has_eig_hints();
    SolveStats st = solve_solo(session, routed.config);
    if (st.breakdown && opts_.reroute_on_failure &&
        (hinted || !routed.fallbacks.empty())) {
      session.forget_eig_estimate();
      result.total_failed_attempt_iters += st.outer_iters + st.inner_steps;
      ++result.reroutes;
      ++stats_.reroutes;
      SolverConfig retry = routed.config;
      if (hinted) {
        retry.eig_hint_min = retry.eig_hint_max = 0.0;
      } else {
        const RouteEntry& e = routed.fallbacks.front();
        if (learn && !route_key.empty()) {
          const ObserveOutcome o = opts_.routes.observe_breakdown(
              deck.dims, mesh_n, nranks, route_key);
          ++stats_.route_observations;
          if (o.newly_demoted) ++stats_.demotions;
        }
        retry = e.overlay(deck.solver);
        route_key = e.route_key();
        predicted = e.predicted_seconds;
      }
      // The broken attempt skipped finish_solve: this step's input energy
      // is intact and the retry replays the SAME step from it.
      st = solve_solo(session, retry);
    }
    if (learn && !route_key.empty() && !st.breakdown) {
      double measured = st.solve_seconds;
      if (opts_.learn_latency_hook) {
        measured = opts_.learn_latency_hook(route_key, measured);
      }
      const ObserveOutcome o = opts_.routes.observe(
          deck.dims, mesh_n, nranks, route_key, measured, predicted);
      ++stats_.route_observations;
      if (o.newly_demoted) ++stats_.demotions;
      if (o.newly_promoted) ++stats_.promotions;
    }
    result.all_converged = result.all_converged && st.converged;
    result.total_outer_iters += st.outer_iters;
    result.total_inner_steps += st.inner_steps;
    result.total_spmv += st.spmv_applies;
  }
  if (learn && !deck.route_db.empty()) {
    opts_.routes.database().save(deck.route_db);
  }
  ++stats_.requests;  // one run() counts as one logical request stream
  result.steps = steps;
  result.sim_time = session.sim_time();
  result.final_summary = session.field_summary();
  result.wall_seconds = timer.elapsed_s();
  return result;
}

}  // namespace tealeaf
