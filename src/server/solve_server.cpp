#include "server/solve_server.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "solvers/solver.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace tealeaf {

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

SolveServer::Routed SolveServer::route_request(const SolveRequest& req) const {
  Routed r;
  if (req.config.has_value()) {
    r.config = *req.config;
    return r;  // explicit override: no routing, no ranked fallbacks
  }
  const int mesh_n = std::max(req.deck.x_cells, req.deck.y_cells);
  std::vector<RouteEntry> ranked =
      opts_.routes.route(req.deck.dims, mesh_n, req.nranks);
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
  r.config = ranked.front().overlay(req.deck.solver);
  r.entry = ranked.front();
  r.fallbacks.assign(ranked.begin() + 1, ranked.end());
  return r;
}

/// One request of an in-flight drain, carrying its routing decision and
/// borrowed session through batching and the re-route.
struct SolveServer::Pending {
  const SolveRequest* req = nullptr;
  Routed routed;
  SolveSession* session = nullptr;
};

void SolveServer::reroute(Pending& p, SolveResult& res) {
  const Timer retry_timer;
  SolverConfig retry = p.routed.config;
  if (retry.has_eig_hints()) {
    // Stale hints: retry the prestepped form of the same route.
    retry.eig_hint_min = retry.eig_hint_max = 0.0;
  } else {
    // The next-ranked entry that fits this session.  The session's shape
    // was keyed on the first route's precision, so the retry keeps it
    // rather than adopting the fallback's (a precision flip would need a
    // new session); a fallback that cannot run at that precision (mg-pcg
    // is double-only) is passed over.
    const RouteEntry* next = nullptr;
    for (const RouteEntry& e : p.routed.fallbacks) {
      if (e.config.halo_depth > p.session->cluster().halo_depth()) continue;
      retry = e.overlay(p.req->deck.solver);
      retry.precision = p.req->deck.solver.precision;
      try {
        retry = retry.validated();
      } catch (const TeaError&) {
        continue;
      }
      next = &e;
      break;
    }
    if (next == nullptr) return;
    // A breakdown that forces a route switch is the strongest negative
    // evidence there is: demote the broken route before running the
    // fallback.  A hint-strip retry stays on the same route — the stale
    // hints were at fault, not the entry.
    observe(p, res);
    p.routed.entry = *next;
    res.route_label = next->label();
  }
  p.routed.config = retry;
  res.config = retry;
  res.failed_attempt_iters = res.stats.outer_iters + res.stats.inner_steps;
  res.attempts = 2;
  res.rerouted = true;
  ++stats_.reroutes;
  // The broken attempt left the session's energy as the request's input
  // state (finish_solve skips broken attempts), so the retry replays the
  // same step.
  try {
    res.stats = p.session->solve(retry);
  } catch (const TeaError& e) {
    res.error = e.what();
  }
  res.latency_seconds += retry_timer.elapsed_s();
}

void SolveServer::observe(const Pending& p, SolveResult& res) {
  if (!p.routed.entry) return;
  const RouteEntry& e = *p.routed.entry;
  res.predicted_route_seconds = e.predicted_seconds;
  res.route_observations = e.observations;
  res.route_learned = e.learned;
  res.route_demoted = e.demoted;
  if (!opts_.learn_routes) return;
  const InputDeck& deck = p.req->deck;
  const int mesh_n = std::max(deck.x_cells, deck.y_cells);
  const std::string key = e.route_key();
  ObserveOutcome o;
  if (res.stats.breakdown) {
    o = opts_.routes.observe_breakdown(deck.dims, mesh_n, p.req->nranks, key);
  } else {
    // Non-converged (but not broken) attempts still observe: running to
    // max_iters is an honest measurement of at least how slow the route
    // is here.
    double measured = res.latency_seconds;
    if (opts_.learn_latency_hook) {
      measured = opts_.learn_latency_hook(key, measured);
    }
    o = opts_.routes.observe(deck.dims, mesh_n, p.req->nranks, key, measured,
                             e.predicted_seconds);
  }
  ++stats_.route_observations;
  if (o.newly_demoted) ++stats_.demotions;
  if (o.newly_promoted) ++stats_.promotions;
  res.route_observations = o.observations;
  res.route_demoted = o.demoted;
  res.route_learned = o.observations >= opts_.learn.min_observations;
}

std::vector<SolveResult> SolveServer::drain() {
  std::vector<SolveRequest> reqs(queue_.begin(), queue_.end());
  queue_.clear();
  std::vector<SolveResult> results(reqs.size());
  if (reqs.empty()) return results;
  Timer drain_timer;

  // Route and validate first: the chosen configuration fixes each
  // request's halo allocation and so its shape key, and a request that
  // fails validation fails alone.  Groups keep arrival order.
  std::vector<Pending> pending(reqs.size());
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::string> group_order;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SolveRequest& req = reqs[i];
    Pending& p = pending[i];
    p.req = &req;
    results[i].tag = req.tag;
    try {
      p.routed = route_request(req);
      // The routed (or override) precision is part of the session shape:
      // write it back into this drain's copy of the deck so the group
      // key, the cache acquire and the session reset all agree, and an
      // fp64 request never shares a session with a single/mixed one of
      // the same geometry.
      req.deck.solver.precision = p.routed.config.precision;
      req.deck.validate();
      p.routed.config = p.routed.config.validated();
    } catch (const TeaError& e) {
      results[i].error = e.what();
      continue;
    }
    const int halo = std::max(2, p.routed.config.halo_depth);
    const std::string key = ProblemShape::of(req.deck, req.nranks, halo).key();
    auto [it, fresh] = groups.try_emplace(key);
    if (fresh) group_order.push_back(key);
    it->second.push_back(i);
  }

  for (const std::string& key : group_order) {
    const std::vector<std::size_t>& members = groups[key];
    for (std::size_t at = 0; at < members.size();
         at += static_cast<std::size_t>(opts_.max_batch)) {
      const std::size_t chunk = std::min(
          members.size() - at, static_cast<std::size_t>(opts_.max_batch));
      const Pending& first = pending[members[at]];
      std::vector<SolverConfig> routes;
      for (std::size_t b = 0; b < chunk; ++b) {
        routes.push_back(pending[members[at + b]].routed.config);
      }
      const long long hits_before = cache_.hits();
      std::vector<SolveSession*> sessions;
      try {
        // A session built here holds its request's route fields, not the
        // deck solver's.
        sessions = cache_.acquire(first.req->deck, first.req->nranks,
                                  std::max(2, first.routed.config.halo_depth),
                                  routes);
      } catch (const TeaError& e) {
        // The chunk shares one shape: none of it can be served.
        for (std::size_t b = 0; b < chunk; ++b) {
          results[members[at + b]].error = e.what();
        }
        continue;
      }
      // acquire hands out the pooled sessions first.
      const std::size_t hits =
          static_cast<std::size_t>(cache_.hits() - hits_before);

      Timer batch_timer;
      std::vector<BatchItem> items;
      std::vector<std::size_t> batch;  // the members in items, aligned
      for (std::size_t b = 0; b < chunk; ++b) {
        const std::size_t i = members[at + b];
        Pending& p = pending[i];
        p.session = sessions[b];
        results[i].cache_hit = b < hits;
        try {
          p.session->reset(p.req->deck);
          p.session->prepare(p.routed.config.op);
        } catch (const TeaError& e) {
          results[i].error = e.what();
          continue;
        }
        items.push_back({&p.session->cluster(), p.routed.config, {}, {}});
        batch.push_back(i);
      }
      // A member whose fields, hierarchy or fp32 operator do not fit, or
      // whose config its cluster cannot run, fails alone.
      solve_batched(items);
      const auto ran = static_cast<long long>(std::count_if(
          items.begin(), items.end(),
          [](const BatchItem& it) { return it.error.empty(); }));
      for (std::size_t b = 0; b < items.size(); ++b) {
        SolveResult& res = results[batch[b]];
        if (!items[b].error.empty()) {
          res.error = items[b].error;
          continue;
        }
        pending[batch[b]].session->finish_solve(items[b].stats);
        res.stats = items[b].stats;
        res.batched = ran > 1;
      }
      ++stats_.batches;
      if (ran > 1) stats_.batched_requests += ran;

      const double batch_seconds = batch_timer.elapsed_s();
      for (std::size_t b = 0; b < chunk; ++b) {
        const std::size_t i = members[at + b];
        Pending& p = pending[i];
        SolveResult& res = results[i];
        if (!res.error.empty()) continue;
        res.config = p.routed.config;
        if (p.routed.entry) res.route_label = p.routed.entry->label();
        res.latency_seconds = batch_seconds;
        if (res.stats.breakdown) reroute(p, res);
        // Close the routing loop on the final attempt.
        if (res.error.empty()) observe(p, res);
      }
    }
  }

  stats_.requests += static_cast<long long>(reqs.size());
  stats_.busy_seconds += drain_timer.elapsed_s();
  stats_.cache_hits = cache_.hits();
  stats_.cache_misses = cache_.misses();
  for (const SolveResult& res : results) {
    if (!res.ok()) ++stats_.failures;
    if (res.error.empty()) stats_.latency.add(res.latency_seconds);
  }
  return results;
}

SolveResult SolveServer::solve_one(SolveRequest req) {
  submit(std::move(req));
  std::vector<SolveResult> out = drain();
  TEA_ASSERT(out.size() == 1, "solve_one: expected exactly one result");
  return out.front();
}

}  // namespace tealeaf
