#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/solve_api.hpp"
#include "server/routing.hpp"
#include "util/stats.hpp"

namespace tealeaf {

struct ServerOptions {
  /// Largest same-shape coalesced batch handed to the sub-team engine.
  int max_batch = 8;
  /// Session-cache capacity (SessionCache LRU bound).
  std::size_t max_sessions = 8;
  /// Ranked configuration table (e.g. from the nightly sweep JSON).
  /// Empty ⇒ every request runs its deck's own solver config.
  RoutingTable routes;
  /// Feed each converged request's measured latency back into the table
  /// (RoutingTable::observe): routes whose observed seconds disagree with
  /// the prediction beyond learn.demote_ratio are demoted online, and
  /// breakdown re-routes demote the broken route immediately.
  bool learn_routes = false;
  /// Online-refinement policy (min observations, demotion ratio, EWMA
  /// weight).  Validated at construction via RoutingTable::set_learning.
  RouteLearnOptions learn;
  /// Versioned RouteDatabase path: merged into the table at construction
  /// when the file exists (merge-on-load — multiple servers compound),
  /// written back by save_route_db().
  std::string route_db_path;
  /// Test hook: when set, replaces the measured seconds handed to
  /// observe() with its return value (arguments: route key, measured
  /// seconds).  Lets tests drive deterministic latencies through the
  /// real learning path.  Never affects latency_seconds reporting.
  std::function<double(const std::string&, double)> learn_latency_hook;
};

/// Service-side counters.  Latency quantiles are per-request wall times
/// (a batched request's latency is its batch's wall time — requests wait
/// for their batch).
struct ServerStats {
  long long requests = 0;           ///< served and rejected alike
  long long batches = 0;            ///< drain flushes handed to the engine
  long long batched_requests = 0;   ///< requests that shared a batch (B > 1)
  long long cache_hits = 0;         ///< session reuse (SessionCache)
  long long cache_misses = 0;
  long long reroutes = 0;           ///< breakdown-triggered retries
  long long failures = 0;           ///< requests not ok(), rejected included
  long long route_observations = 0; ///< latencies fed back into the table
  long long demotions = 0;          ///< routes newly demoted this server
  long long promotions = 0;         ///< demotions cleared by fresh evidence
  double busy_seconds = 0.0;        ///< wall time spent solving in drain()
  /// Per-request seconds; rejected requests have none.  Fixed-size, so a
  /// long-lived server's stats stay the same size however many it serves.
  LogHistogram latency;

  [[nodiscard]] double p50() const { return latency.quantile(0.50); }
  [[nodiscard]] double p99() const { return latency.quantile(0.99); }
  /// Requests (rejected ones included) per busy second.
  [[nodiscard]] double throughput() const {
    return busy_seconds > 0.0 ? static_cast<double>(requests) / busy_seconds
                              : 0.0;
  }
};

/// Long-lived solve service: accepts a stream of SolveRequests, coalesces
/// same-shape requests into sub-team batches over a pool of cached
/// sessions, routes each request to the sweep-ranked configuration for
/// its shape, and retries numerical breakdowns once on the next-ranked
/// route.  All solves go through SolveSession — the server is a scheduler
/// in front of the one entry path, not a fourth solver path.
class SolveServer {
 public:
  explicit SolveServer(ServerOptions opts = {});

  /// Queue a request.  Nothing runs until drain().
  void submit(SolveRequest req);

  /// Run every queued request: route and validate each, group by problem
  /// shape (preserving arrival order within a group), borrow sessions
  /// from the cache, solve each group through the batch engine in chunks
  /// of at most max_batch, then retry a broken attempt once on the next
  /// route.  A request the server cannot serve (an invalid deck or
  /// config, a rule a solver enforces, an unreadable matrix file) comes
  /// back with SolveResult::error set; the rest of the drain carries on.
  /// Results return in arrival order.
  [[nodiscard]] std::vector<SolveResult> drain();

  /// submit + drain for a single request.
  [[nodiscard]] SolveResult solve_one(SolveRequest req);

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const SessionCache& sessions() const { return cache_; }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// The live routing table, including whatever the server has learned so
  /// far (its RouteDatabase grows as drain() observes latencies).
  [[nodiscard]] const RoutingTable& routes() const { return opts_.routes; }

  /// Persist the accumulated RouteDatabase to options().route_db_path.
  /// Throws TeaError when no path was configured.
  void save_route_db() const;

 private:
  /// The configuration a request will run: its explicit override, else
  /// the best viable routing entry, else the deck's own solver config.
  /// Routed entries overlay their structural axes onto the deck config
  /// (RouteEntry::overlay), keeping the deck's tolerances.
  struct Routed {
    SolverConfig config;
    /// The table entry `config` came from (nullopt = explicit override or
    /// deck config: no label, nothing to learn against).
    std::optional<RouteEntry> entry;
    /// Ranked alternatives for the breakdown re-route (excludes `entry`).
    std::vector<RouteEntry> fallbacks;
  };
  [[nodiscard]] Routed route_request(const SolveRequest& req) const;

  /// One request of an in-flight drain (defined in solve_server.cpp).
  struct Pending;
  /// The one-shot breakdown re-route of a broken attempt.
  void reroute(Pending& p, SolveResult& res);
  /// Report the final route on `res` and, when learning, feed the
  /// attempt back into the table: a breakdown demotes, anything else is
  /// a latency sample.
  void observe(const Pending& p, SolveResult& res);

  ServerOptions opts_;
  SessionCache cache_;
  ServerStats stats_;
  std::deque<SolveRequest> queue_;
};

}  // namespace tealeaf
