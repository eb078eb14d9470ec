#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/sim_comm.hpp"
#include "driver/deck.hpp"
#include "model/machine.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// The cached identity of a solve problem: everything that determines the
/// size (and so the reusable allocation) of a SimCluster — geometry, cell
/// counts, decomposition width and halo allocation.  Two requests with
/// equal shapes can run on the same session after a `reset`; coefficients
/// and right-hand side are NOT part of the shape.
struct ProblemShape {
  int dims = 2;
  int nx = 0;
  int ny = 0;
  int nz = 1;
  int nranks = 1;
  int halo = 2;  ///< halo allocation depth (max(2, matrix-powers depth))
  /// Operator representation the deck asks for.  Part of the shape so an
  /// assembled-operator session (which carries matrix storage) is never
  /// handed to a stencil request or vice versa.
  OperatorKind op = OperatorKind::kStencil;
  /// Storage precision the deck asks for.  Part of the shape so a session
  /// whose chunks carry (or lack) the fp32 field bank and fp32 assembled
  /// matrices is never handed to a request of the other precision.
  Precision precision = Precision::kDouble;

  [[nodiscard]] static ProblemShape of(const InputDeck& deck, int nranks,
                                       int halo);

  /// Stable cache key, e.g. "2d/512x512x1/r4/h2"; assembled-operator
  /// shapes append the kind ("…/h2/csr") and non-double precisions append
  /// "/f32" or "/mixed", so legacy stencil/double keys are unchanged.
  [[nodiscard]] std::string key() const;

  [[nodiscard]] bool operator==(const ProblemShape&) const = default;
};

/// One unit of work for the solve service: the problem (shape +
/// coefficients + right-hand side, all carried by the deck) plus an
/// optional solver-configuration override.  Without an override the
/// server routes the request through its RoutingTable (falling back to
/// `deck.solver` when no table is loaded).
struct SolveRequest {
  InputDeck deck;
  int nranks = 4;
  /// Explicit configuration override: skip routing and run exactly this.
  std::optional<SolverConfig> config;
  /// Caller correlation id, echoed into the SolveResult.
  std::string tag;
};

/// What came back.  `stats` describes the FINAL attempt only; iterations
/// burned by failed attempts live in `failed_attempt_iters` so summing
/// `stats.outer_iters` never double-counts a re-routed request.  A
/// request the server could not serve carries the reason in `error`.
struct SolveResult {
  SolveStats stats;
  SolverConfig config;        ///< configuration of the final attempt
  std::string route_label;    ///< routing-table entry label ("" = explicit)
  int attempts = 1;
  /// Work burned by attempts that broke down before the final one:
  /// outer iterations (incl. eigen presteps) plus inner Chebyshev steps.
  /// NOT included in `stats`.
  long long failed_attempt_iters = 0;
  bool cache_hit = false;     ///< session came from the shape cache
  bool rerouted = false;      ///< breakdown triggered the one-shot re-route
  bool batched = false;       ///< solved through the sub-team batch engine
  /// Wall time from batch start to this result (batched requests share
  /// their batch's wall time; a re-routed request adds its retry).
  double latency_seconds = 0.0;
  /// Online-refinement view of the final route (zero / false when the
  /// request ran an explicit override or the server has no table).
  /// `route_observations` counts the measured latencies behind the
  /// route's database cell AFTER this request's own observation (when
  /// learning is on); `predicted_route_seconds` is the raw sweep/model
  /// prediction the demotion ratio divides by.
  long long route_observations = 0;
  bool route_learned = false;   ///< cell reached min_observations
  bool route_demoted = false;   ///< final route is currently demoted
  double predicted_route_seconds = 0.0;
  std::string tag;
  /// Why the request was rejected (the TeaError message: an invalid deck
  /// or config, a rule a solver enforces, an unreadable matrix file);
  /// empty when it was served.  A rejected request has no stats.
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty() && stats.converged; }
};

/// Volume-weighted diagnostics over the whole domain (upstream
/// field_summary kernel).
struct FieldSummary {
  double volume = 0.0;    ///< Σ cell areas
  double mass = 0.0;      ///< Σ ρ·dA
  double ie = 0.0;        ///< Σ ρ·e·dA (internal energy)
  double temp = 0.0;      ///< Σ u·dA
  /// Domain-average temperature (the quantity of Fig. 4).
  [[nodiscard]] double avg_temp() const {
    return volume > 0.0 ? temp / volume : 0.0;
  }
};

/// Handle that owns everything reusable about a solve problem: the
/// SimCluster (decomposition, field allocations, halo depth).  This is
/// the ONE entry path onto the solvers — TeaLeafApp, the sweep and the
/// solve server all hold sessions instead of hand-rolling cluster setup.
///
/// One `solve()` performs one implicit conduction step exactly as the
/// driver's timestep always has: full-depth material exchange, u/u0 and
/// conduction-coefficient rebuild, A·u = u0, energy recovery — so a
/// session solve is bitwise identical to the pre-PR6 TeaLeafApp::step.
class SolveSession {
 public:
  /// Build the cluster, allocate the fields the first solve uses
  /// (solve_fields, solvers/solver.hpp, of `first`: the deck solver when
  /// not given) and initialise them from the deck; a solve with another
  /// configuration adds what it lacks.  Halo depth is sized for the deck
  /// solver's matrix-powers configuration; `halo_override` > 0 forces a
  /// deeper allocation.  The server passes both from the request's route,
  /// so a session holds what its route uses, not what the deck solver
  /// would.  Throws TeaError on an invalid deck or when memory runs out.
  explicit SolveSession(const InputDeck& deck, int nranks = 4,
                        int halo_override = 0,
                        const std::optional<SolverConfig>& first = {});

  /// Re-initialise density/energy/u from a (possibly different) deck of
  /// the SAME shape — the cache-reuse path.  Cheap: no allocation.
  /// Throws TeaError when the shape differs.
  void reset(const InputDeck& deck);

  /// One implicit conduction step with the deck's own solver config.
  SolveStats solve() { return solve(deck_.solver); }

  /// One implicit conduction step with an explicit configuration
  /// (validated() is applied — entry-layer misuse checks).  A step that
  /// breaks down leaves the session as it was (see finish_solve).
  SolveStats solve(const SolverConfig& cfg);

  /// The two halves of `solve()` around the solver, for callers that run
  /// the solver themselves (the server's batch engine): `prepare` runs
  /// the pre-solve phases (exchange, u/u0, conduction build) outside any
  /// region; `finish_solve` recovers energy and advances the session
  /// clock.  After a breakdown u is garbage, so `finish_solve` of a broken
  /// attempt changes nothing: energy, sim_time() and solves_taken() stay
  /// as they were, and a retry replays the same step.
  /// `prepare(op)` also installs the operator representation the coming
  /// solve will traverse: it drops the last step's assembled matrices
  /// first, then kCsr assembles the freshly built conduction stencil into
  /// CSR per chunk (out of memory is a TeaError) —
  /// or, when the deck names a matrix_file, loads that Matrix Market
  /// operator instead (single-rank, 2-D; the file is parsed once and
  /// memoised by path).
  void prepare() { prepare(deck_.solver.op); }
  void prepare(OperatorKind op);
  void finish_solve(const SolveStats& stats);

  [[nodiscard]] FieldSummary field_summary();

  [[nodiscard]] const ProblemShape& shape() const { return shape_; }
  [[nodiscard]] SimCluster2D& cluster() { return *cluster_; }
  [[nodiscard]] const SimCluster2D& cluster() const { return *cluster_; }
  [[nodiscard]] const InputDeck& deck() const { return deck_; }
  [[nodiscard]] double sim_time() const { return sim_time_; }
  [[nodiscard]] int solves_taken() const { return solves_taken_; }

  /// The machine the session's solves resolve `auto` tile heights
  /// against: machines::host(), whose per-core L2 they run in.  A caller
  /// that runs the solver itself passes it to run_solver, so its solves
  /// resolve the heights the session's own would.
  [[nodiscard]] const MachineSpec& machine() const {
    return machines::host();
  }

 private:
  InputDeck deck_;
  ProblemShape shape_;
  std::unique_ptr<SimCluster2D> cluster_;
  double sim_time_ = 0.0;
  int solves_taken_ = 0;
  /// Matrix Market memo: the CSR built from deck_.matrix_file, keyed by
  /// the path it came from (reloaded only when the path changes).
  std::string loaded_matrix_path_;
  std::shared_ptr<const CsrMatrix> loaded_matrix_;
};

/// Shape-keyed pool of sessions: the solve server's working set.  A batch
/// of B same-shape requests borrows B sessions of that shape (growing the
/// pool on demand); hit/miss counters record the reuse rate and a simple
/// LRU policy over shapes bounds the total session count.
class SessionCache {
 public:
  explicit SessionCache(std::size_t max_sessions = 8)
      : max_sessions_(max_sessions) {}

  /// Borrow one session per entry of `routes` for the given shape,
  /// constructing what the pool lacks.  The pooled sessions come first,
  /// so the first (hits() this call added) entries are the reused ones; a
  /// session built here for entry i holds the fields routes[i] uses.
  /// Each returned session still holds its previous deck's values —
  /// `reset` it before use.  Pointers stay valid until the next `acquire`
  /// (which may evict other shapes, never the one returned).  A session
  /// the deck cannot build throws and leaves the pool and the counters as
  /// they were.
  std::vector<SolveSession*> acquire(const InputDeck& deck, int nranks,
                                     int halo,
                                     const std::vector<SolverConfig>& routes);

  /// The pooled sessions of `shape`, oldest first (none when the shape
  /// is not pooled).
  [[nodiscard]] std::vector<const SolveSession*> pooled(
      const ProblemShape& shape) const;

  [[nodiscard]] long long hits() const { return hits_; }
  [[nodiscard]] long long misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shapes() const { return pool_.size(); }
  [[nodiscard]] std::size_t max_sessions() const { return max_sessions_; }

 private:
  struct ShapeEntry {
    std::vector<std::unique_ptr<SolveSession>> sessions;
    long long last_use = 0;
  };

  std::size_t max_sessions_;
  long long clock_ = 0;
  long long hits_ = 0;
  long long misses_ = 0;
  std::map<std::string, ShapeEntry> pool_;
};

}  // namespace tealeaf
