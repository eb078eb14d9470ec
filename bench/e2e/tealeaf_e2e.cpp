// End-to-end benchmark harness: runs ONE workload of bench/e2e through the
// public API and prints one JSON object (the last line of stdout) holding
// the workload's end-to-end metrics, its correctness checks and — in a
// traced run — the raw per-layer numbers that run.py turns into the
// per-layer metrics.
//
// Two workload kinds:
//   --deck FILE --ranks R --steps N --setups K [--perturb]
//       timestep: N implicit conduction steps of one SolveSession, each
//       checked by an oracle that shares no code with ops/kernels.
//   --requests FILE --setups K
//       server: a SolveServer fed by an open-loop generator at two rates,
//       then a series of bursts; sampled requests are re-solved alone and
//       must match the served result bit for bit.
// Common: --routes FILE --trace 0|1 --spans FILE --llc-bytes B
//
// The inputs (deck text, request stream) are generated from the seed by
// run.py before this program starts; nothing here is random.
//
// An untraced run (--trace 0) times what a user waits for.  A traced run
// (--trace 1) runs the workload twice — untraced, then with spans around
// every call the harness makes into a layer — checks that both passes did
// identical work, and probes the unit cost of layer functions.  Spans go
// to --spans as JSON lines; run.py computes self times from them.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/solve_api.hpp"
#include "io/json.hpp"
#include "ops/kernels.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "solvers/solver.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace {

using namespace tealeaf;
using io::JsonValue;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Seconds since process start on the steady clock (span timestamps).
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// Sleep, then spin the last 200 µs: the open-loop generator must release
/// a request within microseconds of its due time.
void wait_until(double t) {
  const double ahead = t - now_s() - 200e-6;
  if (ahead > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
  }
  while (now_s() < t) cpu_pause();
}

/// Linear-interpolated quantile (q in [0, 1]); q = 0.5 is the median.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  TEA_REQUIRE(in.is_open(), "cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void merge_into(JsonValue& dst, const JsonValue& src) {
  for (const auto& [k, v] : src.members()) dst.set(k, v);
}

JsonValue json_array(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (const double x : v) a.push_back(x);
  return a;
}

// ---- host-speed calibration -------------------------------------------------
// The speed of a shared host drifts.  On the 4-core host this benchmark
// was sized on, other tenants slowed every workload by up to 1.8x for
// minutes at a time, longer than a run, so no median inside a run removes
// it.  The timed intervals of a run are therefore interleaved with a fixed
// calibration loop, and the end-to-end seconds are reference-speed
// seconds: measured seconds × kCalRefS / (the run's median loop time).
// Host drift moves the intervals and the loop alike; a code change moves
// only the intervals.  The loop is the harness's own 5-point Jacobi sweep
// over a 1024² grid (16 MiB, L3-resident), workshared by plain OpenMP
// with a barrier per sweep, so it feels what the solvers feel — core
// speed, cache contention, synchronisation — and shares no code with
// src/.  Raw seconds are reported too; bench/e2e/README.md compares the
// raw and scaled spreads of every committed set of runs.

constexpr int kCalGrid = 1024;
constexpr int kCalSweeps = 12;
/// Seconds of one calibration loop on the reference host.
constexpr double kCalRefS = 0.0032;

/// Seconds of the calibration loop, median of 5.
double calibrate() {
  constexpr std::size_t n = kCalGrid;
  static std::vector<double> a(n * n, 1.0);
  static std::vector<double> b(n * n, 0.0);
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
#if defined(_OPENMP)
#pragma omp parallel
#endif
    for (int sweep = 0; sweep < kCalSweeps; ++sweep) {
      const double* src = sweep % 2 ? b.data() : a.data();
      double* dst = sweep % 2 ? a.data() : b.data();
#if defined(_OPENMP)
#pragma omp for schedule(static)
#endif
      for (std::size_t k = 1; k < n - 1; ++k) {
        for (std::size_t j = 1; j < n - 1; ++j) {
          const std::size_t c = k * n + j;
          dst[c] = 0.2 * (src[c] + src[c - 1] + src[c + 1] + src[c - n] +
                          src[c + n]);
        }
      }
    }
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Factor from seconds measured in a run whose calibration loops took
/// `cal` to reference-speed seconds (divide rates by it).
double ref_scale(const std::vector<double>& cal) {
  return kCalRefS / median(cal);
}

// ---- spans ----------------------------------------------------------------

/// In-memory span buffer, preallocated so recording never allocates; the
/// spans are written as JSON lines when the run ends.  A disabled trace
/// records nothing and hands out id -1.  Names must be string literals.
class Trace {
 public:
  Trace(bool on, std::size_t capacity) : on_(on) {
    if (on_) spans_.reserve(capacity);
  }

  [[nodiscard]] bool on() const { return on_; }

  int begin(const char* name, int parent, long long req = -1) {
    return record(name, now_s(), -1.0, parent, req);
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = now_s();
  }
  int record(const char* name, double t0, double t1, int parent,
             long long req = -1) {
    if (!on_) return -1;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, t0, t1, parent, req});
    return static_cast<int>(spans_.size() - 1);
  }

  [[nodiscard]] long long dropped() const { return dropped_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  void write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    TEA_REQUIRE(f != nullptr, "cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%d,\"req\":%lld}\n",
                   i, s.name, s.t0, s.t1, s.parent, s.req);
    }
    TEA_REQUIRE(std::fclose(f) == 0, "cannot write spans to " + path);
  }

 private:
  struct Span {
    const char* name;
    double t0;
    double t1;
    int parent;
    long long req;
  };

  bool on_;
  std::vector<Span> spans_;
  long long dropped_ = 0;
};

/// Seconds one span costs to record (a begin/end pair), median of 1000
/// batches of 100 into a scratch buffer.
double span_cost_s() {
  std::vector<double> t;
  for (int rep = 0; rep < 1000; ++rep) {
    Trace scratch(true, 100);
    const double t0 = now_s();
    for (int i = 0; i < 100; ++i) scratch.end(scratch.begin("probe", -1));
    t.push_back((now_s() - t0) / 100.0);
  }
  return median(t);
}

/// Tracing overhead of a pass: the share of its wall time spent
/// recording its spans.
double trace_overhead(const Trace& trace, std::size_t spans_before,
                      double wall_s) {
  return static_cast<double>(trace.size() - spans_before) * span_cost_s() /
         wall_s;
}

/// RAII span: begins on construction, ends on destruction.
class Scoped {
 public:
  Scoped(Trace& t, const char* name, int parent, long long req = -1)
      : trace_(t), id_(t.begin(name, parent, req)) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() { trace_.end(id_); }
  [[nodiscard]] int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

// ---- correctness oracle ---------------------------------------------------
// Written from the matrix definition and reading fields only through the
// public Chunk accessors; nothing here calls ops/kernels:
//
//   (A v)(g) = (1 + Σ_faces K)·v(g) − Σ_faces K·v(neighbour)
//
// where the x-face between cells g−x̂ and g carries Kx(g), stored by the
// owner of g (likewise y, z), and K = 0 on every physical-boundary face.

class Oracle {
 public:
  explicit Oracle(const SimCluster& cl) : cl_(cl), mesh_(cl.mesh()) {
    const Decomposition& d = cl.decomposition();
    col_.resize(static_cast<std::size_t>(mesh_.nx));
    row_.resize(static_cast<std::size_t>(mesh_.ny));
    plane_.resize(static_cast<std::size_t>(mesh_.nz));
    for (int r = 0; r < cl.nranks(); ++r) {
      const ChunkExtent& e = cl.chunk(r).extent();
      for (int i = 0; i < e.nx; ++i) col_[e.x0 + i] = d.coord_x(r);
      for (int i = 0; i < e.ny; ++i) row_[e.y0 + i] = d.coord_y(r);
      for (int i = 0; i < e.nz; ++i) plane_[e.z0 + i] = d.coord_z(r);
    }
  }

  /// ‖u0 − A·u‖₂ / ‖u0 − A·u0‖₂: the true residual relative to the one
  /// the solve started from (every solver starts from u = u0).
  [[nodiscard]] double relative_residual() const {
    long double rr = 0.0L;
    long double r0 = 0.0L;
    for (int r = 0; r < cl_.nranks(); ++r) {
      const Chunk& c = cl_.chunk(r);
      for (int l = 0; l < c.nz(); ++l)
        for (int k = 0; k < c.ny(); ++k)
          for (int j = 0; j < c.nx(); ++j) {
            const double b = c.u0()(j, k, l);
            const double res = b - apply(c, FieldId::kU, j, k, l);
            const double res0 = b - apply(c, FieldId::kU0, j, k, l);
            rr += static_cast<long double>(res) * res;
            r0 += static_cast<long double>(res0) * res0;
          }
    }
    return r0 > 0.0L ? static_cast<double>(std::sqrt(rr / r0)) : 0.0;
  }

 private:
  /// Value of field `f` at local cell (j, k, l) of chunk `c`, which may
  /// lie one cell outside the chunk: then it is read from its owner.
  [[nodiscard]] double fetch(const Chunk& c, FieldId f, int j, int k,
                             int l) const {
    if (j >= 0 && j < c.nx() && k >= 0 && k < c.ny() && l >= 0 &&
        l < c.nz()) {
      return c.field(f)(j, k, l);
    }
    const ChunkExtent& e = c.extent();
    const int gx = e.x0 + j, gy = e.y0 + k, gz = e.z0 + l;
    const Chunk& o = cl_.chunk(
        cl_.decomposition().rank_at(col_[gx], row_[gy], plane_[gz]));
    const ChunkExtent& oe = o.extent();
    return o.field(f)(gx - oe.x0, gy - oe.y0, gz - oe.z0);
  }

  /// (A·v)(g) at local cell (j, k, l) of `c`, for v = field `v`.
  [[nodiscard]] double apply(const Chunk& c, FieldId v, int j, int k,
                             int l) const {
    const ChunkExtent& e = c.extent();
    const int gx = e.x0 + j, gy = e.y0 + k, gz = e.z0 + l;
    double diag = 1.0;
    double off = 0.0;
    // Low face: coefficient stored here; high face: stored by the
    // neighbour across it.
    const auto faces = [&](FieldId kf, int dj, int dk, int dl, bool has_lo,
                           bool has_hi) {
      if (has_lo) {
        const double kface = c.field(kf)(j, k, l);
        diag += kface;
        off += kface * fetch(c, v, j - dj, k - dk, l - dl);
      }
      if (has_hi) {
        const double kface = fetch(c, kf, j + dj, k + dk, l + dl);
        diag += kface;
        off += kface * fetch(c, v, j + dj, k + dk, l + dl);
      }
    };
    faces(FieldId::kKx, 1, 0, 0, gx > 0, gx + 1 < mesh_.nx);
    faces(FieldId::kKy, 0, 1, 0, gy > 0, gy + 1 < mesh_.ny);
    if (mesh_.dims == 3) {
      faces(FieldId::kKz, 0, 0, 1, gz > 0, gz + 1 < mesh_.nz);
    }
    return diag * c.field(v)(j, k, l) - off;
  }

  const SimCluster& cl_;
  GlobalMesh mesh_;
  std::vector<int> col_, row_, plane_;  ///< process-grid coordinate per cell
};

/// Σ ρ·e over every interior cell: the internal energy up to the constant
/// cell measure.
double internal_energy(const SimCluster& cl) {
  long double ie = 0.0L;
  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk& c = cl.chunk(r);
    const Field<double>& rho = c.density();
    const Field<double>& e = c.field(FieldId::kEnergy1);
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j) {
          ie += static_cast<long double>(rho(j, k, l)) * e(j, k, l);
        }
  }
  return static_cast<double>(ie);
}

/// The solvers stop when their recurrence (or preconditioned) norm falls
/// to tl_eps times its initial value; the true residual may sit above
/// that by rounding drift and by the preconditioned norm's equivalence
/// constant — PPCG, which tests its polynomially preconditioned norm,
/// lands near 100·tl_eps.  A true relative residual above 1000·tl_eps
/// fails.
constexpr double kResidualFactor = 1000.0;
/// Σρe changes across a step only by Σ of the final residual.
constexpr double kEnergyDriftTol = 1e-9;

struct Checks {
  long long failed = 0;
  double residual_max = 0.0;
  double residual_tol = 0.0;
  double energy_drift_max = 0.0;
  long long resolves = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }

  /// Oracle check of the solution now in `cl` (tolerance: see above).
  void residual(const SimCluster& cl, double eps, const std::string& what) {
    const double rel = Oracle(cl).relative_residual();
    residual_tol = kResidualFactor * eps;
    residual_max = std::max(residual_max, rel);
    if (!(rel <= residual_tol)) {
      char msg[96];
      std::snprintf(msg, sizeof msg, ": true relative residual %.3e > %.3e",
                    rel, residual_tol);
      fail(what + msg);
    }
  }

  [[nodiscard]] JsonValue json() const {
    JsonValue o = JsonValue::object();
    o.set("residual_max", residual_max);
    o.set("residual_tol", residual_tol);
    o.set("energy_drift_max", energy_drift_max);
    o.set("energy_drift_tol", kEnergyDriftTol);
    o.set("resolves", resolves);
    JsonValue f = JsonValue::array();
    for (const std::string& s : failures) f.push_back(s);
    o.set("failures", std::move(f));
    return o;
  }
};

// ---- per-step accounting --------------------------------------------------

/// Work counters over a pass: SolveStats plus CommStats deltas, per step
/// (timestep workloads) or per re-solved request (server workload).
struct Counts {
  long long steps = 0;
  long long outer_iters = 0;
  long long inner_steps = 0;
  long long spmv_applies = 0;
  long long eigen_cg_iters = 0;
  long long refine_steps = 0;
  long long exchange_calls = 0;
  long long messages = 0;
  long long message_bytes = 0;
  long long reductions = 0;

  void add(const SolveStats& st, const CommStats& before,
           const CommStats& after) {
    ++steps;
    outer_iters += st.outer_iters;
    inner_steps += st.inner_steps;
    spmv_applies += st.spmv_applies;
    eigen_cg_iters += st.eigen_cg_iters;
    refine_steps += st.refine_steps;
    exchange_calls += after.exchange_calls - before.exchange_calls;
    messages += after.messages - before.messages;
    message_bytes += after.message_bytes - before.message_bytes;
    reductions += after.reductions - before.reductions;
  }

  [[nodiscard]] bool operator==(const Counts&) const = default;

  /// Per-step means, keyed by per-layer metric name.
  [[nodiscard]] JsonValue json() const {
    const double n = steps > 0 ? static_cast<double>(steps) : 1.0;
    const auto mean = [n](long long v) { return static_cast<double>(v) / n; };
    JsonValue o = JsonValue::object();
    o.set("solvers.outer_iters", mean(outer_iters));
    o.set("solvers.inner_steps", mean(inner_steps));
    o.set("solvers.spmv_applies", mean(spmv_applies));
    o.set("solvers.eigen_cg_iters", mean(eigen_cg_iters));
    o.set("solvers.refine_steps", mean(refine_steps));
    o.set("comm.exchange_calls", mean(exchange_calls));
    o.set("comm.messages", mean(messages));
    o.set("comm.message_bytes", mean(message_bytes));
    o.set("comm.reductions", mean(reductions));
    return o;
  }
};

/// One step with the calls SolveSession::solve makes — validated(),
/// prepare(op), run_solver, finish_solve — each inside its own span, so a
/// traced step does exactly the work of an untraced one.
SolveStats traced_solve(SolveSession& session, const SolverConfig& cfg,
                        Trace& trace, int parent, long long req) {
  Scoped step(trace, "step", parent, req);
  const SolverConfig checked = cfg.validated();
  SolveStats st;
  {
    Scoped s(trace, "api.prepare", step.id(), req);
    session.prepare(checked.op);
  }
  {
    Scoped s(trace, "solvers.run_solver", step.id(), req);
    st = run_solver(session.cluster(), checked, session.machine());
  }
  Scoped s(trace, "api.finish_solve", step.id(), req);
  session.finish_solve(st);
  return st;
}

// ---- layer probes ---------------------------------------------------------

/// Median seconds of `reps` calls of `fn`.
template <class Fn>
double probe(int reps, const Fn& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

double interior_cells(const SimCluster& cl) {
  double n = 0.0;
  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk& c = cl.chunk(r);
    n += static_cast<double>(c.nx()) * c.ny() * c.nz();
  }
  return n;
}

/// Compulsory bytes of one operator application, computed from array
/// sizes (not measured): the stencil reads the source and one coefficient
/// field per axis and writes the destination (plus its write-allocate
/// read), 8 B each per cell with neighbour reads assumed cached; CSR reads
/// row pointers, column indices and values instead of coefficient fields.
double apply_bytes(const SimCluster& cl) {
  double bytes = 0.0;
  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk& c = cl.chunk(r);
    const double cells = static_cast<double>(c.nx()) * c.ny() * c.nz();
    if (c.op_kind() == OperatorKind::kStencil || c.csr() == nullptr) {
      bytes += cells * 8.0 * (3.0 + c.dims());
    } else {
      const CsrMatrix& m = *c.csr();
      bytes += 8.0 * static_cast<double>(m.row_ptr.size()) +
               16.0 * static_cast<double>(m.nnz()) + cells * 8.0 * 3.0;
    }
  }
  return bytes;
}

/// Field storage of a cluster in MB, computed from the allocations (the
/// fp32 bank included when a reduced-precision solve allocated it).
double field_mb(const SimCluster& cl) {
  double bytes = 0.0;
  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk& c = cl.chunk(r);
    for (int f = 0; f < kNumFieldIds; ++f) {
      const auto id = static_cast<FieldId>(f);
      if (id == FieldId::kKz && c.dims() != 3) continue;  // 3-D only
      bytes += 8.0 * static_cast<double>(c.field(id).size());
      if (c.fp32_enabled()) {
        bytes += 4.0 * static_cast<double>(c.field32(id).size());
      }
    }
  }
  return bytes / 1e6;
}

/// Unit-cost probes of the ops and comm layers on a live session, after
/// its last checked step (they overwrite w, the operator scratch field).
JsonValue probe_session(SolveSession& session, Trace& trace, int parent) {
  SimCluster& cl = session.cluster();
  JsonValue o = JsonValue::object();
  {
    // smvp_dot is the operator kernel unfused CG runs; the bare smvp
    // kernel is a slower per-cell loop that no solver calls per iteration.
    Scoped s(trace, "probe.ops.apply", parent);
    std::vector<double> sink(static_cast<std::size_t>(cl.nranks()), 0.0);
    o.set("ops.apply_s", probe(50, [&] {
            cl.for_each_chunk([&](int r, Chunk& c) {
              sink[static_cast<std::size_t>(r)] += kernels::smvp_dot(
                  c, FieldId::kU, FieldId::kW, interior_bounds(c));
            });
          }));
    o.set("probe.apply_finite", std::isfinite(sink.front()));
  }
  {
    Scoped s(trace, "probe.comm.exchange", parent);
    o.set("comm.exchange_s",
          probe(50, [&] { cl.exchange({FieldId::kU}, 1); }));
  }
  {
    Scoped s(trace, "probe.comm.reduce", parent);
    double sink = 0.0;
    o.set("comm.reduce_s", probe(50, [&] {
            sink += cl.sum_over_chunks([](int, const Chunk& c) {
              return kernels::dot(c, FieldId::kU, FieldId::kU);
            });
          }));
    o.set("probe.reduce_finite", std::isfinite(sink));
  }
  o.set("ops.apply_bytes", apply_bytes(cl));
  o.set("mesh.field_mb", field_mb(cl));
  o.set("cells", interior_cells(cl));
  return o;
}

/// Probes that need no session: an empty parallel region, a team barrier,
/// loading the committed route table and routing both server shapes.
JsonValue probe_runtime(const std::string& routes_path, Trace& trace,
                        int parent) {
  JsonValue o = JsonValue::object();
  {
    Scoped s(trace, "probe.util.region", parent);
    o.set("util.region_s",
          probe(1000, [] { parallel_region([](const Team&) {}); }));
  }
  {
    Scoped s(trace, "probe.util.barrier", parent);
    std::vector<double> per;
    parallel_region([&](const Team& team) {
      for (int rep = 0; rep < 50; ++rep) {
        team.barrier();
        const double t0 = now_s();
        for (int i = 0; i < 100; ++i) team.barrier();
        const double t1 = now_s();
        team.single([&] { per.push_back((t1 - t0) / 100.0); });
      }
    });
    o.set("util.barrier_s", median(per));
  }
  RoutingTable table;
  {
    Scoped s(trace, "probe.io.routes_load", parent);
    o.set("io.routes_load_s", probe(20, [&] {
            table = RoutingTable::from_json_file(routes_path);
          }));
  }
  {
    Scoped s(trace, "probe.server.route", parent);
    std::size_t sink = 0;
    const double t64 =
        probe(200, [&] { sink += table.route(2, 64, 2).size(); });
    const double t128 =
        probe(200, [&] { sink += table.route(2, 128, 2).size(); });
    o.set("server.route_s", 0.5 * (t64 + t128));
    o.set("probe.route_candidates", static_cast<double>(sink) / 400.0);
  }
  return o;
}

/// STREAM triad a = b + s·c through parallel_for with every array at
/// least 4× the last-level cache: the median of 10 passes in GB/s,
/// counting 24 bytes per element (no write-allocate).
JsonValue probe_triad(double llc_bytes, Trace& trace, int parent) {
  Scoped s(trace, "probe.host.triad", parent);
  const auto n = static_cast<std::int64_t>(4.0 * llc_bytes / 8.0) + 1;
  const auto un = static_cast<std::size_t>(n);
  std::unique_ptr<double[]> a(new double[un]);
  std::unique_ptr<double[]> b(new double[un]);
  std::unique_ptr<double[]> c(new double[un]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  parallel_for(0, n, [=](std::int64_t i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  });
  const double scalar = 3.0;
  std::vector<double> gbs;
  for (int rep = 0; rep < 10; ++rep) {
    const double t0 = now_s();
    parallel_for(0, n,
                 [=](std::int64_t i) { pa[i] = pb[i] + scalar * pc[i]; });
    gbs.push_back(24.0 * static_cast<double>(n) / (now_s() - t0) / 1e9);
  }
  JsonValue o = JsonValue::object();
  o.set("host.triad_gbs", median(gbs));
  o.set("host.triad_array_bytes", 8.0 * static_cast<double>(n));
  o.set("host.llc_bytes", llc_bytes);
  o.set("probe.triad_correct", pa[n / 2] == 7.0);
  return o;
}

// ---- timestep workloads ---------------------------------------------------

struct StepPass {
  std::vector<double> wall;              ///< per-step wall seconds
  std::vector<double> cal;               ///< calibrations around the steps
  std::vector<std::uint64_t> norm_bits;  ///< per-step final_norm
  std::vector<double> applies;           ///< per-step operator applies
  Counts counts;
};

/// A march of `steps` steps on `session`, each checked outside the timed
/// region: converged, true residual within tolerance, energy conserved.
/// Untraced passes call SolveSession::solve; traced ones traced_solve.
StepPass march(SolveSession& session, int steps, bool perturb, Trace& trace,
               int parent, Checks& checks) {
  StepPass pass;
  SimCluster& cl = session.cluster();
  const SolverConfig& cfg = session.deck().solver;
  pass.cal.push_back(calibrate());
  for (int s = 0; s < steps; ++s) {
    const double ie0 = internal_energy(cl);
    const CommStats before = cl.stats();
    const double t0 = now_s();
    const SolveStats st = trace.on()
                              ? traced_solve(session, cfg, trace, parent, s)
                              : session.solve();
    pass.wall.push_back(now_s() - t0);
    pass.cal.push_back(calibrate());
    pass.counts.add(st, before, cl.stats());
    pass.norm_bits.push_back(std::bit_cast<std::uint64_t>(st.final_norm));
    pass.applies.push_back(static_cast<double>(st.spmv_applies));

    const std::string what = "step " + std::to_string(s);
    if (!st.converged) checks.fail(what + ": not converged");
    if (perturb && s == 0) {
      // Self-test hook: corrupt one solution cell; the oracle must see it.
      Chunk& c = cl.chunk(0);
      c.u()(c.nx() / 2, c.ny() / 2, c.nz() / 2) *= 1.001;
    }
    checks.residual(cl, cfg.eps, what);
    const double drift = std::fabs(internal_energy(cl) - ie0) / ie0;
    checks.energy_drift_max = std::max(checks.energy_drift_max, drift);
    if (!(drift <= kEnergyDriftTol)) {
      checks.fail(what + ": energy drift " + std::to_string(drift));
    }
  }
  return pass;
}

JsonValue run_timestep(const Args& args, Trace& trace, Checks& checks,
                       long long& attempted) {
  const std::string text = read_file(args.get("deck", ""));
  const int ranks = args.get_int("ranks", 4);
  const int steps = args.get_int("steps", 4);
  const int setups = std::max(1, args.get_int("setups", 3));
  const bool perturb = args.has("perturb");

  JsonValue out = JsonValue::object();
  JsonValue info = JsonValue::object();
  info.set("ranks", ranks);
  info.set("steps", steps);

  if (!trace.on()) {
    // Set-up, repeated: parse the deck text and construct the session.
    // The previous session is released first, so one is alive at a time.
    std::vector<double> setup;
    std::unique_ptr<SolveSession> session;
    const double cal0 = calibrate();
    for (int i = 0; i < setups; ++i) {
      session.reset();
      const double t0 = now_s();
      const InputDeck deck = InputDeck::parse_string(text);
      session = std::make_unique<SolveSession>(deck, ranks);
      setup.push_back(now_s() - t0);
    }
    const StepPass pass = march(*session, steps, perturb, trace, -1, checks);
    attempted += pass.counts.steps;
    std::vector<double> cal = pass.cal;
    cal.insert(cal.begin(), cal0);
    const double scale = ref_scale(cal);
    double total = 0.0;
    for (const double w : pass.wall) total += w;
    JsonValue raw = JsonValue::object();
    raw.set("setup_s", median(setup));
    raw.set("latency_p50_s", median(pass.wall));
    raw.set("throughput_per_s", static_cast<double>(steps) / total);
    JsonValue e2e = JsonValue::object();
    e2e.set("setup_s", median(setup) * scale);
    e2e.set("latency_p50_s", median(pass.wall) * scale);
    e2e.set("throughput_per_s", static_cast<double>(steps) / total / scale);
    e2e.set("peak_rss_mb", peak_rss_mb());
    out.set("e2e", std::move(e2e));
    info.set("raw", std::move(raw));
    info.set("setups", setups);
    info.set("step_wall_s", json_array(pass.wall));
    info.set("calibration_s", json_array(cal));
    info.set("step_applies", json_array(pass.applies));
    info.set("counts", pass.counts.json());
    info.set("cells", interior_cells(session->cluster()));
    out.set("info", std::move(info));
    return out;
  }

  // Traced run: the host probe first (its arrays are the run's largest
  // allocation), then the same march untraced and traced.
  JsonValue layer = JsonValue::object();
  const int root = trace.begin("workload", -1);
  merge_into(layer,
             probe_triad(args.get_double("llc-bytes", 32e6), trace, root));
  StepPass plain;
  {
    SolveSession session(InputDeck::parse_string(text), ranks);
    Trace off(false, 0);
    plain = march(session, steps, perturb, off, -1, checks);
  }
  std::unique_ptr<SolveSession> session;
  const std::size_t spans_before = trace.size();
  const double traced_t0 = now_s();
  {
    Scoped setup(trace, "setup", root);
    InputDeck deck;
    {
      Scoped s(trace, "driver.parse", setup.id());
      deck = InputDeck::parse_string(text);
    }
    Scoped s(trace, "api.session_ctor", setup.id());
    session = std::make_unique<SolveSession>(deck, ranks);
  }
  const StepPass traced =
      march(*session, steps, perturb, trace, root, checks);
  layer.set("bench.trace_overhead",
            trace_overhead(trace, spans_before, now_s() - traced_t0));
  attempted += plain.counts.steps + traced.counts.steps;
  if (!(plain.counts == traced.counts) ||
      plain.norm_bits != traced.norm_bits) {
    checks.fail("the traced pass did different work from the untraced one");
  }
  {
    Scoped p(trace, "probe", root);
    merge_into(layer, probe_session(*session, trace, p.id()));
    merge_into(layer, probe_runtime(args.get("routes", ""), trace, p.id()));
  }
  trace.end(root);
  merge_into(layer, traced.counts.json());
  out.set("layer", std::move(layer));
  out.set("info", std::move(info));
  return out;
}

// ---- server workload ------------------------------------------------------

/// One generated request: its phase and due time (seconds after the phase
/// starts), class, parsed deck and optional explicit configuration (the
/// deck's own solver section, plus eigenvalue hints when given).
struct StreamRequest {
  long long id = 0;
  std::string phase;
  double due = 0.0;
  std::string cls;
  int ranks = 2;
  bool override_config = false;
  double hint_min = 0.0;
  double hint_max = 0.0;
  InputDeck deck;

  [[nodiscard]] SolveRequest request() const {
    SolveRequest r;
    r.deck = deck;
    r.nranks = ranks;
    r.tag = std::to_string(id);
    if (override_config) {
      SolverConfig cfg = deck.solver;
      cfg.eig_hint_min = hint_min;
      cfg.eig_hint_max = hint_max;
      r.config = cfg;
    }
    return r;
  }
};

/// Stream file: per request one header line
///   request <id> <phase> <due_s> <class> <ranks> <override> <hmin> <hmax>
/// followed by its deck text up to and including *endtea.  Every deck is
/// parsed here, before any timing; parse times become driver.parse spans.
std::vector<StreamRequest> load_stream(const std::string& path, Trace& trace,
                                       int parent) {
  std::ifstream in(path);
  TEA_REQUIRE(in.is_open(), "cannot open " + path);
  std::vector<StreamRequest> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream head(line);
    std::string tag;
    StreamRequest r;
    int ov = 0;
    head >> tag >> r.id >> r.phase >> r.due >> r.cls >> r.ranks >> ov >>
        r.hint_min >> r.hint_max;
    TEA_REQUIRE(tag == "request" && !head.fail(),
                "request stream: bad header line '" + line + "'");
    r.override_config = ov != 0;
    std::string text;
    bool closed = false;
    while (!closed && std::getline(in, line)) {
      text += line;
      text += '\n';
      closed = line.rfind("*endtea", 0) == 0;
    }
    TEA_REQUIRE(closed, "request stream: deck without *endtea");
    const double t0 = now_s();
    r.deck = InputDeck::parse_string(text);
    trace.record("driver.parse", t0, now_s(), parent, r.id);
    out.push_back(std::move(r));
  }
  return out;
}

/// What happened to one request of a phase.
struct Served {
  const StreamRequest* req = nullptr;
  SolveResult result;
  double latency = 0.0;  ///< due → return of the drain that served it
  double queue = 0.0;    ///< due → start of that drain
};

struct Phase {
  std::vector<Served> served;
  std::vector<double> drain_s;
  std::vector<double> drain_size;  ///< requests served by each drain
  double wall = 0.0;
  double gen_lag_max = 0.0;  ///< generator lateness while the server idled
  ServerStats before;
  ServerStats after;
};

/// Feed `reqs` (due-time ordered) to the server.  Open loop: on
/// schedule, never waiting for a reply, so each drain serves every
/// request that fell due while the previous drain ran.  Otherwise the
/// phase is a series of bursts: `due` numbers the burst, each burst is
/// submitted at once and served by one drain, and a calibration loop
/// (appended to `cal`) runs after each.
Phase run_phase(SolveServer& server,
                const std::vector<const StreamRequest*>& reqs, bool open_loop,
                const char* span_name, Trace& trace, int parent,
                std::vector<double>& cal) {
  Phase ph;
  ph.before = server.stats();
  const int phase_span = trace.begin(span_name, parent);
  std::vector<SolveRequest> ready;
  ready.reserve(reqs.size());
  for (const StreamRequest* r : reqs) ready.push_back(r->request());
  const double start = now_s() + 0.01;
  std::size_t next = 0;
  while (next < reqs.size()) {
    double t = now_s();
    const std::size_t first = next;
    if (open_loop) {
      const double due_next = start + reqs[next]->due;
      if (t < due_next) {
        wait_until(due_next);
        t = now_s();
        ph.gen_lag_max = std::max(ph.gen_lag_max, t - due_next);
      }
      while (next < reqs.size() && start + reqs[next]->due <= t) {
        server.submit(std::move(ready[next++]));
      }
    } else {
      while (next < reqs.size() && reqs[next]->due == reqs[first]->due) {
        server.submit(std::move(ready[next++]));
      }
    }
    const double d0 = now_s();
    std::vector<SolveResult> results = server.drain();
    const double d1 = now_s();
    ph.drain_s.push_back(d1 - d0);
    ph.drain_size.push_back(static_cast<double>(results.size()));
    const int drain_span = trace.record("server.drain", d0, d1, phase_span);
    for (std::size_t k = 0; k < results.size(); ++k) {
      Served s;
      s.req = reqs[first + k];
      const double due = open_loop ? start + s.req->due : t;
      s.latency = d1 - due;
      s.queue = d0 - due;
      s.result = std::move(results[k]);
      const int rq = trace.record("request", due, d1, phase_span, s.req->id);
      trace.record("queue", due, d0, rq, s.req->id);
      trace.record("service", d0, d1, drain_span, s.req->id);
      ph.served.push_back(std::move(s));
    }
    if (!open_loop) cal.push_back(calibrate());
  }
  ph.wall = now_s() - start;
  trace.end(phase_span);
  ph.after = server.stats();
  return ph;
}

/// Server set-up: load the committed route table, construct the server
/// and run the warm-up drain that fills its session cache.
std::unique_ptr<SolveServer> make_server(
    const std::string& routes_path,
    const std::vector<const StreamRequest*>& warm, Trace& trace,
    int parent) {
  ServerOptions opts;
  opts.max_batch = 8;
  opts.learn_routes = false;
  {
    Scoped s(trace, "io.routes_load", parent);
    opts.routes = RoutingTable::from_json_file(routes_path);
  }
  std::unique_ptr<SolveServer> server;
  {
    Scoped s(trace, "server.ctor", parent);
    server = std::make_unique<SolveServer>(std::move(opts));
  }
  Scoped s(trace, "server.warmup", parent);
  for (const StreamRequest* r : warm) server->submit(r->request());
  (void)server->drain();
  return server;
}

JsonValue phase_json(const Phase& ph) {
  std::vector<double> lat, queue, service, solve;
  for (const Served& s : ph.served) {
    lat.push_back(s.latency);
    queue.push_back(s.queue);
    service.push_back(s.result.latency_seconds);
    solve.push_back(s.result.stats.solve_seconds);
  }
  const ServerStats& a = ph.before;
  const ServerStats& b = ph.after;
  const auto delta = [](long long x, long long y) {
    return static_cast<double>(y - x);
  };
  const double reqs = delta(a.requests, b.requests);
  const double batches = delta(a.batches, b.batches);
  const double hits = delta(a.cache_hits, b.cache_hits);
  const double lookups = hits + delta(a.cache_misses, b.cache_misses);
  double busy = 0.0;
  std::vector<double> rps;
  for (std::size_t i = 0; i < ph.drain_s.size(); ++i) {
    busy += ph.drain_s[i];
    rps.push_back(ph.drain_size[i] / ph.drain_s[i]);
  }
  JsonValue o = JsonValue::object();
  o.set("requests", static_cast<double>(ph.served.size()));
  o.set("drains", static_cast<double>(ph.drain_s.size()));
  o.set("wall_s", ph.wall);
  o.set("lat_p50_s", quantile(lat, 0.5));
  o.set("lat_p90_s", quantile(lat, 0.9));
  o.set("lat_p99_s", quantile(lat, 0.99));
  o.set("queue_wait_s_p50", quantile(queue, 0.5));
  o.set("queue_wait_s_p99", quantile(queue, 0.99));
  o.set("service_s_p50", quantile(service, 0.5));
  o.set("service_s_p99", quantile(service, 0.99));
  o.set("solve_s_p50", quantile(solve, 0.5));
  o.set("drain_s_p50", median(ph.drain_s));
  o.set("drain_rps_p50", median(rps));
  o.set("batch_size_mean", batches > 0 ? reqs / batches : 0.0);
  o.set("batched_frac",
        reqs > 0 ? delta(a.batched_requests, b.batched_requests) / reqs
                 : 0.0);
  o.set("cache_hit_frac", lookups > 0 ? hits / lookups : 0.0);
  o.set("busy_frac", ph.wall > 0 ? busy / ph.wall : 0.0);
  o.set("queue_wait_frac", quantile(lat, 0.5) > 0
                               ? quantile(queue, 0.5) / quantile(lat, 0.5)
                               : 0.0);
  o.set("gen_lag_s_max", ph.gen_lag_max);
  o.set("reroutes", delta(a.reroutes, b.reroutes));
  o.set("failures", delta(a.failures, b.failures));
  return o;
}

/// Every request must converge, and the stale-hint class must have been
/// re-routed to do so.
void check_served(const Phase& ph, Checks& checks) {
  for (const Served& s : ph.served) {
    const std::string what = "request " + std::to_string(s.req->id);
    if (!s.result.ok()) checks.fail(what + ": not converged");
    if (s.req->cls == "stale" && !s.result.rerouted) {
      checks.fail(what + ": stale eigenvalue hints were not re-routed");
    }
  }
}

/// At least 20 served requests, spread evenly over the run, plus every
/// stale-hint request — deterministic for a given stream.
std::vector<const Served*> sample_served(const std::vector<Phase>& phases) {
  std::vector<const Served*> all;
  for (const Phase& ph : phases) {
    for (const Served& s : ph.served) all.push_back(&s);
  }
  std::vector<const Served*> out;
  const std::size_t stride = std::max<std::size_t>(1, all.size() / 24);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % stride == 0 || all[i]->req->cls == "stale") out.push_back(all[i]);
  }
  return out;
}

/// Re-solve each sampled request alone on a fresh SolveSession with the
/// configuration the server reported, and demand the same outer
/// iterations and a bitwise-equal final norm; the re-solved field must
/// also pass the residual oracle.  The requests of the dominant ("small")
/// class are the per-request layer sample: their counts are returned, in
/// a traced run they are re-solved through traced_solve, and the last
/// such session is kept in `probe_session` for the unit-cost probes.
Counts resolve_sample(const std::vector<const Served*>& sample, Trace& trace,
                      int parent, Checks& checks,
                      std::unique_ptr<SolveSession>& probe_session) {
  Counts counts;
  for (const Served* s : sample) {
    const SolverConfig& cfg = s->result.config;
    const StreamRequest& req = *s->req;
    const bool layer = req.cls == "small";
    const int halo = std::max(2, cfg.halo_depth);
    std::unique_ptr<SolveSession> session;
    {
      Scoped c(trace, layer ? "api.session_ctor" : "resolve.session_ctor",
               parent, req.id);
      session = std::make_unique<SolveSession>(req.deck, req.ranks, halo);
    }
    const CommStats before = session->cluster().stats();
    const SolveStats st =
        layer && trace.on() ? traced_solve(*session, cfg, trace, parent, req.id)
                            : session->solve(cfg);
    if (layer) counts.add(st, before, session->cluster().stats());
    ++checks.resolves;
    const std::string what = "request " + std::to_string(req.id);
    if (st.outer_iters != s->result.stats.outer_iters ||
        std::bit_cast<std::uint64_t>(st.final_norm) !=
            std::bit_cast<std::uint64_t>(s->result.stats.final_norm)) {
      checks.fail(what + ": solo re-solve differs from the served result");
    }
    checks.residual(session->cluster(), cfg.eps, what);
    if (layer) probe_session = std::move(session);
  }
  return counts;
}

/// One pass of the server workload: set-up (`setups` times, keeping the
/// last server), the two open-loop phases and the burst, then the checks.
struct ServerPass {
  std::vector<double> setup_s;
  std::vector<Phase> phases;  ///< lo, hi, burst
  /// Calibrations around the set-ups and phases, and after each burst.
  std::vector<double> cal;
  Counts layer_counts;
  std::unique_ptr<SolveSession> probe_session;
};

ServerPass serve(const std::vector<StreamRequest>& stream,
                 const std::string& routes, int setups, Trace& trace,
                 int parent, Checks& checks) {
  std::vector<const StreamRequest*> warm, lo, hi, burst;
  for (const StreamRequest& r : stream) {
    if (r.phase == "warm") warm.push_back(&r);
    if (r.phase == "lo") lo.push_back(&r);
    if (r.phase == "hi") hi.push_back(&r);
    if (r.phase == "burst") burst.push_back(&r);
  }
  TEA_REQUIRE(!lo.empty() && !hi.empty() && !burst.empty(),
              "request stream needs lo, hi and burst phases");
  ServerPass pass;
  std::unique_ptr<SolveServer> server;
  pass.cal.push_back(calibrate());
  for (int i = 0; i < setups; ++i) {
    server.reset();
    Scoped s(trace, "setup", parent);
    const double t0 = now_s();
    server = make_server(routes, warm, trace, s.id());
    pass.setup_s.push_back(now_s() - t0);
  }
  pass.cal.push_back(calibrate());
  pass.phases.push_back(
      run_phase(*server, lo, true, "phase.lo", trace, parent, pass.cal));
  pass.cal.push_back(calibrate());
  pass.phases.push_back(
      run_phase(*server, hi, true, "phase.hi", trace, parent, pass.cal));
  pass.cal.push_back(calibrate());
  pass.phases.push_back(run_phase(*server, burst, false, "phase.burst",
                                  trace, parent, pass.cal));
  for (const Phase& ph : pass.phases) check_served(ph, checks);
  Scoped r(trace, "resolve", parent);
  pass.layer_counts = resolve_sample(sample_served(pass.phases), trace,
                                     r.id(), checks, pass.probe_session);
  return pass;
}

/// Median latency of the low-rate open-loop phase: the server's
/// latency_p50_s.  The high-rate phase queues, which amplifies host drift
/// past any bound a gate could hold, so its latencies are reported but
/// not gated.
double open_loop_p50(const ServerPass& pass) {
  std::vector<double> lat;
  for (const Served& s : pass.phases[0].served) lat.push_back(s.latency);
  return median(lat);
}

long long served_count(const ServerPass& pass) {
  long long n = 0;
  for (const Phase& ph : pass.phases) {
    n += static_cast<long long>(ph.served.size());
  }
  return n;
}

JsonValue phases_json(const ServerPass& pass) {
  JsonValue o = JsonValue::object();
  const char* names[] = {"lo", "hi", "burst"};
  for (std::size_t p = 0; p < pass.phases.size(); ++p) {
    o.set(names[p], phase_json(pass.phases[p]));
  }
  return o;
}

JsonValue run_server(const Args& args, Trace& trace, Checks& checks,
                     long long& attempted) {
  const std::string routes = args.get("routes", "");
  const int setups = std::max(1, args.get_int("setups", 3));
  JsonValue out = JsonValue::object();

  if (!trace.on()) {
    const std::vector<StreamRequest> stream =
        load_stream(args.get("requests", ""), trace, -1);
    const ServerPass pass = serve(stream, routes, setups, trace, -1, checks);
    attempted += served_count(pass);
    const double rps =
        phase_json(pass.phases[2]).at("drain_rps_p50").as_number();
    const double scale = ref_scale(pass.cal);
    JsonValue e2e = JsonValue::object();
    e2e.set("setup_s", median(pass.setup_s) * scale);
    e2e.set("latency_p50_s", open_loop_p50(pass) * scale);
    e2e.set("throughput_per_s", rps / scale);
    e2e.set("peak_rss_mb", peak_rss_mb());
    out.set("e2e", std::move(e2e));
    JsonValue raw = JsonValue::object();
    raw.set("setup_s", median(pass.setup_s));
    raw.set("latency_p50_s", open_loop_p50(pass));
    raw.set("throughput_per_s", rps);
    JsonValue info = JsonValue::object();
    info.set("raw", std::move(raw));
    info.set("calibration_s", json_array(pass.cal));
    out.set("info", std::move(info));
    out.set("extra", phases_json(pass));
  } else {
    JsonValue layer = JsonValue::object();
    const int root = trace.begin("workload", -1);
    merge_into(layer,
               probe_triad(args.get_double("llc-bytes", 32e6), trace, root));
    const std::vector<StreamRequest> stream =
        load_stream(args.get("requests", ""), trace, root);
    Trace off(false, 0);
    const ServerPass plain = serve(stream, routes, 1, off, -1, checks);
    const std::size_t spans_before = trace.size();
    const double traced_t0 = now_s();
    ServerPass traced = serve(stream, routes, 1, trace, root, checks);
    layer.set("bench.trace_overhead",
              trace_overhead(trace, spans_before, now_s() - traced_t0));
    attempted += served_count(plain) + served_count(traced);
    // Same stream, same work: per-request iterations and final norms of
    // the two passes must agree (batching never changes a result).
    for (std::size_t p = 0; p < plain.phases.size(); ++p) {
      const auto& a = plain.phases[p].served;
      const auto& b = traced.phases[p].served;
      bool same = a.size() == b.size();
      for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].result.stats.outer_iters ==
                   b[i].result.stats.outer_iters &&
               std::bit_cast<std::uint64_t>(a[i].result.stats.final_norm) ==
                   std::bit_cast<std::uint64_t>(b[i].result.stats.final_norm);
      }
      if (!same) {
        checks.fail("the traced pass did different work from the untraced "
                    "one");
      }
    }
    if (!(plain.layer_counts == traced.layer_counts)) {
      checks.fail("traced and untraced layer samples differ");
    }
    TEA_REQUIRE(traced.probe_session != nullptr,
                "request stream has no small-class request to probe");
    {
      Scoped p(trace, "probe", root);
      merge_into(layer, probe_session(*traced.probe_session, trace, p.id()));
      merge_into(layer, probe_runtime(routes, trace, p.id()));
    }
    trace.end(root);
    merge_into(layer, traced.layer_counts.json());
    const JsonValue hi = phase_json(traced.phases[1]);
    for (const char* k : {"batch_size_mean", "batched_frac",
                          "cache_hit_frac", "busy_frac", "queue_wait_frac"}) {
      layer.set(std::string("server.") + k, hi.at(k).as_number());
    }
    double reroutes = 0.0, failures = 0.0;
    for (const Phase& ph : traced.phases) {
      const JsonValue j = phase_json(ph);
      reroutes += j.at("reroutes").as_number();
      failures += j.at("failures").as_number();
    }
    layer.set("server.reroutes", reroutes);
    layer.set("server.failures", failures);
    out.set("layer", std::move(layer));
    out.set("extra", phases_json(traced));
  }
  return out;
}

int run(const Args& args) {
  const bool traced = args.get_int("trace", 0) != 0;
  Trace trace(traced, std::size_t{1} << 18);
  Checks checks;
  long long attempted = 0;
  JsonValue out = args.has("requests")
                      ? run_server(args, trace, checks, attempted)
                      : run_timestep(args, trace, checks, attempted);
  trace.write(args.get("spans", ""));
  if (trace.dropped() > 0) checks.fail("span buffer overflowed");

  JsonValue result = JsonValue::object();
  result.set("attempted", attempted);
  result.set("failed", checks.failed);
  result.set("checks", checks.json());
  merge_into(result, out);
  JsonValue build = JsonValue::object();
  build.set("compiler", __VERSION__);
#if defined(TEALEAF_HAVE_OPENMP)
  build.set("openmp", true);
#else
  build.set("openmp", false);
#endif
  build.set("threads", num_threads());
  result.set("build", std::move(build));
  std::printf("%s\n", result.dump(0).c_str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  try {
    return run(args);
  } catch (const TeaError& e) {
    std::fprintf(stderr, "tealeaf_e2e error: %s\n", e.what());
    return 2;
  }
}
