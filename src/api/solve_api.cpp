#include "api/solve_api.hpp"

#include <algorithm>
#include <sstream>

#include "driver/states.hpp"
#include "io/matrix_market.hpp"
#include "ops/kernels.hpp"
#include "ops/sparse_matrix.hpp"
#include "solvers/solver.hpp"
#include "util/error.hpp"

namespace tealeaf {

ProblemShape ProblemShape::of(const InputDeck& deck, int nranks, int halo) {
  ProblemShape s;
  s.dims = deck.dims;
  s.nx = deck.x_cells;
  s.ny = deck.y_cells;
  s.nz = deck.dims == 3 ? deck.z_cells : 1;
  s.nranks = nranks;
  s.halo = halo;
  s.op = deck.solver.op;
  s.precision = deck.solver.precision;
  return s;
}

std::string ProblemShape::key() const {
  std::ostringstream os;
  os << dims << "d/" << nx << "x" << ny << "x" << nz << "/r" << nranks
     << "/h" << halo;
  if (op != OperatorKind::kStencil) os << "/" << to_string(op);
  if (precision == Precision::kSingle) os << "/f32";
  if (precision == Precision::kMixed) os << "/mixed";
  return os.str();
}

SolveSession::SolveSession(const InputDeck& deck, int nranks,
                           int halo_override,
                           const std::optional<SolverConfig>& first)
    : deck_(deck) {
  deck_.validate();
  const GlobalMesh mesh = deck_.mesh();
  // Upstream allocates at least two halo layers; matrix powers needs the
  // full configured depth.
  const int halo =
      std::max({2, deck_.solver.halo_depth, halo_override});
  shape_ = ProblemShape::of(deck_, nranks, halo);
  cluster_ = std::make_unique<SimCluster>(mesh, nranks, halo);
  // The first solve's fields are first touched here, in set-up; a route
  // that needs others adds them when it first runs (run_solver).
  cluster_->allocate(solve_fields(*cluster_, first.value_or(deck_.solver)));
  apply_states(*cluster_, deck_);
  // Seed u = ρ·e so a pre-solve field_summary reports the initial state.
  cluster_->for_each_chunk([](int, Chunk& c) { kernels::init_u_u0(c); });
}

void SolveSession::reset(const InputDeck& deck) {
  InputDeck next = deck;
  next.validate();
  TEA_REQUIRE(ProblemShape::of(next, shape_.nranks, shape_.halo) == shape_,
              "SolveSession::reset: deck shape differs from the session's "
              "(key " + shape_.key() + ") — acquire a matching session "
              "instead");
  TEA_REQUIRE(std::max(2, next.solver.halo_depth) <= shape_.halo,
              "SolveSession::reset: deck needs a deeper halo than this "
              "session allocated");
  deck_ = std::move(next);
  apply_states(*cluster_, deck_);
  cluster_->for_each_chunk([](int, Chunk& c) { kernels::init_u_u0(c); });
  sim_time_ = 0.0;
  solves_taken_ = 0;
}

void SolveSession::prepare(OperatorKind op) {
  SimCluster2D& cl = *cluster_;
  const double dt = deck_.initial_timestep;
  const double rx = dt / (cl.mesh().dx() * cl.mesh().dx());
  const double ry = dt / (cl.mesh().dy() * cl.mesh().dy());
  const double rz =
      cl.mesh().dims == 3 ? dt / (cl.mesh().dz() * cl.mesh().dz()) : 0.0;
  // The matrix-powers extended sweeps and the face-coefficient build both
  // read material fields deep into the halo: one full-depth exchange.
  cl.exchange({FieldId::kDensity, FieldId::kEnergy1}, cl.halo_depth());
  cl.for_each_chunk([&](int, Chunk& c) {
    // A step holds one assembled matrix: the last step's goes before
    // this step's is built.
    c.clear_assembled_operator();
    kernels::init_u_u0(c);
    kernels::init_conduction(c, deck_.coefficient, rx, ry, rz);
  });
  if (op == OperatorKind::kStencil) return;
  if (!deck_.matrix_file.empty()) {
    // Externally supplied operator: one global matrix, so the whole mesh
    // must live in one chunk (no halo exchange can refresh loaded rows).
    TEA_REQUIRE(shape_.nranks == 1,
                "matrix_file decks run single-rank (the loaded operator "
                "covers the whole mesh and cannot be decomposed)");
    if (loaded_matrix_path_ != deck_.matrix_file) {
      const io::TripletMatrix trips =
          io::load_matrix_market(deck_.matrix_file);
      loaded_matrix_ = std::make_shared<const CsrMatrix>(
          io::csr_from_triplets(trips, cl.chunk(0)));
      loaded_matrix_path_ = deck_.matrix_file;
    }
    cl.chunk(0).set_assembled_operator(loaded_matrix_);
    return;
  }
  // Assemble the just-built conduction stencil; coefficients change every
  // prepare, so this cannot be memoised across resets.
  cl.for_each_chunk([](int, Chunk& c) {
    c.set_assembled_operator(
        std::make_shared<const CsrMatrix>(assemble_from_stencil(c)));
  });
}

void SolveSession::finish_solve(const SolveStats& stats) {
  if (stats.breakdown) return;  // u is garbage: keep the step's input state
  // Recover specific energy from the temperature solution.
  cluster_->for_each_chunk([](int, Chunk& c) {
    auto& energy = c.energy();
    const auto& u = c.u();
    const auto& density = c.density();
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j)
          energy(j, k, l) = u(j, k, l) / density(j, k, l);
  });
  sim_time_ += deck_.initial_timestep;
  ++solves_taken_;
}

SolveStats SolveSession::solve(const SolverConfig& cfg) {
  const SolverConfig checked = cfg.validated();
  TEA_REQUIRE(std::max(2, checked.halo_depth) <= shape_.halo,
              "SolveSession::solve: config needs a deeper halo than this "
              "session allocated (construct with halo_override)");
  // A loaded Matrix Market operator has no stencil coefficients to
  // re-assemble in fp32, so the mixed-precision layer cannot build its
  // fp32 twin — the deck parser rejects the combination too.
  TEA_REQUIRE(deck_.matrix_file.empty() ||
                  checked.precision == Precision::kDouble,
              "tl_precision single/mixed cannot run a matrix_file operator "
              "(no stencil coefficients to assemble in fp32); use "
              "tl_precision = double");
  prepare(checked.op);
  const SolveStats stats = run_solver(*cluster_, checked, machine());
  finish_solve(stats);
  return stats;
}

FieldSummary SolveSession::field_summary() {
  SimCluster2D& cl = *cluster_;
  // Cell measure: area in 2-D, volume in 3-D (same weighting role).
  const double cell_vol = cl.mesh().cell_volume();
  FieldSummary fs;
  fs.volume = cl.sum_over_chunks([&](int, const Chunk& c) {
    return cell_vol * static_cast<double>(c.nx()) * c.ny() * c.nz();
  });
  fs.mass = cl.sum_over_chunks([&](int, Chunk& c) {
    return cell_vol * c.density().sum_interior();
  });
  fs.ie = cl.sum_over_chunks([&](int, Chunk& c) {
    double acc = 0.0;
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j)
          acc += c.density()(j, k, l) * c.energy()(j, k, l);
    return acc * cell_vol;
  });
  fs.temp = cl.sum_over_chunks([&](int, Chunk& c) {
    return cell_vol * c.u().sum_interior();
  });
  return fs;
}

std::vector<SolveSession*> SessionCache::acquire(
    const InputDeck& deck, int nranks, int halo,
    const std::vector<SolverConfig>& routes) {
  const int count = static_cast<int>(routes.size());
  TEA_REQUIRE(count >= 1, "SessionCache::acquire: needs at least one route");
  const ProblemShape shape = ProblemShape::of(deck, nranks, halo);
  const auto found = pool_.find(shape.key());
  const int have = found == pool_.end()
                       ? 0
                       : static_cast<int>(found->second.sessions.size());
  // Construct what the pool lacks before touching it: a session the deck
  // cannot build leaves the pool and the counters as they were.
  std::vector<std::unique_ptr<SolveSession>> built;
  for (int i = have; i < count; ++i) {
    built.push_back(std::make_unique<SolveSession>(
        deck, nranks, halo, routes[static_cast<std::size_t>(i)]));
  }
  ShapeEntry& entry = pool_[shape.key()];
  entry.last_use = ++clock_;
  hits_ += std::min(have, count);
  misses_ += static_cast<long long>(built.size());
  for (std::unique_ptr<SolveSession>& s : built) {
    entry.sessions.push_back(std::move(s));
  }
  std::vector<SolveSession*> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(entry.sessions[i].get());

  // LRU over shapes: drop whole least-recently-used shapes (never the one
  // just returned) until the pool fits.  A single over-wide batch may
  // legitimately exceed the cap; it shrinks again on the next acquire.
  while (size() > max_sessions_ && pool_.size() > 1) {
    auto victim = pool_.end();
    for (auto it = pool_.begin(); it != pool_.end(); ++it) {
      if (it->first == shape.key()) continue;
      if (victim == pool_.end() || it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == pool_.end()) break;
    pool_.erase(victim);
  }
  return out;
}

std::vector<const SolveSession*> SessionCache::pooled(
    const ProblemShape& shape) const {
  std::vector<const SolveSession*> out;
  const auto found = pool_.find(shape.key());
  if (found == pool_.end()) return out;
  for (const auto& s : found->second.sessions) out.push_back(s.get());
  return out;
}

std::size_t SessionCache::size() const {
  std::size_t n = 0;
  for (const auto& [key, entry] : pool_) n += entry.sessions.size();
  return n;
}

}  // namespace tealeaf
