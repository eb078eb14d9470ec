// The mixed-precision execution layer's contract (tenth design-space
// axis):
//   * tl_precision = double is BITWISE identical to the historical fp64
//     path — allocating (but not activating) the fp32 bank must not
//     perturb a single ULP of any solver, engine, geometry or operator
//     representation;
//   * tl_precision = mixed converges to the SAME tl_eps as fp64, through
//     an fp64-guarded iterative-refinement loop around fp32 inner solves,
//     and records how many refinement passes it took;
//   * tl_precision = single is honest all-fp32: deterministic run to run,
//     identical across operator representations, close to — but not
//     pretending to be — the fp64 answer;
//   * the session layer keys on precision so fp32-banked sessions (and
//     their eigenvalue memos) never serve a request of another precision.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/solve_api.hpp"
#include "driver/deck.hpp"
#include "driver/decks.hpp"
#include "ops/operator_view.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace tealeaf {
namespace {

// These tests' meshes are too small for a threaded team_width: pin three
// threads so their solves and collectives keep a threaded team.
[[maybe_unused]] ::testing::Environment* const kPinnedTeam =
    ::testing::AddGlobalTestEnvironment(new testing::PinnedThreads(3));

using testing::install_operator;
using testing::make_test_problem;
using testing::make_test_problem_3d;
using testing::max_field_diff;

/// True when the n values at a and b have the same bit patterns.
template <class T>
bool same_bits(const T* a, const T* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(T)) == 0;
}

// ---- fp64 path: bitwise unperturbed by the precision layer ---------------

/// (solver, tile height, geometry, operator).
using Fp64Case = std::tuple<SolverType, int, int, OperatorKind>;

class Fp64BitwiseIdentity : public ::testing::TestWithParam<Fp64Case> {};

TEST_P(Fp64BitwiseIdentity, Fp32BankDoesNotPerturbDoubleSolves) {
  const auto [type, tile_rows, dims, op] = GetParam();
  SolverConfig cfg;
  cfg.type = type;
  cfg.op = op;
  cfg.eps = (type == SolverType::kJacobi) ? 1e-4 : 1e-8;
  cfg.max_iters = (type == SolverType::kJacobi) ? 60000 : 10000;
  cfg.eigen_cg_iters = 15;
  cfg.inner_steps = 8;
  cfg.tile_rows = tile_rows;
  const std::string engine = "tile " + std::to_string(tile_rows);

  const auto make = [&] {
    return dims == 3 ? make_test_problem_3d(10, 2, 2)
                     : make_test_problem(20, 2, 2);
  };
  auto ref = make();
  install_operator(*ref, op);
  const SolveStats ss = run_solver(*ref, cfg);
  ASSERT_TRUE(ss.converged) << engine;

  // Same problem, but every chunk carries the (inactive) fp32 bank a mixed
  // solve of this config uses, and the config names its precision
  // explicitly.  kDouble never touches the bank, so nothing may differ —
  // not even ULPs.
  auto cl = make();
  install_operator(*cl, op);
  SolverConfig mcfg = cfg;
  mcfg.precision = Precision::kMixed;
  cl->allocate(solve_fields(*cl, mcfg));
  SolverConfig dcfg = cfg;
  dcfg.precision = Precision::kDouble;
  const SolveStats sd = run_solver(*cl, dcfg);
  ASSERT_TRUE(sd.converged) << engine;

  EXPECT_EQ(sd.outer_iters, ss.outer_iters) << engine;
  EXPECT_EQ(sd.inner_steps, ss.inner_steps) << engine;
  EXPECT_EQ(sd.eigen_cg_iters, ss.eigen_cg_iters) << engine;
  EXPECT_EQ(sd.spmv_applies, ss.spmv_applies) << engine;
  EXPECT_EQ(sd.initial_norm, ss.initial_norm) << engine;
  EXPECT_EQ(sd.final_norm, ss.final_norm) << engine;
  EXPECT_EQ(sd.refine_steps, 0);
  EXPECT_EQ(max_field_diff(*ref, *cl, FieldId::kU), 0.0)
      << engine;
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversEnginesGeometriesOperators, Fp64BitwiseIdentity,
    ::testing::Combine(
        ::testing::Values(SolverType::kJacobi, SolverType::kCG,
                          SolverType::kChebyshev, SolverType::kPPCG),
        ::testing::Values(0, 6),
        ::testing::Values(2, 3),
        ::testing::Values(OperatorKind::kStencil, OperatorKind::kCsr)));

// ---- mixed: fp64-guarded refinement reaches the fp64 tolerance -----------

InputDeck load_deck(const std::string& name) {
  const std::string path = std::string(TEALEAF_DECKS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  return InputDeck::parse(in);
}

InputDeck coarsen(InputDeck deck, int n, int steps) {
  deck.x_cells = n;
  deck.y_cells = n;
  deck.end_time = 0.0;
  deck.end_step = steps;
  deck.solver.eps = 1e-8;
  return deck;
}

TEST(MixedPrecision, ConvergesToFp64ToleranceOnAllBenchmarkDecks) {
  for (const char* name :
       {"tea_bm_crooked_pipe.in", "tea_bm_short.in",
        "tea_bm_block_jacobi.in", "tea_bm_fused_cg.in"}) {
    const InputDeck deck = coarsen(load_deck(name), 40, 1);
    SolveSession session(deck, 2);
    SolverConfig cfg = deck.solver;
    cfg.precision = Precision::kMixed;
    const SolveStats st = session.solve(cfg);
    EXPECT_TRUE(st.converged) << name;
    EXPECT_FALSE(st.breakdown) << name;
    // Converged means the fp64 TRUE residual met the deck's own tl_eps —
    // the same target the fp64 path solves to, not a looser fp32 one.
    EXPECT_LE(st.final_norm, cfg.eps * st.initial_norm) << name;
    EXPECT_GE(st.refine_steps, 0) << name;
    EXPECT_LE(st.refine_steps, 12) << name;
  }
}

TEST(MixedPrecision, TightToleranceForcesRefinementPasses) {
  // tl_eps = 1e-10 sits far below the fp32 inner floor (1e-5), so the
  // outer loop must take at least one correction re-solve to get there.
  auto cl = make_test_problem(24, 2, 2);
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-10;
  cfg.max_iters = 10000;
  cfg.precision = Precision::kMixed;
  const SolveStats st = run_solver(*cl, cfg);
  ASSERT_TRUE(st.converged);
  EXPECT_GE(st.refine_steps, 1);
  EXPECT_LE(st.final_norm, cfg.eps * st.initial_norm);
  // The aggregated stats carry the inner solves' work.
  EXPECT_GT(st.outer_iters, 0);
  EXPECT_GT(st.spmv_applies, 0);
  // And the fp64 guard really left an fp64 solution behind: recomputing
  // the residual from scratch in fp64 agrees with the claim.
  EXPECT_LT(testing::relative_residual(*cl), 1e-9);
}

TEST(MixedPrecision, MaxItersBoundsAllPassesTogether) {
  // tl_max_iters bounds a mixed solve as it bounds a double one: each fp32
  // pass gets what the passes before it left, and a spent budget ends the
  // solve unconverged, with no breakdown.  Jacobi spends its budget in
  // its first pass, CG and Chebyshev theirs in the second.
  const log::Level was = log::level();
  log::set_level(log::Level::kError);  // capped solves warn at max_iters
  const struct {
    SolverType type;
    double eps;
    int max_iters;
    int refine_steps;
  } cases[] = {{SolverType::kJacobi, 1e-5, 25, 0},
               {SolverType::kCG, 1e-9, 50, 1},
               {SolverType::kChebyshev, 1e-9, 55, 1}};
  for (const auto& c : cases) {
    auto cl = make_test_problem(20, 2, 2);
    SolverConfig cfg;
    cfg.type = c.type;
    cfg.eps = c.eps;
    cfg.max_iters = c.max_iters;
    cfg.precision = Precision::kMixed;
    const SolveStats st = run_solver(*cl, cfg);
    const char* name = to_string(c.type);
    EXPECT_EQ(st.outer_iters, c.max_iters) << name;
    EXPECT_EQ(st.refine_steps, c.refine_steps) << name;
    EXPECT_FALSE(st.converged) << name;
    EXPECT_FALSE(st.breakdown) << name << ": " << st.breakdown_reason;
    EXPECT_GT(st.final_norm, cfg.eps * st.initial_norm) << name;
  }
  log::set_level(was);
}

// ---- single: honest, deterministic all-fp32 ------------------------------

TEST(SinglePrecision, DeterministicAcrossRuns) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-4;
  cfg.max_iters = 10000;
  cfg.precision = Precision::kSingle;
  auto a = make_test_problem(24, 2, 2);
  auto b = make_test_problem(24, 2, 2);
  const SolveStats sa = run_solver(*a, cfg);
  const SolveStats sb = run_solver(*b, cfg);
  ASSERT_TRUE(sa.converged);
  EXPECT_EQ(sb.outer_iters, sa.outer_iters);
  EXPECT_EQ(sb.initial_norm, sa.initial_norm);
  EXPECT_EQ(sb.final_norm, sa.final_norm);
  EXPECT_EQ(max_field_diff(*a, *b, FieldId::kU), 0.0);
}

TEST(SinglePrecision, AssembledOperatorsMatchStencilBitwise) {
  // The fp32 CSR values are assembled from the fp32 coefficient fields in
  // float arithmetic, in the stencil's own entry order — so the fp32
  // representations must agree exactly, just like the fp64 ones do.
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-4;
  cfg.max_iters = 10000;
  cfg.precision = Precision::kSingle;
  auto ref = make_test_problem(24, 2, 2);
  const SolveStats ss = run_solver(*ref, cfg);
  ASSERT_TRUE(ss.converged);
  auto cl = make_test_problem(24, 2, 2);
  install_operator(*cl, OperatorKind::kCsr);
  SolverConfig acfg = cfg;
  acfg.op = OperatorKind::kCsr;
  const SolveStats sa = run_solver(*cl, acfg);
  ASSERT_TRUE(sa.converged);
  EXPECT_EQ(sa.outer_iters, ss.outer_iters);
  EXPECT_EQ(sa.initial_norm, ss.initial_norm);
  EXPECT_EQ(sa.final_norm, ss.final_norm);
  EXPECT_EQ(max_field_diff(*ref, *cl, FieldId::kU), 0.0);
}

TEST(SinglePrecision, TracksButDoesNotEqualTheFp64Solution) {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.eps = 1e-4;
  cfg.max_iters = 10000;
  auto f64 = make_test_problem(24, 2, 2);
  ASSERT_TRUE(run_solver(*f64, cfg).converged);
  auto f32 = make_test_problem(24, 2, 2);
  SolverConfig scfg = cfg;
  scfg.precision = Precision::kSingle;
  ASSERT_TRUE(run_solver(*f32, scfg).converged);
  const double diff = max_field_diff(*f64, *f32, FieldId::kU);
  EXPECT_GT(diff, 0.0);    // honest fp32 arithmetic, not a relabelled fp64
  EXPECT_LT(diff, 1e-2);   // but the same physics to fp32-ish accuracy
}

// ---- session layer: precision is part of the problem shape ---------------

TEST(PrecisionShape, KeySuffixesDistinguishPrecisions) {
  InputDeck deck = decks::hot_block(16);
  const std::string base = ProblemShape::of(deck, 2, 2).key();
  EXPECT_EQ(base.find("/f32"), std::string::npos);
  EXPECT_EQ(base.find("/mixed"), std::string::npos);
  deck.solver.precision = Precision::kSingle;
  const std::string f32 = ProblemShape::of(deck, 2, 2).key();
  deck.solver.precision = Precision::kMixed;
  const std::string mixed = ProblemShape::of(deck, 2, 2).key();
  EXPECT_EQ(f32, base + "/f32");
  EXPECT_EQ(mixed, base + "/mixed");
}

TEST(PrecisionShape, SessionCacheNeverSharesAcrossPrecisions) {
  SessionCache cache(8);
  InputDeck deck = decks::hot_block(16);
  const auto dbl = cache.acquire(deck, 2, 2, {deck.solver});
  deck.solver.precision = Precision::kMixed;
  const auto mix = cache.acquire(deck, 2, 2, {deck.solver});
  ASSERT_EQ(dbl.size(), 1u);
  ASSERT_EQ(mix.size(), 1u);
  // Same geometry, different precision: two distinct sessions (a cache
  // hit here would hand an fp64 session, which has no fp32 field bank,
  // to a mixed request).
  EXPECT_NE(dbl[0], mix[0]);
  EXPECT_EQ(cache.shapes(), 2u);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(PrecisionShape, MatrixFileOperatorRejectsReducedPrecision) {
  InputDeck deck = decks::hot_block(16);
  deck.solver.op = OperatorKind::kCsr;
  deck.matrix_file = "system.mtx";
  SolveSession session(deck, 1);
  SolverConfig cfg = deck.solver;
  cfg.precision = Precision::kMixed;
  // The guard fires before any file I/O: a loaded operator has no stencil
  // coefficients to re-assemble in fp32.
  EXPECT_THROW(session.solve(cfg), TeaError);
}

// ---- fp32 row cores: kernel-level oracle --------------------------------

/// Put every chunk on its fp32 bank as the single/mixed drivers do — the
/// coefficients downcast, an assembled operator re-assembled in fp32 —
/// and fill the fp32 work fields (halos included) with deterministic
/// values, then activate the bank.  The values span 2^-20..2^20, so the
/// fp64 row sums round and depend on their order of accumulation.
void activate_fp32_bank(SimCluster& cl) {
  FieldSet bank{FieldId::kU,  FieldId::kP,  FieldId::kR, FieldId::kW,
                FieldId::kZ,  FieldId::kKx, FieldId::kKy};
  if (cl.mesh().dims == 3) bank |= {FieldId::kKz};
  cl.allocate({.fp32 = bank});
  cl.for_each_chunk([](int rank, Chunk& c) {
    for (const FieldId f : {FieldId::kKx, FieldId::kKy, FieldId::kKz}) {
      if (f == FieldId::kKz && c.dims() == 2) continue;
      const Field<double>& k64 = c.field(f);
      Field<float>& k32 = c.field32(f);
      for (std::size_t i = 0; i < k64.size(); ++i)
        k32.data()[i] = static_cast<float>(k64.data()[i]);
    }
    if (c.op_kind() == OperatorKind::kCsr) {
      c.set_assembled_operator32(
          std::make_shared<CsrMatrix32>(assemble_from_stencil_t<float>(c)));
    }
    int seed = 0;
    for (const FieldId f : {FieldId::kU, FieldId::kP, FieldId::kR,
                            FieldId::kW, FieldId::kZ}) {
      Field<float>& x = c.field32(f);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x.data()[i] = static_cast<float>(std::ldexp(
            0.5 + 0.25 * std::sin(0.37 * static_cast<double>(i) +
                                  1.3 * seed + 0.7 * rank),
            static_cast<int>(i % 41) - 20));
      }
      ++seed;
    }
    c.set_fp32_active(true);
  });
}

/// Call `fn` with the chunk's float operator view.
template <class Fn>
void with_view32(const Chunk& c, Fn&& fn) {
  if (c.op_kind() == OperatorKind::kCsr) {
    fn(CsrViewT<float>(c));
  } else if (c.dims() == 3) {
    fn(StencilView<3, float>(c));
  } else {
    fn(StencilView<2, float>(c));
  }
}

/// The tile boxes the engine hands out over the interior at `tile` rows
/// per block (0: one block per plane), plane by plane.
std::vector<Bounds> interior_tiles(const Chunk& c, int tile) {
  const Bounds in = interior_bounds(c);
  const int rows = in.khi - in.klo;
  const int h = (tile <= 0 || tile >= rows) ? rows : tile;
  std::vector<Bounds> tiles;
  for (int l = in.llo; l < in.lhi; ++l) {
    for (int k0 = in.klo; k0 < in.khi; k0 += h) {
      Bounds tb = in;
      tb.llo = l;
      tb.lhi = l + 1;
      tb.klo = k0;
      tb.khi = std::min(in.khi, k0 + h);
      tiles.push_back(tb);
    }
  }
  return tiles;
}

/// Reference smvp_dot over the interior in the fused order: per cell,
/// store A·src, then add double(src)·double(stored) in ascending j.
std::vector<double> reference_smvp_dot(Chunk& c) {
  std::vector<double> rows(static_cast<std::size_t>(c.ny() * c.nz()));
  const Field<float>& p = c.field32(FieldId::kP);
  Field<float>& w = c.field32(FieldId::kW);
  with_view32(c, [&](const auto& A) {
    for (int l = 0; l < c.nz(); ++l) {
      for (int k = 0; k < c.ny(); ++k) {
        double acc = 0.0;
        for (int j = 0; j < c.nx(); ++j) {
          const float wv = A.apply(p, j, k, l);
          w(j, k, l) = wv;
          acc += static_cast<double>(p(j, k, l)) * static_cast<double>(wv);
        }
        rows[static_cast<std::size_t>(l * c.ny() + k)] = acc;
      }
    }
  });
  return rows;
}

/// Reference calc_ur_dot over the interior in the fused order.
std::vector<double> reference_calc_ur_dot(Chunk& c, double alpha, bool diag) {
  std::vector<double> rows(static_cast<std::size_t>(c.ny() * c.nz()));
  Field<float>& u = c.field32(FieldId::kU);
  Field<float>& r = c.field32(FieldId::kR);
  Field<float>& z = c.field32(FieldId::kZ);
  const Field<float>& p = c.field32(FieldId::kP);
  const Field<float>& w = c.field32(FieldId::kW);
  const float a = static_cast<float>(alpha);
  with_view32(c, [&](const auto& A) {
    for (int l = 0; l < c.nz(); ++l) {
      for (int k = 0; k < c.ny(); ++k) {
        double acc = 0.0;
        for (int j = 0; j < c.nx(); ++j) {
          u(j, k, l) += a * p(j, k, l);
          const float rv = r(j, k, l) - a * w(j, k, l);
          r(j, k, l) = rv;
          if (diag) {
            const float zv = rv / A.diag(j, k, l);
            z(j, k, l) = zv;
            acc += static_cast<double>(rv) * static_cast<double>(zv);
          } else {
            acc += static_cast<double>(rv) * static_cast<double>(rv);
          }
        }
        rows[static_cast<std::size_t>(l * c.ny() + k)] = acc;
      }
    }
  });
  return rows;
}

/// (geometry, operator).
using RowCoreCase = std::tuple<int, OperatorKind>;

class Fp32RowCores : public ::testing::TestWithParam<RowCoreCase> {
 protected:
  std::unique_ptr<SimCluster> make_active() const {
    const auto [dims, op] = GetParam();
    auto cl = dims == 3 ? make_test_problem_3d(9, 2, 2)
                        : make_test_problem(18, 2, 2);
    install_operator(*cl, op);
    activate_fp32_bank(*cl);
    return cl;
  }

  /// Every fp32 work field and the per-row partials of `got` equal
  /// `want`'s bit for bit.
  static void expect_same(SimCluster& got, SimCluster& want,
                          const std::vector<std::vector<double>>& rows,
                          const std::string& what) {
    for (int rank = 0; rank < got.nranks(); ++rank) {
      Chunk& g = got.chunk(rank);
      Chunk& e = want.chunk(rank);
      for (const FieldId f : {FieldId::kU, FieldId::kP, FieldId::kR,
                              FieldId::kW, FieldId::kZ}) {
        const Field<float>& a = g.field32(f);
        EXPECT_TRUE(same_bits(a.data(), e.field32(f).data(), a.size()))
            << what << " rank " << rank << " field "
            << static_cast<int>(f);
      }
      const std::vector<double>& ref = rows[static_cast<std::size_t>(rank)];
      EXPECT_TRUE(same_bits(g.row_scratch(), ref.data(), ref.size()))
          << what << " rank " << rank << " row partials";
    }
  }
};

TEST_P(Fp32RowCores, SmvpDotRowsMatchFusedReferenceBitwise) {
  for (const int tile : {1, 3, 0}) {
    auto got = make_active();
    auto want = make_active();
    std::vector<std::vector<double>> rows;
    for (int rank = 0; rank < got->nranks(); ++rank) {
      Chunk& c = got->chunk(rank);
      for (const Bounds& tb : interior_tiles(c, tile)) {
        kernels::smvp_dot_rows(c, FieldId::kP, FieldId::kW,
                               interior_bounds(c), tb, c.row_scratch());
      }
      rows.push_back(reference_smvp_dot(want->chunk(rank)));
    }
    expect_same(*got, *want, rows, "smvp_dot tile=" + std::to_string(tile));
  }
}

TEST_P(Fp32RowCores, CalcUrDotRowsMatchFusedReferenceBitwise) {
  constexpr double kAlpha = 0.61;
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag}) {
    const bool diag = (precon == PreconType::kJacobiDiag);
    for (const int tile : {1, 3, 0}) {
      auto got = make_active();
      auto want = make_active();
      std::vector<std::vector<double>> rows;
      for (int rank = 0; rank < got->nranks(); ++rank) {
        Chunk& c = got->chunk(rank);
        for (const Bounds& tb : interior_tiles(c, tile)) {
          kernels::calc_ur_dot_rows(c, kAlpha, precon, tb, c.row_scratch());
        }
        rows.push_back(
            reference_calc_ur_dot(want->chunk(rank), kAlpha, diag));
      }
      expect_same(*got, *want, rows,
                  std::string("calc_ur_dot ") + to_string(precon) +
                      " tile=" + std::to_string(tile));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesOperators, Fp32RowCores,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(OperatorKind::kStencil,
                                         OperatorKind::kCsr)));

// ---- block-Jacobi strips inside tiles -------------------------------------

/// (geometry, operator, fp32 bank active).
using StripCase = std::tuple<int, OperatorKind, bool>;

class BlockJacobiStripTiles : public ::testing::TestWithParam<StripCase> {
 protected:
  /// A factorised problem with a deterministic r on the active bank.
  std::unique_ptr<SimCluster> make() const {
    const auto [dims, op, fp32] = GetParam();
    auto cl = dims == 3 ? make_test_problem_3d(9, 2, 2)
                        : make_test_problem(18, 2, 2);
    install_operator(*cl, op);
    const FieldSet strips{FieldId::kR, FieldId::kZ, FieldId::kCp,
                          FieldId::kBfp};
    if (fp32) {
      cl->allocate({.fp32 = strips});
      activate_fp32_bank(*cl);
    } else {
      cl->allocate({.fp64 = strips});
      cl->for_each_chunk([](int rank, Chunk& c) {
        Field<double>& r = c.field(FieldId::kR);
        for (std::size_t i = 0; i < r.size(); ++i) {
          r.data()[i] = std::sin(0.37 * static_cast<double>(i) + rank);
        }
      });
    }
    cl->for_each_chunk([](int, Chunk& c) { kernels::block_jacobi_init(c); });
    return cl;
  }

  /// z of one chunk's interior rows (index l·ny + k), as bit patterns of
  /// the active bank's scalar.
  static std::vector<std::vector<std::uint64_t>> z_rows(const Chunk& c) {
    std::vector<std::vector<std::uint64_t>> rows;
    for (int l = 0; l < c.nz(); ++l) {
      for (int k = 0; k < c.ny(); ++k) {
        std::vector<std::uint64_t> bits;
        for (int j = 0; j < c.nx(); ++j) {
          bits.push_back(c.fp32_active()
                             ? std::bit_cast<std::uint32_t>(
                                   c.field32(FieldId::kZ)(j, k, l))
                             : std::bit_cast<std::uint64_t>(
                                   c.field(FieldId::kZ)(j, k, l)));
        }
        rows.push_back(std::move(bits));
      }
    }
    return rows;
  }
};

TEST_P(BlockJacobiStripTiles, StripAlignedTilesMatchTheWholeChunkSolve) {
  auto whole = make();
  bool truncated_top = false;
  whole->for_each_chunk([&](int, Chunk& c) {
    truncated_top = truncated_top || c.ny() % kJacBlockSize != 0;
    kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ,
                                interior_bounds(c));
  });
  ASSERT_TRUE(truncated_top) << "no chunk ends in a short strip";
  // 0: one tile per plane.
  for (const int tile : {4, 8, 12, 0}) {
    auto tiled = make();
    tiled->for_each_chunk([&](int rank, Chunk& c) {
      for (const Bounds& tb : interior_tiles(c, tile)) {
        const auto before = z_rows(c);
        kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, tb);
        // The solve writes its tile's rows and no others.
        const auto after = z_rows(c);
        for (int l = 0; l < c.nz(); ++l) {
          for (int k = 0; k < c.ny(); ++k) {
            if (tb.contains(0, k, l)) continue;
            const std::size_t row = static_cast<std::size_t>(l * c.ny() + k);
            EXPECT_EQ(after[row], before[row])
                << "tile=" << tile << " wrote row " << k << " of plane " << l;
          }
        }
      }
      EXPECT_EQ(z_rows(c), z_rows(whole->chunk(rank))) << "tile=" << tile;
    });
  }
}

TEST_P(BlockJacobiStripTiles, TileOffAStripBoundaryThrows) {
  auto cl = make();
  Chunk& c = cl->chunk(0);
  ASSERT_GT(c.ny(), kJacBlockSize);
  Bounds tb = interior_bounds(c);
  tb.lhi = tb.llo + 1;
  Bounds starts_off = tb;
  starts_off.klo = 1;
  EXPECT_THROW(
      kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, starts_off),
      TeaError);
  Bounds ends_off = tb;
  ends_off.khi = kJacBlockSize - 1;
  EXPECT_THROW(
      kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ, ends_off),
      TeaError);
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesOperatorsPrecisions, BlockJacobiStripTiles,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(OperatorKind::kStencil,
                                         OperatorKind::kCsr),
                       ::testing::Bool()));

// ---- subnormals: flushed inside fp32 solves, never outside ---------------

/// The crooked pipe at 64² with a cold background of energy 1e-30: far
/// from the hot inlet the fp32 correction decays below FLT_MIN.
InputDeck cold_pipe_deck() {
  return InputDeck::parse_string(
      "*tea\n"
      "x_cells=64\ny_cells=64\nxmin=0\nxmax=10\nymin=0\nymax=10\n"
      "initial_timestep=0.04\nend_step=3\ntl_coefficient=conductivity\n"
      "tl_use_cg\ntl_eps=1e-10\ntl_max_iters=20000\n"
      "tl_precision=mixed\ntl_operator=csr\n"
      "state 1 density=100 energy=1e-30\n"
      "state 2 density=0.1 energy=1e-30 geometry=rectangle "
      "xmin=0 xmax=3 ymin=7 ymax=8\n"
      "state 3 density=0.1 energy=1e-30 geometry=rectangle "
      "xmin=2 xmax=3 ymin=2 ymax=8\n"
      "state 4 density=0.1 energy=1e-30 geometry=rectangle "
      "xmin=2 xmax=8 ymin=2 ymax=3\n"
      "state 5 density=0.1 energy=25 geometry=rectangle "
      "xmin=0 xmax=1 ymin=7 ymax=8\n"
      "*endtea\n");
}

/// Subnormal values in the fp32 solve fields u, p, r and w of every chunk
/// (u0 is left out: its downcast runs outside the solve).
long long fp32_subnormals(const SimCluster& cl) {
  long long n = 0;
  for (int rank = 0; rank < cl.nranks(); ++rank) {
    const Chunk& c = cl.chunk(rank);
    for (const FieldId f :
         {FieldId::kU, FieldId::kP, FieldId::kR, FieldId::kW}) {
      const Field<float>& x = c.field32(f);
      for (std::size_t i = 0; i < x.size(); ++i)
        n += std::fpclassify(x.data()[i]) == FP_SUBNORMAL ? 1 : 0;
    }
  }
  return n;
}

TEST(SubnormalFlush, MixedSolveLeavesNoFp32Subnormals) {
  if (!SubnormalFlush::kActive) {
    GTEST_SKIP() << "subnormal flushing is a no-op on this target";
  }
  // Without flushing (gradual underflow in the solve region) this deck
  // left 4,417, 3,266 and 886 subnormals in these fields after steps 0, 1
  // and 2.
  const InputDeck deck = cold_pipe_deck();
  SolveSession session(deck, 2);
  for (int step = 0; step < deck.end_step; ++step) {
    const SolveStats st = session.solve();
    ASSERT_TRUE(st.converged) << "step " << step;
    EXPECT_LE(st.final_norm, deck.solver.eps * st.initial_norm)
        << "step " << step;
    EXPECT_EQ(fp32_subnormals(session.cluster()), 0) << "step " << step;
  }
}

/// Every thread of a fresh region divides FLT_MIN by 4 and reports
/// whether the result survived (it does under gradual underflow).
bool every_thread_keeps_subnormals() {
  std::vector<int> kept(static_cast<std::size_t>(num_threads()), 0);
  int nthreads = 0;
  parallel_region([&](const Team& t) {
    volatile float tiny = FLT_MIN;
    const float quarter = tiny / 4.0f;
    kept[static_cast<std::size_t>(t.thread_id())] = quarter != 0.0f;
    t.single([&] { nthreads = t.num_threads(); });
  });
  return std::count(kept.begin(), kept.begin() + nthreads, 1) == nthreads;
}

TEST(SubnormalFlush, RestoredOnEveryThreadAfterMixedSolve) {
  for (const int threads : {1, 3}) {
    const ThreadScope scope(threads);
    ASSERT_TRUE(every_thread_keeps_subnormals()) << threads << " threads";
#if defined(__x86_64__)
    const unsigned before = _mm_getcsr();
#endif
    SolveSession session(cold_pipe_deck(), 2);
    const SolveStats st = session.solve();
    ASSERT_TRUE(st.converged) << threads << " threads";
    EXPECT_EQ(st.threads, testing::pinned_width(threads));
#if defined(__x86_64__)
    EXPECT_EQ(_mm_getcsr(), before) << threads << " threads";
#endif
    EXPECT_TRUE(every_thread_keeps_subnormals()) << threads << " threads";
  }
}

}  // namespace
}  // namespace tealeaf
