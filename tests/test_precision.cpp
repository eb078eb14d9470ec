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
#include <fstream>
#include <string>

#include "api/solve_api.hpp"
#include "driver/deck.hpp"
#include "driver/decks.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

using testing::install_operator;
using testing::make_test_problem;
using testing::make_test_problem_3d;
using testing::max_field_diff;

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

  // Same problem, but every chunk carries the (inactive) fp32 field bank
  // and the config names its precision explicitly.  kDouble never touches
  // the bank, so nothing may differ — not even ULPs.
  auto cl = make();
  install_operator(*cl, op);
  cl->for_each_chunk([](int, Chunk& c) { c.enable_fp32(); });
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
  const auto dbl = cache.acquire(deck, 2, 2, 1);
  deck.solver.precision = Precision::kMixed;
  const auto mix = cache.acquire(deck, 2, 2, 1);
  ASSERT_EQ(dbl.size(), 1u);
  ASSERT_EQ(mix.size(), 1u);
  // Same geometry, different precision: two distinct sessions (a cache
  // hit here would hand an fp64 session — and its eigen memo — to a
  // mixed request).
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

}  // namespace
}  // namespace tealeaf
