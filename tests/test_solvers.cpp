#include <gtest/gtest.h>

#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;
using testing::max_field_diff;
using testing::relative_residual;

SolverConfig base_config(SolverType type) {
  SolverConfig cfg;
  cfg.type = type;
  cfg.eps = 1e-12;
  cfg.max_iters = 20000;
  cfg.eigen_cg_iters = 15;
  cfg.inner_steps = 8;
  return cfg;
}

TEST(CG, SolvesToTightResidual) {
  auto cl = make_test_problem(32, 1, 2);
  const SolveStats st = run_solver(*cl, base_config(SolverType::kCG));
  EXPECT_TRUE(st.converged);
  EXPECT_GT(st.outer_iters, 3);
  EXPECT_LT(relative_residual(*cl), 1e-10);
}

TEST(CG, IterationCountGrowsWithConditioning) {
  auto easy = make_test_problem(32, 1, 2, /*rx_ry=*/1.0);
  auto hard = make_test_problem(32, 1, 2, /*rx_ry=*/64.0);
  const auto cfg = base_config(SolverType::kCG);
  const auto st_easy = run_solver(*easy, cfg);
  const auto st_hard = run_solver(*hard, cfg);
  EXPECT_TRUE(st_easy.converged);
  EXPECT_TRUE(st_hard.converged);
  EXPECT_GT(st_hard.outer_iters, st_easy.outer_iters);
}

TEST(CG, TwoReductionsAndOneExchangePerIteration) {
  // The communication structure of §III-A: dot products are the scaling
  // bottleneck.
  auto cl = make_test_problem(24, 4, 2);
  const SolveStats st = run_solver(*cl, base_config(SolverType::kCG));
  const auto& stats = cl->stats();
  EXPECT_EQ(stats.reductions, 1 + 2LL * st.outer_iters);
  EXPECT_EQ(stats.exchange_calls, 1 + static_cast<long long>(st.outer_iters));
}

TEST(CG, DecompositionIndependentSolution) {
  auto ref = make_test_problem(30, 1, 2);
  const auto cfg = base_config(SolverType::kCG);
  ASSERT_TRUE(run_solver(*ref, cfg).converged);
  for (const int nranks : {2, 4, 6, 9}) {
    auto cl = make_test_problem(30, nranks, 2);
    ASSERT_TRUE(run_solver(*cl, cfg).converged) << nranks << " ranks";
    EXPECT_LT(max_field_diff(*ref, *cl, FieldId::kU), 1e-9)
        << nranks << " ranks";
  }
}

TEST(CG, PreconditionersPreserveSolutionAndHelp) {
  const auto run = [&](PreconType precon) {
    auto cl = make_test_problem(32, 2, 2, /*rx_ry=*/32.0);
    SolverConfig cfg = base_config(SolverType::kCG);
    cfg.precon = precon;
    const SolveStats st = run_solver(*cl, cfg);
    EXPECT_TRUE(st.converged) << to_string(precon);
    EXPECT_LT(relative_residual(*cl), 1e-9) << to_string(precon);
    return st.outer_iters;
  };
  const int none = run(PreconType::kNone);
  const int diag = run(PreconType::kJacobiDiag);
  const int block = run(PreconType::kJacobiBlock);
  // Block Jacobi must beat plain CG on this strongly-varying problem
  // (paper §IV-C1: ~40 % condition-number reduction).
  EXPECT_LT(block, none);
  EXPECT_LE(diag, none + 2);
}

TEST(Jacobi, ConvergesOnEasyProblem) {
  auto cl = make_test_problem(16, 2, 2, /*rx_ry=*/0.5);
  SolverConfig cfg = base_config(SolverType::kJacobi);
  cfg.eps = 1e-8;
  cfg.max_iters = 50000;
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_TRUE(st.converged);
  // One exchange and one reduction per sweep (checked before the
  // residual helper below adds its own communication).
  EXPECT_EQ(cl->stats().reductions, st.outer_iters);
  EXPECT_EQ(cl->stats().exchange_calls, st.outer_iters);
  EXPECT_LT(relative_residual(*cl), 1e-5);
}

TEST(Jacobi, NeedsFarMoreIterationsThanCG) {
  auto jac = make_test_problem(16, 1, 2, 2.0);
  auto cg = make_test_problem(16, 1, 2, 2.0);
  SolverConfig jcfg = base_config(SolverType::kJacobi);
  jcfg.eps = 1e-6;
  jcfg.max_iters = 100000;
  SolverConfig ccfg = base_config(SolverType::kCG);
  ccfg.eps = 1e-6;
  const auto ij = run_solver(*jac, jcfg).outer_iters;
  const auto ic = run_solver(*cg, ccfg).outer_iters;
  EXPECT_GT(ij, 3 * ic);
}

TEST(Chebyshev, MatchesCGSolution) {
  auto ref = make_test_problem(28, 1, 2, 8.0);
  ASSERT_TRUE(run_solver(*ref, base_config(SolverType::kCG)).converged);

  auto cl = make_test_problem(28, 1, 2, 8.0);
  SolverConfig cfg = base_config(SolverType::kChebyshev);
  cfg.eps = 1e-11;
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_TRUE(st.converged);
  EXPECT_GT(st.eigmax, st.eigmin);
  EXPECT_GT(st.eigmin, 0.0);
  EXPECT_LT(max_field_diff(*ref, *cl, FieldId::kU), 1e-7);
}

TEST(Chebyshev, FewReductionsPerIteration) {
  auto cl = make_test_problem(28, 4, 2, 8.0);
  SolverConfig cfg = base_config(SolverType::kChebyshev);
  cfg.cheby_check_interval = 25;
  const SolveStats st = run_solver(*cl, cfg);
  ASSERT_TRUE(st.converged);
  const long long cheby_steps = st.outer_iters - st.eigen_cg_iters;
  ASSERT_GT(cheby_steps, 0);
  // Reductions: 2 at setup + 2/prestep + one per check interval — far
  // fewer than CG's 2 per iteration over the Chebyshev phase.
  const long long expected = 2 + 2LL * st.eigen_cg_iters +
                             cheby_steps / cfg.cheby_check_interval;
  EXPECT_EQ(cl->stats().reductions, expected);
}

TEST(PPCG, MatchesCGSolution) {
  auto ref = make_test_problem(32, 1, 4, 16.0);
  ASSERT_TRUE(run_solver(*ref, base_config(SolverType::kCG)).converged);
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag,
        PreconType::kJacobiBlock}) {
    auto cl = make_test_problem(32, 2, 4, 16.0);
    SolverConfig cfg = base_config(SolverType::kPPCG);
    cfg.precon = precon;
    const SolveStats st = run_solver(*cl, cfg);
    EXPECT_TRUE(st.converged) << to_string(precon);
    EXPECT_LT(max_field_diff(*ref, *cl, FieldId::kU), 1e-7)
        << to_string(precon);
  }
}

TEST(PPCG, CutsGlobalReductionsVersusCG) {
  // The paper's core claim (§III-C): outer iterations — and hence dot
  // products — drop by ≈ √(κ_cg/κ_pcg) while total SpMV work stays
  // comparable.
  auto cg = make_test_problem(40, 4, 2, 32.0);
  auto pp = make_test_problem(40, 4, 2, 32.0);
  const SolveStats st_cg = run_solver(*cg, base_config(SolverType::kCG));
  const long long red_cg = cg->stats().reductions;
  SolverConfig pcfg = base_config(SolverType::kPPCG);
  pcfg.inner_steps = 10;
  const SolveStats st_pp = run_solver(*pp, pcfg);
  const long long red_pp = pp->stats().reductions;
  ASSERT_TRUE(st_cg.converged);
  ASSERT_TRUE(st_pp.converged);
  EXPECT_LT(red_pp, red_cg / 2) << "CPPCG must slash global reductions";
}

TEST(PPCG, EigenEstimatesBracketChebyshevNeeds) {
  auto cl = make_test_problem(32, 1, 2, 16.0);
  const SolveStats st = run_solver(*cl, base_config(SolverType::kPPCG));
  ASSERT_TRUE(st.converged);
  // The Lanczos Ritz values bracket part of the spectrum: both estimates
  // must be positive with eigmax above the λ = 1 conservation mode.
  // (eigmin may overshoot the true λmin = 1 when the residual has little
  // weight on the lowest modes — the outer CG absorbs that, which is why
  // CPPCG tolerates rough estimates.)
  EXPECT_GT(st.eigmin, 0.0);
  EXPECT_LT(st.eigmin, st.eigmax);
  EXPECT_GT(st.eigmax, 1.0);
}

TEST(SolverFacade, DispatchesEveryType) {
  for (const SolverType type : {SolverType::kJacobi, SolverType::kCG,
                                SolverType::kChebyshev, SolverType::kPPCG}) {
    auto cl = make_test_problem(20, 2, 2, 1.0);
    SolverConfig cfg = base_config(type);
    cfg.eps = 1e-8;
    cfg.max_iters = 100000;
    const SolveStats st = run_solver(*cl, cfg);
    EXPECT_TRUE(st.converged) << to_string(type);
    EXPECT_LT(relative_residual(*cl), 1e-4) << to_string(type);
  }
}

TEST(SolverConfigTest, ValidateRejectsBadCombos) {
  SolverConfig cfg;
  cfg.halo_depth = 4;
  cfg.type = SolverType::kCG;
  EXPECT_THROW(cfg.validate(), TeaError);  // powers only for PPCG
  cfg.type = SolverType::kPPCG;
  cfg.precon = PreconType::kJacobiBlock;
  EXPECT_THROW(cfg.validate(), TeaError);  // block + powers
  cfg.precon = PreconType::kJacobiDiag;
  EXPECT_NO_THROW(cfg.validate());
  cfg.eps = -1.0;
  EXPECT_THROW(cfg.validate(), TeaError);
}

TEST(SolverStats, ZeroRhsConvergesImmediately) {
  auto cl = make_test_problem(16, 1, 2);
  cl->for_each_chunk([](int, Chunk2D& c) {
    c.u().fill(0.0);
    c.u0().fill(0.0);
  });
  const SolveStats st = run_solver(*cl, base_config(SolverType::kCG));
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.outer_iters, 0);
}

}  // namespace
}  // namespace tealeaf
