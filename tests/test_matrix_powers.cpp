#include <gtest/gtest.h>

#include "solvers/cheby_coef.hpp"
#include "solvers/ppcg.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;
using testing::max_field_diff;

/// The matrix-powers kernel changes only *where* data comes from (deep
/// halos + redundant overlap compute), never the mathematics: PPCG at any
/// halo depth must walk the same iterates as depth 1.
class MatrixPowersDepth : public ::testing::TestWithParam<int> {};

TEST_P(MatrixPowersDepth, SolutionMatchesDepthOne) {
  const int depth = GetParam();
  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  cfg.eps = 1e-11;
  cfg.max_iters = 5000;
  cfg.eigen_cg_iters = 12;
  cfg.inner_steps = 10;

  auto ref = make_test_problem(36, 4, 2, 16.0);
  cfg.halo_depth = 1;
  const SolveStats st_ref = run_solver(*ref, cfg);
  ASSERT_TRUE(st_ref.converged);

  auto cl = make_test_problem(36, 4, depth, 16.0);
  cfg.halo_depth = depth;
  const SolveStats st = run_solver(*cl, cfg);
  ASSERT_TRUE(st.converged) << "depth " << depth;
  // Identical math ⇒ identical iteration counts and (to rounding)
  // identical solutions.
  EXPECT_EQ(st.outer_iters, st_ref.outer_iters) << "depth " << depth;
  EXPECT_LT(max_field_diff(*ref, *cl, FieldId::kU), 1e-10)
      << "depth " << depth;
}

INSTANTIATE_TEST_SUITE_P(Depths, MatrixPowersDepth,
                         ::testing::Values(2, 3, 4, 5, 8),
                         [](const auto& info) {
                           return "depth" + std::to_string(info.param);
                         });

TEST(MatrixPowers, DeepHalosSlashExchangeRounds) {
  // Paper §IV-C2: depth n trades one exchange per inner step for one
  // exchange per n steps (messages get n× bigger; total bytes comparable).
  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  cfg.eps = 1e-10;
  cfg.eigen_cg_iters = 10;
  cfg.inner_steps = 12;

  auto d1 = make_test_problem(36, 4, 1, 16.0);
  cfg.halo_depth = 1;
  const SolveStats st1 = run_solver(*d1, cfg);
  auto d4 = make_test_problem(36, 4, 4, 16.0);
  cfg.halo_depth = 4;
  const SolveStats st4 = run_solver(*d4, cfg);
  ASSERT_TRUE(st1.converged && st4.converged);
  ASSERT_EQ(st1.outer_iters, st4.outer_iters);

  const auto& s1 = d1->stats();
  const auto& s4 = d4->stats();
  EXPECT_LT(s4.exchange_calls, s1.exchange_calls / 2);
  EXPECT_LT(s4.messages, s1.messages / 2);
  // Bytes stay of the same order: messages get d× bigger but d× rarer
  // (paper §IV-C2).  The deep-halo rounds additionally carry the inner
  // residual (2 fields vs 1) and grow with corner overlap, so allow ~3×.
  EXPECT_LT(s4.message_bytes, 3 * s1.message_bytes);
  EXPECT_GT(s4.message_bytes, s1.message_bytes / 2);
}

TEST(MatrixPowers, InnerApplyBitwiseAcrossDepths) {
  // Drive apply_inner directly with a fixed residual and compare z.
  const auto build = [&](int depth) {
    auto cl = make_test_problem(24, 4, std::max(depth, 1), 8.0);
    cl->allocate({.fp64 = {FieldId::kR, FieldId::kW, FieldId::kZ,
                           FieldId::kSd, FieldId::kRtemp}});
    cl->for_each_chunk([](int, Chunk2D& c) {
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j)
          c.r()(j, k) = std::sin(0.37 * (c.extent().x0 + j)) +
                        std::cos(0.21 * (c.extent().y0 + k));
    });
    return cl;
  };
  const ChebyCoefs cc = chebyshev_coefficients(0.8, 5.0, 12);

  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  cfg.inner_steps = 12;
  cfg.halo_depth = 1;
  const auto apply_inner = [&](SimCluster2D& cl) {
    parallel_region([&](const Team& t) {
      PPCGSolver::apply_inner(cl, cfg, cc, nullptr, t);
    });
  };
  auto ref = build(1);
  apply_inner(*ref);

  for (const int depth : {2, 3, 4, 6}) {
    auto cl = build(depth);
    cfg.halo_depth = depth;
    apply_inner(*cl);
    EXPECT_LT(max_field_diff(*ref, *cl, FieldId::kZ), 1e-12)
        << "depth " << depth;
  }
}

TEST(MatrixPowers, StatsCountInnerWork) {
  auto cl = make_test_problem(24, 2, 4, 8.0);
  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  cfg.halo_depth = 4;
  cfg.inner_steps = 8;
  cfg.eigen_cg_iters = 8;
  cfg.eps = 1e-10;
  const SolveStats st = run_solver(*cl, cfg);
  ASSERT_TRUE(st.converged);
  const long long applies = st.outer_iters - st.eigen_cg_iters + 1;
  EXPECT_EQ(st.inner_steps, applies * cfg.inner_steps);
  // spmv = setup(1) + presteps + outers + inner steps.
  EXPECT_EQ(st.spmv_applies,
            1 + st.eigen_cg_iters + (st.outer_iters - st.eigen_cg_iters) +
                st.inner_steps);
}

TEST(MatrixPowers, DepthBeyondAllocationRejected) {
  auto cl = make_test_problem(24, 2, 2, 8.0);
  SolverConfig cfg;
  cfg.type = SolverType::kPPCG;
  cfg.halo_depth = 8;  // cluster only has 2 halo layers
  EXPECT_THROW(run_solver(*cl, cfg), TeaError);
}

}  // namespace
}  // namespace tealeaf
