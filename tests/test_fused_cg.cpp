#include <gtest/gtest.h>

#include <limits>

#include "driver/deck.hpp"
#include "model/trace.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"

namespace tealeaf {
namespace {

// These tests' meshes are too small for a threaded team_width: pin three
// threads so their solves and collectives keep a threaded team.
[[maybe_unused]] ::testing::Environment* const kPinnedTeam =
    ::testing::AddGlobalTestEnvironment(new testing::PinnedThreads(3));

using testing::make_test_problem;
using testing::max_field_diff;
using testing::relative_residual;

SolverConfig fused_config() {
  SolverConfig cfg;
  cfg.type = SolverType::kCG;
  cfg.fuse_cg_reductions = true;
  cfg.eps = 1e-11;
  cfg.max_iters = 20000;
  return cfg;
}

TEST(FusedCG, MatchesClassicCGSolution) {
  auto ref = make_test_problem(32, 2, 2, 16.0);
  SolverConfig classic = fused_config();
  classic.fuse_cg_reductions = false;
  ASSERT_TRUE(run_solver(*ref, classic).converged);

  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag,
        PreconType::kJacobiBlock}) {
    auto cl = make_test_problem(32, 2, 2, 16.0);
    SolverConfig cfg = fused_config();
    cfg.precon = precon;
    const SolveStats st = run_solver(*cl, cfg);
    EXPECT_TRUE(st.converged) << to_string(precon);
    EXPECT_LT(max_field_diff(*ref, *cl, FieldId::kU), 1e-7)
        << to_string(precon);
  }
}

TEST(FusedCG, OneReductionPerIteration) {
  // The point of the restructuring (paper §VII): classic CG pays two
  // allreduces per iteration, the fused recurrence pays one.
  auto cl = make_test_problem(32, 4, 2, 16.0);
  const SolveStats st = run_solver(*cl, fused_config());
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(cl->stats().reductions, 1 + static_cast<long long>(st.outer_iters));
  EXPECT_EQ(cl->stats().exchange_calls,
            2 + static_cast<long long>(st.outer_iters));
}

TEST(FusedCG, SimilarIterationCountToClassic) {
  // The recurrence is algebraically equivalent; rounding may cost a few
  // extra iterations but not more.
  auto a = make_test_problem(32, 1, 2, 32.0);
  auto b = make_test_problem(32, 1, 2, 32.0);
  SolverConfig classic = fused_config();
  classic.fuse_cg_reductions = false;
  const SolveStats st_c = run_solver(*a, classic);
  const SolveStats st_f = run_solver(*b, fused_config());
  ASSERT_TRUE(st_c.converged && st_f.converged);
  EXPECT_NEAR(st_f.outer_iters, st_c.outer_iters,
              0.2 * st_c.outer_iters + 5.0);
}

/// The trace of a fixed-iteration fused solve on one rank prices the
/// communication of the same solve at 2, 4 and 8 ranks exactly.
TEST(FusedCG, TraceValidation) {
  SolverConfig cfg = fused_config();
  cfg.precon = PreconType::kJacobiDiag;
  cfg.eps = std::numeric_limits<double>::min();
  cfg.max_iters = 5;
  auto one = make_test_problem(36, 1, 2, 8.0);
  const SolveStats recorded = run_solver(*one, cfg);
  ASSERT_FALSE(recorded.converged || recorded.breakdown);
  for (const int nranks : {2, 4, 8}) {
    auto cl = make_test_problem(36, nranks, 2, 8.0);
    ASSERT_EQ(run_solver(*cl, cfg).outer_iters, recorded.outer_iters);
    const CommStats predicted =
        predict_comm_counts(recorded.trace, cl->decomposition());
    EXPECT_EQ(predicted.exchange_calls, cl->stats().exchange_calls);
    EXPECT_EQ(predicted.messages, cl->stats().messages);
    EXPECT_EQ(predicted.message_bytes, cl->stats().message_bytes);
    EXPECT_EQ(predicted.reductions, cl->stats().reductions);
  }
}

TEST(FusedCG, SolvesAccurately) {
  auto cl = make_test_problem(40, 4, 2, 8.0);
  ASSERT_TRUE(run_solver(*cl, fused_config()).converged);
  EXPECT_LT(relative_residual(*cl), 1e-9);
}

TEST(FusedCG, RejectedForOtherSolvers) {
  SolverConfig cfg = fused_config();
  cfg.type = SolverType::kPPCG;
  EXPECT_THROW(cfg.validate(), TeaError);
  cfg.type = SolverType::kChebyshev;
  EXPECT_THROW(cfg.validate(), TeaError);
}

TEST(FusedCG, DeckRoundTrip) {
  const char* deck_text =
      "*tea\nx_cells=8\ny_cells=8\nend_step=1\ntl_use_cg\n"
      "tl_cg_fuse_reductions\nstate 1 density=1 energy=1\n*endtea\n";
  // Parse → serialise → parse must preserve the flag.
  const auto deck = InputDeck::parse_string(deck_text);
  EXPECT_TRUE(deck.solver.fuse_cg_reductions);
  const auto again = InputDeck::parse_string(deck.to_string());
  EXPECT_TRUE(again.solver.fuse_cg_reductions);
}

}  // namespace
}  // namespace tealeaf
