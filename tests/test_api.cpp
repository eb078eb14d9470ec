#include <gtest/gtest.h>

#include "api/solve_api.hpp"
#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

// These tests' meshes are too small for a threaded team_width: pin three
// threads so their solves and collectives keep a threaded team.
[[maybe_unused]] ::testing::Environment* const kPinnedTeam =
    ::testing::AddGlobalTestEnvironment(new testing::PinnedThreads(3));

TEST(ProblemShape, KeyEncodesEverythingThatSizesACluster) {
  const InputDeck deck = decks::hot_block(24, 1);
  const ProblemShape s = ProblemShape::of(deck, 4, 2);
  EXPECT_EQ(s.key(), "2d/24x24x1/r4/h2");
  EXPECT_EQ(s, ProblemShape::of(deck, 4, 2));
  EXPECT_NE(s, ProblemShape::of(deck, 2, 2));
  EXPECT_NE(s, ProblemShape::of(deck, 4, 4));
  EXPECT_NE(s, ProblemShape::of(decks::hot_block(32, 1), 4, 2));
}

TEST(SolveSession, SolveStepsTheProblemLikeTheDriver) {
  const InputDeck deck = decks::hot_block(24, 1);
  SolveSession session(deck, 2);
  const SolveStats st = session.solve();
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(session.solves_taken(), 1);
  EXPECT_GT(session.sim_time(), 0.0);

  // TeaLeafApp is a facade over a session: one step must agree bitwise.
  TeaLeafApp app(deck, 2);
  const SolveStats ref = app.step();
  EXPECT_EQ(st.final_norm, ref.final_norm);
  EXPECT_EQ(st.outer_iters, ref.outer_iters);
  EXPECT_EQ(session.field_summary().temp, app.field_summary().temp);
}

TEST(SolveSession, ResetReusesTheAllocationForSameShapeOnly) {
  SolveSession session(decks::hot_block(24, 1), 2);
  (void)session.solve();

  // Same 24×24 shape, different material: the cache-reuse path.
  session.reset(decks::layered_material(24, 1));
  EXPECT_EQ(session.solves_taken(), 0);
  const SolveStats st = session.solve();
  EXPECT_TRUE(st.converged);

  // A fresh session on the same deck must agree bitwise with the reused
  // one — reset leaves no residue.
  SolveSession fresh(decks::layered_material(24, 1), 2);
  EXPECT_EQ(fresh.solve().final_norm, st.final_norm);

  EXPECT_THROW(session.reset(decks::hot_block(32, 1)), TeaError);
}

TEST(SolveSession, HintedSolveSkipsTheEigenPresteps) {
  InputDeck deck = decks::hot_block(24, 1);
  deck.solver.type = SolverType::kPPCG;
  // Few enough presteps that the solve outlives the eigenvalue
  // estimation (converging inside the presteps leaves no estimate).
  deck.solver.eigen_cg_iters = 8;
  SolveSession session(deck, 2);
  const SolveStats st = session.solve();
  ASSERT_TRUE(st.converged);
  EXPECT_GT(st.eigen_cg_iters, 0);
  ASSERT_GT(st.eigmin, 0.0);
  ASSERT_GT(st.eigmax, st.eigmin);

  // Seeded with the first solve's estimates, a repeat solve of the same
  // problem skips the CG presteps and still converges.
  SolverConfig hinted = deck.solver;
  hinted.eig_hint_min = st.eigmin;
  hinted.eig_hint_max = st.eigmax;
  session.reset(deck);
  const SolveStats again = session.solve(hinted);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.eigen_cg_iters, 0);
}

TEST(SessionCache, CountsHitsAndMissesPerBorrowedSession) {
  const InputDeck deck = decks::hot_block(24, 1);
  SessionCache cache(8);
  const std::vector<SolveSession*> first = cache.acquire(deck, 2, 2, {deck.solver, deck.solver});
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 0);

  (void)cache.acquire(deck, 2, 2, {deck.solver, deck.solver});
  EXPECT_EQ(cache.hits(), 2);

  // Growing the borrow mixes hits (pooled) and misses (constructed).
  (void)cache.acquire(deck, 2, 2, std::vector(3, deck.solver));
  EXPECT_EQ(cache.hits(), 4);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.shapes(), 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SessionCache, EvictsLeastRecentShapeWholeWhenOverCapacity) {
  SessionCache cache(2);
  const InputDeck small = decks::hot_block(24, 1);
  const InputDeck large = decks::hot_block(32, 1);
  (void)cache.acquire(small, 2, 2, {small.solver, small.solver});
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.acquire(large, 2, 2, {large.solver});
  // 24×24 (2 sessions) was least recent and the pool was over capacity:
  // evicted as a whole, never the shape just returned.
  EXPECT_EQ(cache.shapes(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolverConfigValidated, RejectsInconsistentCombosWithGuidance) {
  SolverConfig hints;
  hints.type = SolverType::kCG;
  hints.eig_hint_min = 1.0;
  hints.eig_hint_max = 5.0;
  EXPECT_THROW((void)hints.validated(), TeaError);

  SolverConfig ok;
  ok.type = SolverType::kPPCG;
  ok.tile_rows = 16;
  EXPECT_NO_THROW((void)ok.validated());

  // The default engine picks its own tile height.
  EXPECT_EQ(SolverConfig{}.tile_rows, -1);

  // One iteration leaves Chebyshev one CG prestep, too few for its
  // eigenvalue estimate: rejected before the solve's region opens.
  SolverConfig cheby;
  cheby.type = SolverType::kChebyshev;
  cheby.max_iters = 1;
  try {
    (void)cheby.validated();
    FAIL() << "max_iters = 1 cannot estimate Chebyshev's eigenvalues";
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("Did you mean"), std::string::npos)
        << e.what();
  }
  cheby.eig_hint_min = 1.0;  // hints replace the presteps
  cheby.eig_hint_max = 5.0;
  EXPECT_NO_THROW((void)cheby.validated());
}

}  // namespace
}  // namespace tealeaf
