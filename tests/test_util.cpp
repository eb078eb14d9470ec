#include <gtest/gtest.h>

#include <cfloat>

#include "util/args.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace tealeaf {
namespace {

TEST(Args, ParsesKeyValueForms) {
  // Positionals precede options: `--verbose input.deck` would bind as a
  // key/value pair (the documented `--key value` form).
  const char* argv[] = {"prog", "input.deck", "--mesh", "128", "--eps=1e-8",
                        "--verbose"};
  Args args(6, argv);
  EXPECT_EQ(args.get_int("mesh", 0), 128);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 1e-8);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.deck");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, FlagFollowedByOptionIsBoolean) {
  const char* argv[] = {"prog", "--flag", "--mesh", "64"};
  Args args(4, argv);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("mesh", 0), 64);
}

TEST(Args, FallbacksApplyWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(Args, ExplicitBooleanValues) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Args args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Args, NumbersParseStrictly) {
  const char* argv[] = {"prog", "--ranks", "2abc", "--mesh", "1e30",
                        "--eps", "1e-8xyz", "--steps", "4.0", "--dt=1e-3"};
  Args args(10, argv);
  EXPECT_THROW((void)args.get_int("ranks", 1), TeaError);
  EXPECT_THROW((void)args.get_int("mesh", 1), TeaError);
  EXPECT_THROW((void)args.get_double("eps", 1.0), TeaError);
  EXPECT_EQ(args.get_int("steps", 1), 4);
  EXPECT_DOUBLE_EQ(args.get_double("dt", 1.0), 1e-3);
  try {
    (void)args.get_int("ranks", 1);
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("--ranks: '2abc'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Args, RunMainTurnsTeaErrorIntoExitOne) {
  const char* argv[] = {"/some/dir/prog", "--ranks", "0"};
  testing::internal::CaptureStderr();
  const int code = run_main(3, argv, [](const Args& args) -> int {
    TEA_REQUIRE(args.get_int("ranks", 1) > 0, "need at least one rank");
    return 0;
  });
  EXPECT_EQ(code, 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: error: need at least one rank\n");
  EXPECT_EQ(run_main(1, argv, [](const Args&) { return 3; }), 3);
}

TEST(Require, ThrowsWithContext) {
  EXPECT_THROW(TEA_REQUIRE(false, "must hold"), TeaError);
  // A violated precondition reads as the rule alone: users see it.
  try {
    TEA_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const TeaError& e) {
    EXPECT_STREQ(e.what(), "one is not two");
  }
  // A violated invariant is a library bug: it says where and what failed.
  try {
    TEA_ASSERT(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const TeaError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_util.cpp:"), std::string::npos) << what;
    EXPECT_NE(what.find(": requirement failed: `1 == 2` — one is not two"),
              std::string::npos)
        << what;
  }
}

TEST(Numeric, RelDiffAndAlmostEqual) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-14));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(0.0, 0.0));
}

TEST(Numeric, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Numeric, CeilDivRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
}

TEST(Numeric, SplitMix64Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  SplitMix64 c(42);
  for (int i = 0; i < 1000; ++i) {
    const double x = c.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
  SplitMix64 d(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.next_double(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Parallel, ForCoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, [&](std::int64_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, SubnormalFlushIsScopedToTheGuard) {
  volatile float tiny = FLT_MIN;
  EXPECT_NE(tiny / 4.0f, 0.0f);
  {
    const SubnormalFlush off(false);
    EXPECT_NE(tiny / 4.0f, 0.0f);
  }
  {
    const SubnormalFlush on(true);
    if (SubnormalFlush::kActive) {
      EXPECT_EQ(tiny / 4.0f, 0.0f);
    } else {
      EXPECT_NE(tiny / 4.0f, 0.0f);
    }
  }
  EXPECT_NE(tiny / 4.0f, 0.0f);
}

TEST(Stats, WelfordMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(TimerTest, SectionAccumulates) {
  SectionTimer st;
  for (int i = 0; i < 3; ++i) {
    auto scope = st.scope();
  }
  EXPECT_EQ(st.count(), 3);
  EXPECT_GE(st.total_s(), 0.0);
  st.reset();
  EXPECT_EQ(st.count(), 0);
}

}  // namespace
}  // namespace tealeaf
