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
  // Built from argc/argv alone, every flag is kept as given: positionals
  // precede options, since `--verbose input.deck` would bind as a
  // key/value pair (the documented `--key value` form).
  const char* argv[] = {"prog", "input.deck", "--mesh", "128", "--eps=1e-8",
                        "--verbose"};
  Args args(6, argv);
  EXPECT_EQ(args.get_int("mesh", 0), 128);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 1e-8);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", "unset"), "");
  EXPECT_FALSE(args.has("quiet"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.deck");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, FlagFollowedByOptionIsBoolean) {
  const char* argv[] = {"prog", "--flag", "--mesh", "64"};
  Args args(4, argv);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get_int("mesh", 0), 64);
}

TEST(Args, FallbacksApplyWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
}

/// A program's flags: a number, a switch and a text value.
const std::vector<Flag> kFlags = {
    {"mesh", Flag::kInt}, {"learn", Flag::kBool}, {"tiles"}, {"threads"}};

/// `argv` parsed against kFlags; TeaError's message, or "" if none.
std::string parse_error(std::vector<const char*> argv, int positionals = 0) {
  argv.insert(argv.begin(), "prog");
  try {
    (void)Args(static_cast<int>(argv.size()), argv.data(), kFlags, positionals);
  } catch (const TeaError& e) {
    return e.what();
  }
  return "";
}

TEST(Args, ExplicitBooleanValues) {
  // The deck's flag rule: bare, 1|true|on or 0|false|off, nothing else.
  const std::vector<Flag> flags = {{"a", Flag::kBool}, {"b", Flag::kBool},
                                   {"c", Flag::kBool}, {"d", Flag::kBool},
                                   {"e", Flag::kBool}};
  const char* argv[] = {"prog", "--a=true", "--b=0", "--d=off", "--e"};
  Args args(5, argv, flags, 0);
  EXPECT_TRUE(args.enabled("a"));
  EXPECT_FALSE(args.enabled("b"));
  EXPECT_FALSE(args.enabled("c"));
  EXPECT_FALSE(args.enabled("d"));
  EXPECT_TRUE(args.enabled("e"));
  const char* yes[] = {"prog", "--c=yes"};
  EXPECT_THROW(Args(2, yes, flags, 0), TeaError);
}

TEST(Args, LearnZeroIsOffAndMaybeIsAnError) {
  const char* off[] = {"prog", "--learn=0"};
  EXPECT_FALSE(Args(2, off, kFlags, 0).enabled("learn"));
  const char* on[] = {"prog", "--learn"};
  EXPECT_TRUE(Args(2, on, kFlags, 0).enabled("learn"));
  const std::string msg = parse_error({"--learn=maybe"});
  EXPECT_NE(msg.find("--learn: 'maybe'"), std::string::npos) << msg;
}

TEST(Args, SwitchDoesNotTakeTheNextToken) {
  // `--learn 0` would once have read as learn = "0" (on, by has()).
  const std::string msg = parse_error({"--learn", "0"});
  EXPECT_NE(msg.find("write --learn=0"), std::string::npos) << msg;
  // Even where positionals are accepted: the token is not silently moved.
  EXPECT_NE(parse_error({"--learn", "input.deck"}, 1), "");
  EXPECT_EQ(parse_error({"--learn", "--mesh", "4"}), "");
  EXPECT_EQ(parse_error({"input.deck", "--learn"}, 1), "");
}

TEST(Args, UnknownFlagSuggestsTheNearest) {
  const std::string msg = parse_error({"--tilez", "0,8"});
  EXPECT_NE(msg.find("unknown flag --tilez"), std::string::npos) << msg;
  EXPECT_NE(msg.find("did you mean --tiles?"), std::string::npos) << msg;
  // Nothing within two edits: no suggestion.
  const std::string far = parse_error({"--bogus-option"});
  EXPECT_NE(far.find("unknown flag --bogus-option"), std::string::npos);
  EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
}

TEST(Args, StrayPositionalIsRejected) {
  const std::string msg = parse_error({"stray-arg"});
  EXPECT_NE(msg.find("unexpected argument 'stray-arg'"), std::string::npos)
      << msg;
  EXPECT_EQ(parse_error({"deck.in", "--mesh", "8"}, 1), "");
  EXPECT_NE(parse_error({"deck.in", "other.in"}, 1), "");
}

TEST(Args, ValueFlagsNeedAValueOfTheirRule) {
  EXPECT_NE(parse_error({"--mesh"}).find("--mesh needs a value"),
            std::string::npos);
  EXPECT_NE(parse_error({"--mesh", "--learn"}), "");
  EXPECT_NE(parse_error({"--mesh", "2abc"}).find("--mesh: '2abc'"),
            std::string::npos);
  EXPECT_EQ(parse_error({"--mesh", "-4", "--tiles=0,8"}), "");
  const char* argv[] = {"prog", "--mesh=32"};
  const Args args(2, argv, kFlags, 0);
  EXPECT_EQ(args.get_int("mesh", 1), 32);
  EXPECT_EQ(args.get("tiles", "0"), "0");
  // Reading a flag the program never declared is a bug in the program.
  EXPECT_THROW((void)args.get("ranks", ""), TeaError);
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
  const std::vector<Flag> flags = {{"ranks", Flag::kInt}};
  testing::internal::CaptureStderr();
  const int code = run_main(3, argv, flags, [](const Args& args) -> int {
    TEA_REQUIRE(args.get_int("ranks", 1) > 0, "need at least one rank");
    return 0;
  });
  EXPECT_EQ(code, 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: error: need at least one rank\n");
  EXPECT_EQ(run_main(1, argv, flags, [](const Args&) { return 3; }), 3);
  // A flag the program does not declare ends the same way.
  const char* typo[] = {"/some/dir/prog", "--rank", "2"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(3, typo, flags, [](const Args&) { return 0; }), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: error: unknown flag --rank (did you mean --ranks?)\n");
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
