// Tests for src/util: RNG determinism and statistics, string helpers, CLI
// parsing, error handling.
#include <gtest/gtest.h>

#include <set>

#include "util/cli.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stringutil.h"

namespace specpart {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(19);
  std::vector<double> w{0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 200; ++i) {
    const std::size_t pick = rng.next_weighted(w);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(Rng, WeightedProportions) {
  Rng rng(23);
  std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.next_weighted(w) == 1) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(StringUtil, SplitWs) {
  const auto t = split_ws("  a  bb\tccc \n d ");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[3], "d");
}

TEST(StringUtil, SplitWsEmpty) { EXPECT_TRUE(split_ws("   ").empty()); }

TEST(StringUtil, SplitCharKeepsEmptyFields) {
  const auto t = split_char("a,,b,", ',');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(StringUtil, ParseSizeValid) {
  EXPECT_EQ(parse_size("042", "t"), 42u);
  EXPECT_EQ(parse_size(" 7 ", "t"), 7u);
}

TEST(StringUtil, ParseSizeRejectsJunk) {
  EXPECT_THROW(parse_size("12x", "t"), Error);
  EXPECT_THROW(parse_size("", "t"), Error);
  EXPECT_THROW(parse_size("-3", "t"), Error);
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "t"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3", "t"), -1000.0);
  EXPECT_THROW(parse_double("abc", "t"), Error);
  EXPECT_THROW(parse_double("1.2.3", "t"), Error);
}

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(strprintf("%.2f", 1.2345), "1.23");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  Cli cli("prog", "test");
  cli.add_flag("scale", "1.0", "scale factor");
  cli.add_flag("verbose", "false", "chatty");
  const char* argv[] = {"prog", "--scale", "0.5", "pos1", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.5);
  EXPECT_TRUE(cli.get_bool("verbose"));
  ASSERT_EQ(cli.positionals().size(), 1u);
  EXPECT_EQ(cli.positionals()[0], "pos1");

  // A bare boolean flag leaves a following positional alone; it takes
  // the next token only when that token is true or false.
  Cli bare("prog", "test");
  bare.add_flag("verbose", "false", "chatty");
  const char* bare_argv[] = {"prog", "--verbose", "pos1"};
  ASSERT_TRUE(bare.parse(3, bare_argv));
  EXPECT_TRUE(bare.get_bool("verbose"));
  ASSERT_EQ(bare.positionals().size(), 1u);
  EXPECT_EQ(bare.positionals()[0], "pos1");

  Cli valued("prog", "test");
  valued.add_flag("verbose", "true", "chatty");
  const char* valued_argv[] = {"prog", "--verbose", "false", "pos1"};
  ASSERT_TRUE(valued.parse(4, valued_argv));
  EXPECT_FALSE(valued.get_bool("verbose"));
  ASSERT_EQ(valued.positionals().size(), 1u);
}

TEST(Cli, EqualsSyntax) {
  Cli cli("prog", "test");
  cli.add_flag("k", "2", "clusters");
  const char* argv[] = {"prog", "--k=8"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("k"), 8);
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(Cli, MissingValueThrows) {
  Cli cli("prog", "test");
  cli.add_flag("k", "2", "clusters");
  const char* argv[] = {"prog", "--k"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(Cli, DefaultsSurviveParse) {
  Cli cli("prog", "test");
  cli.add_flag("k", "2", "clusters");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("k"), 2);
}

TEST(Error, CheckInputThrows) {
  EXPECT_THROW([] { SP_CHECK_INPUT(false, "boom"); }(), Error);
  EXPECT_NO_THROW([] { SP_CHECK_INPUT(true, "fine"); }());
}

TEST(Error, MessagePreserved) {
  try {
    SP_CHECK_INPUT(false, "specific message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

}  // namespace
}  // namespace specpart
