// Tests for RNG determinism, statistics, tables, and the CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace aiac::util;

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitIsInsensitiveToParentConsumption) {
  Rng parent(7);
  const Rng child_before = parent.split("network");
  for (int i = 0; i < 50; ++i) (void)parent.next();
  Rng parent2(7);
  Rng child_after = parent2.split("network");
  Rng child_copy = child_before;
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(child_copy.next(), child_after.next());
}

TEST(Rng, NamedSplitsAreIndependent) {
  Rng parent(7);
  Rng a = parent.split("a");
  Rng b = parent.split("b");
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(5);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(6);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(OnlineStatsTest, MatchesDirectComputation) {
  OnlineStats stats;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.75);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 8.0);
  // Sample variance: sum((x - 3.75)^2) / 3 = (7.5625+3.0625+.0625+18.0625)/3
  EXPECT_NEAR(stats.variance(), 28.75 / 3.0, 1e-12);
}

TEST(OnlineStatsTest, MergeEqualsSequential) {
  Rng rng(8);
  OnlineStats all, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(SummaryTest, QuartilesOfKnownData) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(GeometricMeanTest, KnownValueAndErrors) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
  EXPECT_THROW(geometric_mean(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(geometric_mean(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(TableTest, PrintsAlignedColumnsAndCsv) {
  Table t("Title");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2,3"});
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("Title"), std::string::npos);
  EXPECT_NE(text.str().find("| 1"), std::string::npos);
  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(), "a,bb\n1,\"2,3\"\n");
}

TEST(TableTest, NumFormatsFixedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(515.3), "515.3");
}

TEST(CliTest, ParsesAllForms) {
  CliParser cli;
  cli.describe("alpha", "relaxation");
  cli.describe("count", "repetitions");
  cli.describe("flag", "a boolean switch");
  const char* argv[] = {"prog", "--alpha=0.5", "--count", "7", "--flag"};
  cli.parse(5, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 0.5);
  EXPECT_EQ(cli.get_int("count"), 7);
  EXPECT_TRUE(cli.get_bool("flag"));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_FALSE(cli.help_requested());
}

TEST(CliTest, HelpAndErrors) {
  CliParser cli("summary line");
  cli.describe("n", "problem size", "100");
  const char* argv[] = {"prog", "--help"};
  cli.parse(2, argv);
  EXPECT_TRUE(cli.help_requested());
  EXPECT_NE(cli.help_text().find("problem size"), std::string::npos);

  CliParser bad;
  const char* argv2[] = {"prog", "positional"};
  EXPECT_THROW(bad.parse(2, argv2), std::invalid_argument);

  CliParser badint;
  badint.describe("n", "problem size", "100");
  const char* argv3[] = {"prog", "--n=abc"};
  badint.parse(2, argv3);
  EXPECT_THROW(badint.get_int("n"), std::invalid_argument);
}

TEST(CliTest, RejectsUndeclaredKeys) {
  CliParser cli;
  cli.describe("lb", "enable load balancing", "true");
  const char* typo[] = {"prog", "--lbb=false"};
  try {
    cli.parse(2, typo);
    ADD_FAILURE() << "undeclared --lbb was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--lbb"), std::string::npos)
        << e.what();
  }
  // The separate-value form is checked too, and help still parses.
  const char* spaced[] = {"prog", "--build", "build"};
  EXPECT_THROW(cli.parse(3, spaced), std::invalid_argument);
  const char* help[] = {"prog", "-h", "--lb=false"};
  cli.parse(3, help);
  EXPECT_TRUE(cli.help_requested());
  EXPECT_FALSE(cli.get_bool("lb", true));
}

}  // namespace
