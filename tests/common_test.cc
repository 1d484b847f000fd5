#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace urcl {
namespace {

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const float v = rng.Uniform(-1.0f, 2.0f);
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 2.0f);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, BetaInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const float v = rng.Beta(0.5f, 0.5f);
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(RngTest, BetaSymmetricMean) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) sum += rng.Beta(2.0f, 2.0f);
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  const std::vector<int64_t> sample = rng.SampleWithoutReplacement(10, 7);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 7u);
  for (const int64_t v : sample) EXPECT_TRUE(v >= 0 && v < 10);
}

TEST(RngTest, SampleTooManyDies) {
  Rng rng(6);
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 4), "cannot sample");
}

TEST(RngTest, PermutationCoversAll) {
  Rng rng(7);
  std::vector<int64_t> perm = rng.Permutation(20);
  std::sort(perm.begin(), perm.end());
  for (int64_t i = 0; i < 20; ++i) EXPECT_EQ(perm[static_cast<size_t>(i)], i);
}

TEST(RngTest, Determinism) {
  Rng a(42), b(42);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
}

TEST(FlagsTest, ParsesBothForms) {
  const char* argv[] = {"prog", "--nodes", "24", "--days=7", "--verbose", "--rate", "0.5"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("nodes", 0), 24);
  EXPECT_EQ(flags.GetInt("days", 0), 7);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_EQ(flags.GetString("rate", ""), "0.5");
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
  EXPECT_EQ(flags.GetString("missing", "x"), "x");
  EXPECT_TRUE(flags.Has("nodes"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, UnreadFlagsAreAnError) {
  const char* argv[] = {"prog", "--nodes", "24", "--nodse", "7", "--verbose"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("nodes", 12), 24);
  EXPECT_EQ(flags.GetString("out", "a.json"), "a.json");
  EXPECT_FALSE(flags.Has("csv"));
  // Every read is listed with its default, whether or not it was given.
  EXPECT_EQ(flags.Usage(),
            "  --csv (default: unset)\n"
            "  --nodes (default: 12)\n"
            "  --out (default: \"a.json\")\n");
  EXPECT_EXIT(flags.ExitOnUnreadFlags(), ::testing::ExitedWithCode(2),
              "unknown flag --nodse\n.*unknown flag --verbose");

  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_EQ(flags.GetInt("nodse", 0), 7);
  flags.ExitOnUnreadFlags();  // every given flag was read: returns
}

TEST(FlagsTest, AFlagWithoutAValueIsGivenAndReadsItsFallback) {
  const char* argv[] = {"prog", "--csv", "--out=", "--nodes", "6"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_TRUE(flags.Has("csv"));
  EXPECT_EQ(flags.GetString("csv", "fig8_convergence.csv"), "fig8_convergence.csv");
  EXPECT_EQ(flags.GetString("out", "a.json"), "");  // given, with an empty value
  EXPECT_EQ(flags.GetInt("nodes", 12), 6);
  flags.ExitOnUnreadFlags();
}

TEST(FlagsTest, AnIntFlagWithoutAWholeNumberIsAnError) {
  const char* argv[] = {"prog", "--nodes", "abc", "--days", "5x", "--epochs", "--seed=-3"};
  Flags flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("nodes", 12), 12);
  EXPECT_EQ(flags.GetInt("days", 4), 4);
  EXPECT_EQ(flags.GetInt("epochs", 2), 2);
  EXPECT_EQ(flags.GetInt("seed", 7), -3);
  EXPECT_EXIT(flags.ExitOnUnreadFlags(), ::testing::ExitedWithCode(2),
              "flag --days needs a whole number, got \"5x\"\n"
              ".*flag --epochs needs a whole number but was given no value\n"
              ".*flag --nodes needs a whole number, got \"abc\"");
}

TEST(FlagsTest, HelpListsTheReadFlagsAndExitsZero) {
  const char* argv[] = {"prog", "--help"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rate", 5), 5);
  EXPECT_EQ(flags.Usage(), "  --rate (default: 5)\n");
  EXPECT_EXIT(flags.ExitOnUnreadFlags(), ::testing::ExitedWithCode(0), "");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"A", "LongHeader"});
  table.AddRow({"hello", "1"});
  table.AddRow({"x"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| A     | LongHeader |"), std::string::npos);
  EXPECT_NE(out.find("| hello | 1          |"), std::string::npos);
  EXPECT_NE(out.find("| x     |            |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  const double lap = timer.Restart();
  EXPECT_GE(lap, 0.0);
  EXPECT_LE(timer.ElapsedSeconds(), lap + 1.0);
}

}  // namespace
}  // namespace urcl
