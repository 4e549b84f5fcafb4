#include "core/f1_scan.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tsdb/series_source.h"

namespace ppm {
namespace {

using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

TEST(MiningOptionsTest, ValidateRejectsBadInputs) {
  MiningOptions options;
  options.period = 0;
  EXPECT_FALSE(options.Validate(100).ok());
  options.period = 101;
  EXPECT_FALSE(options.Validate(100).ok());
  options.period = 10;
  options.min_confidence = 0.0;
  EXPECT_FALSE(options.Validate(100).ok());
  options.min_confidence = 1.5;
  EXPECT_FALSE(options.Validate(100).ok());
  options.min_confidence = 1.0;
  EXPECT_TRUE(options.Validate(100).ok());
  // Explicit min_count bypasses the confidence check.
  options.min_confidence = 0.0;
  options.min_count = 3;
  EXPECT_TRUE(options.Validate(100).ok());
}

TEST(MiningOptionsTest, EffectiveMinCountRounding) {
  MiningOptions options;
  options.min_confidence = 0.25;
  EXPECT_EQ(options.EffectiveMinCount(100), 25u);  // Exact.
  options.min_confidence = 0.251;
  EXPECT_EQ(options.EffectiveMinCount(100), 26u);  // Rounds up.
  options.min_confidence = 1.0;
  EXPECT_EQ(options.EffectiveMinCount(7), 7u);
  options.min_confidence = 0.001;
  EXPECT_EQ(options.EffectiveMinCount(10), 1u);  // Never below 1.
  options.min_count = 4;
  EXPECT_EQ(options.EffectiveMinCount(100), 4u);  // Override wins.
}

TEST(F1ScanTest, ExactCountsAndThreshold) {
  // Period 2, 4 whole segments: 'a' at even offsets in 3 segments,
  // 'b' at odd offsets in 2 segments, 'c' once.
  TimeSeries series;
  series.AppendNamed({"a"});       // seg 0, pos 0
  series.AppendNamed({"b"});       // seg 0, pos 1
  series.AppendNamed({"a"});       // seg 1
  series.AppendNamed({});          //
  series.AppendNamed({"a", "c"});  // seg 2
  series.AppendNamed({"b"});       //
  series.AppendNamed({});          // seg 3
  series.AppendNamed({});          //

  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.5;  // min_count = 2 of 4.

  auto f1 = ScanForF1(source, options);
  ASSERT_TRUE(f1.ok()) << f1.status();
  EXPECT_EQ(f1->num_periods, 4u);
  EXPECT_EQ(f1->min_count, 2u);
  // Frequent letters: a@0 (count 3), b@1 (count 2). c@0 has count 1.
  ASSERT_EQ(f1->space.size(), 2u);
  const auto a = *series.symbols().Lookup("a");
  const auto b = *series.symbols().Lookup("b");
  EXPECT_EQ(f1->space.IndexOf(0, a), 0u);
  EXPECT_EQ(f1->space.IndexOf(1, b), 1u);
  EXPECT_EQ(f1->letter_counts, (std::vector<uint64_t>{3, 2}));
}

TEST(F1ScanTest, TailBeyondWholePeriodsIgnored) {
  TimeSeries series;
  // Period 3, length 7: only 2 whole segments; the tail instant has 'z'
  // which must not be counted.
  for (int i = 0; i < 6; ++i) series.AppendNamed({"a"});
  series.AppendNamed({"z"});

  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto f1 = ScanForF1(source, options);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1->num_periods, 2u);
  const auto z = *series.symbols().Lookup("z");
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_EQ(f1->space.IndexOf(p, z), Bitset::kNoBit);
  }
  EXPECT_EQ(f1->space.size(), 3u);  // a at each of 3 positions, count 2 each.
}

TEST(F1ScanTest, LetterFilterDropsLetters) {
  TimeSeries series;
  for (int i = 0; i < 8; ++i) series.AppendNamed({"a", "b"});
  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.5;
  const auto b = *series.symbols().Lookup("b");
  options.letter_filter = [b](uint32_t, tsdb::FeatureId feature) {
    return feature != b;
  };
  auto f1 = ScanForF1(source, options);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1->space.size(), 2u);  // Only 'a' at both positions.
  for (uint32_t i = 0; i < f1->space.size(); ++i) {
    EXPECT_NE(f1->space.letter(i).feature, b);
  }
}

TEST(F1ScanTest, WideAlphabetWithLetterFilterMatchesHandCounts) {
  // 100 symbols, so feature sets and count rows span two 64-id words.
  TimeSeries series;
  for (int id = 0; id < 100; ++id) {
    series.symbols().Intern(std::to_string(id));
  }
  // Period 3, six whole segments and one tail instant.
  for (uint32_t segment = 0; segment < 6; ++segment) {
    tsdb::FeatureSet first;
    tsdb::FeatureSet second;
    tsdb::FeatureSet third;
    if (segment < 4) first.Set(64);   // (0,64): 4 segments.
    if (segment < 2) first.Set(63);   // (0,63): 2, below the threshold.
    if (segment < 3) second.Set(5);   // (1,5): 3.
    if (segment < 5) second.Set(70);  // (1,70): 5.
    third.Set(99);                    // (2,99): 6, but filtered out.
    series.Append(std::move(first));
    series.Append(std::move(second));
    series.Append(std::move(third));
  }
  tsdb::FeatureSet tail;
  tail.Set(99);  // Past the last whole segment: never counted.
  series.Append(std::move(tail));

  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;  // min_count = 3 of 6.
  options.letter_filter = [](uint32_t, tsdb::FeatureId feature) {
    return feature != 99;
  };
  for (const uint32_t threads : {1u, 3u}) {
    options.num_threads = threads;
    InMemorySeriesSource source(&series);
    const auto f1 = ScanForF1(source, options);
    ASSERT_TRUE(f1.ok()) << f1.status();
    EXPECT_EQ(f1->num_periods, 6u);
    EXPECT_EQ(f1->min_count, 3u);
    EXPECT_EQ(f1->space.letters(),
              (std::vector<Letter>{{0, 64}, {1, 5}, {1, 70}}))
        << "threads=" << threads;
    EXPECT_EQ(f1->letter_counts, (std::vector<uint64_t>{4, 3, 5}))
        << "threads=" << threads;
    // Seen letters include the infrequent and the filtered ones.
    EXPECT_EQ(obs::MetricsRegistry::Global()
                  .GetGauge("ppm.f1.letters_seen")
                  .value(),
              5u);
  }
}

TEST(F1ScanTest, InvalidOptionsPropagate) {
  TimeSeries series;
  series.AppendEmpty(10);
  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 0;
  EXPECT_FALSE(ScanForF1(source, options).ok());
}

TEST(F1ScanTest, EmptyFrequentSetIsValid) {
  TimeSeries series;
  series.AppendNamed({"a"});
  series.AppendEmpty(9);
  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.9;
  auto f1 = ScanForF1(source, options);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(f1->space.size(), 0u);
}

}  // namespace
}  // namespace ppm
