#include <gtest/gtest.h>

#include "core/apriori_miner.h"
#include "core/hitset_miner.h"
#include "core/miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tsdb/series_source.h"

namespace ppm {
namespace {

using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

/// Period-3 series with 4 whole segments:
///   (a b c) (a b -) (a - c) (d b c)
/// With min_conf 0.5 (min_count 2): frequent patterns are the letters
/// a@0, b@1, c@2 (count 3 each) and the pairs ab, ac, bc (count 2 each);
/// abc has count 1 and is not frequent.
TimeSeries MakeHandSeries() {
  TimeSeries series;
  series.AppendNamed({"a"});
  series.AppendNamed({"b"});
  series.AppendNamed({"c"});
  series.AppendNamed({"a"});
  series.AppendNamed({"b"});
  series.AppendNamed({});
  series.AppendNamed({"a"});
  series.AppendNamed({});
  series.AppendNamed({"c"});
  series.AppendNamed({"d"});
  series.AppendNamed({"b"});
  series.AppendNamed({"c"});
  return series;
}

Pattern ParseIn(TimeSeries& series, const std::string& text) {
  auto pattern = Pattern::Parse(text, &series.symbols());
  EXPECT_TRUE(pattern.ok()) << pattern.status();
  return *pattern;
}

class MinersTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(MinersTest, HandSeriesExpectedPatterns) {
  TimeSeries series = MakeHandSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;

  auto result = Mine(series, options, GetParam());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 6u);

  const struct {
    const char* text;
    uint64_t count;
  } expected[] = {
      {"a * *", 3}, {"* b *", 3}, {"* * c", 3},
      {"a b *", 2}, {"a * c", 2}, {"* b c", 2},
  };
  for (const auto& [text, count] : expected) {
    const Pattern pattern = ParseIn(series, text);
    const FrequentPattern* found = result->Find(pattern);
    ASSERT_NE(found, nullptr) << text;
    EXPECT_EQ(found->count, count) << text;
    EXPECT_DOUBLE_EQ(found->confidence, count / 4.0) << text;
  }
  // abc is not frequent.
  EXPECT_EQ(result->Find(ParseIn(series, "a b c")), nullptr);
  EXPECT_EQ(result->stats().num_periods, 4u);
  EXPECT_EQ(result->stats().num_f1_letters, 3u);
  EXPECT_EQ(result->stats().max_level_reached, 2u);
}

TEST_P(MinersTest, MaxLettersCapStopsEarly) {
  TimeSeries series = MakeHandSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  options.max_letters = 1;
  auto result = Mine(series, options, GetParam());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // Letters only.
  for (const auto& entry : result->patterns()) {
    EXPECT_EQ(entry.pattern.LetterCount(), 1u);
  }
}

TEST_P(MinersTest, PerfectPeriodicityThreshold) {
  TimeSeries series;
  for (int i = 0; i < 5; ++i) {
    series.AppendNamed({"x"});
    series.AppendNamed({i % 2 == 0 ? "y" : "z"});
  }
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 1.0;
  auto result = Mine(series, options, GetParam());
  ASSERT_TRUE(result.ok());
  // Only x@0 holds in every one of the 5 segments.
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->patterns()[0].count, 5u);
  EXPECT_DOUBLE_EQ(result->patterns()[0].confidence, 1.0);
}

TEST_P(MinersTest, EmptyResultWhenNothingFrequent) {
  TimeSeries series;
  for (int i = 0; i < 12; ++i) {
    series.AppendNamed({i % 4 == 0 ? "a" : "b"});
  }
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.95;
  // a appears at alternating offsets (period 4 vs mined period 3), b fills
  // the rest; nothing reaches 95%.
  auto result = Mine(series, options, GetParam());
  ASSERT_TRUE(result.ok());
  // b@pos counts: positions see b 3 times of 4 -> conf 0.75 < 0.95.
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(result->stats().max_level_reached, 0u);
}

TEST_P(MinersTest, MultiLetterPositionPattern) {
  // b1 and b2 always occur together at offset 1: the 2-letter 1-position
  // pattern *{b1,b2} must be mined.
  TimeSeries series;
  for (int i = 0; i < 4; ++i) {
    series.AppendNamed({"a"});
    series.AppendNamed({"b1", "b2"});
  }
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.9;
  auto result = Mine(series, options, GetParam());
  ASSERT_TRUE(result.ok());

  TimeSeries& mutable_series = series;
  const Pattern grouped = ParseIn(mutable_series, "* {b1,b2}");
  const FrequentPattern* found = result->Find(grouped);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 4u);
  EXPECT_EQ(found->pattern.LLength(), 1u);
  EXPECT_EQ(found->pattern.LetterCount(), 2u);
  // And the full a{b1,b2}.
  EXPECT_NE(result->Find(ParseIn(mutable_series, "a {b1,b2}")), nullptr);
}

TEST_P(MinersTest, InvalidOptionsRejected) {
  TimeSeries series = MakeHandSeries();
  MiningOptions options;
  options.period = 0;
  EXPECT_EQ(Mine(series, options, GetParam()).status().code(),
            StatusCode::kInvalidArgument);
  options.period = 1000;
  EXPECT_EQ(Mine(series, options, GetParam()).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MinersTest,
                         ::testing::Values(Algorithm::kApriori,
                                           Algorithm::kMaxSubpatternHitSet),
                         [](const auto& info) {
                           return std::string(AlgorithmToString(info.param)) ==
                                          "apriori"
                                      ? "Apriori"
                                      : "HitSet";
                         });

TEST(AprioriScansTest, OneScanPerLevelPlusF1) {
  const TimeSeries series = MakeHandSeries();
  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto result = MineApriori(source, options);
  ASSERT_TRUE(result.ok());
  // Scan 1 (F_1) + level-2 scan + level-3 scan (candidate abc) = 3.
  EXPECT_EQ(result->stats().scans, 3u);
  EXPECT_EQ(source.stats().scans, 3u);
}

TEST(HitSetScansTest, ExactlyTwoScansAlways) {
  const TimeSeries series = MakeHandSeries();
  for (const double conf : {0.25, 0.5, 1.0}) {
    InMemorySeriesSource source(&series);
    MiningOptions options;
    options.period = 3;
    options.min_confidence = conf;
    auto result = MineHitSet(source, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stats().scans, 2u) << "conf " << conf;
  }
}

TEST(HitSetStoreStatsTest, HandSeriesHitEntries) {
  const TimeSeries series = MakeHandSeries();
  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  options.hit_store = HitStoreKind::kMaxSubpatternTree;
  auto result = MineHitSet(source, options);
  ASSERT_TRUE(result.ok());
  // Segment masks: {abc}, {ab}, {ac}, {bc} -- all distinct, all >= 2 letters.
  EXPECT_EQ(result->stats().hit_store_entries, 4u);
  EXPECT_GE(result->stats().tree_nodes, 4u);
}

TEST(HitSetVerticalStoreTest, SameResultAsTreeStore) {
  const TimeSeries series = MakeHandSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;

  options.hit_store = HitStoreKind::kMaxSubpatternTree;
  InMemorySeriesSource tree_source(&series);
  auto tree_result = MineHitSet(tree_source, options);
  options.hit_store = HitStoreKind::kVertical;
  InMemorySeriesSource vertical_source(&series);
  auto vertical_result = MineHitSet(vertical_source, options);
  ASSERT_TRUE(tree_result.ok());
  ASSERT_TRUE(vertical_result.ok());
  ASSERT_EQ(tree_result->size(), vertical_result->size());
  for (size_t i = 0; i < tree_result->size(); ++i) {
    EXPECT_EQ(tree_result->patterns()[i].pattern,
              vertical_result->patterns()[i].pattern);
    EXPECT_EQ(tree_result->patterns()[i].count,
              vertical_result->patterns()[i].count);
  }
  EXPECT_EQ(vertical_result->stats().tree_nodes, 0u);
}

TEST_P(MinersTest, ElapsedSecondsIsPopulated) {
  TimeSeries series = MakeHandSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto result = Mine(series, options, GetParam());
  ASSERT_TRUE(result.ok());
  // Both miners time themselves through their root trace span.
  EXPECT_GT(result->stats().elapsed_seconds, 0.0);
  EXPECT_LT(result->stats().elapsed_seconds, 60.0);
}

TEST(MinersObservabilityTest, MiningPopulatesGlobalTraceAndMetrics) {
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Clear();

  const TimeSeries series = MakeHandSeries();
  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto result = MineHitSet(source, options);
  ASSERT_TRUE(result.ok());

  const obs::Tracer& tracer = obs::Tracer::Global();
  EXPECT_TRUE(tracer.HasSpan("mine.hitset"));
  EXPECT_TRUE(tracer.HasSpan("f1_scan"));
  EXPECT_TRUE(tracer.HasSpan("second_scan"));

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const uint64_t* scans = snapshot.FindCounter("ppm.source.scans");
  ASSERT_NE(scans, nullptr);
  EXPECT_EQ(*scans, result->stats().scans);
  // Every hand-series segment has >= 2 frequent letters, so each of the 4
  // segments is inserted as a hit and none are skipped.
  const uint64_t* hits = snapshot.FindCounter("ppm.hitset.hits_inserted");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(*hits, result->stats().num_periods);
  const uint64_t* skipped =
      snapshot.FindCounter("ppm.hitset.segments_skipped");
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(*skipped, 0u);

  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Clear();
}

TEST(MiningStatsTest, ToJsonCarriesTheCounters) {
  const TimeSeries series = MakeHandSeries();
  InMemorySeriesSource source(&series);
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto result = MineHitSet(source, options);
  ASSERT_TRUE(result.ok());
  const std::string json = result->stats().ToJson();
  EXPECT_NE(json.find("\"scans\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_periods\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_f1_letters\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_store_entries\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"elapsed_seconds\":"), std::string::npos) << json;
}

TEST(MinerFacadeTest, AlgorithmNames) {
  EXPECT_EQ(AlgorithmToString(Algorithm::kApriori), "apriori");
  EXPECT_EQ(AlgorithmToString(Algorithm::kMaxSubpatternHitSet), "hit-set");
}

TEST(MiningResultTest, ToStringListsPatterns) {
  TimeSeries series = MakeHandSeries();
  MiningOptions options;
  options.period = 3;
  options.min_confidence = 0.5;
  auto result = Mine(series, options);
  ASSERT_TRUE(result.ok());
  const std::string dump = result->ToString(series.symbols());
  EXPECT_NE(dump.find("a * *"), std::string::npos);
  EXPECT_NE(dump.find("count=3"), std::string::npos);
}

}  // namespace
}  // namespace ppm
