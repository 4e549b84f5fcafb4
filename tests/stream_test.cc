#include "stream/streaming_miner.h"

#include <gtest/gtest.h>

#include <map>

#include "core/hitset_miner.h"
#include "tsdb/series_source.h"
#include "util/random.h"

namespace ppm::stream {
namespace {

using tsdb::TimeSeries;

TimeSeries MakeSeries(uint64_t length, uint64_t seed) {
  Rng rng(seed);
  TimeSeries series;
  series.symbols().Intern("a");
  series.symbols().Intern("b");
  series.symbols().Intern("c");
  for (uint64_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    if (t % 4 == 0 && rng.NextBool(0.9)) instant.Set(0);
    if (t % 4 == 1 && rng.NextBool(0.85)) instant.Set(1);
    if (rng.NextBool(0.2)) instant.Set(2);
    series.Append(std::move(instant));
  }
  return series;
}

MiningOptions DefaultOptions() {
  MiningOptions options;
  options.period = 4;
  options.min_confidence = 0.7;
  return options;
}

std::map<std::string, uint64_t> AsCountMap(const MiningResult& result,
                                           const tsdb::SymbolTable& symbols) {
  std::map<std::string, uint64_t> out;
  for (const FrequentPattern& entry : result.patterns()) {
    out[entry.pattern.Format(symbols)] = entry.count;
  }
  return out;
}

TEST(StreamingMinerTest, SnapshotMatchesBatchWhenNoDrift) {
  const TimeSeries series = MakeSeries(2000, 5);
  const MiningOptions options = DefaultOptions();

  // Seed from the first quarter, then stream the rest.
  TimeSeries prefix;
  prefix.symbols() = series.symbols();
  for (uint64_t t = 0; t < 500; ++t) prefix.Append(series.at(t));
  auto miner = StreamingMiner::SeedFromPrefix(options, prefix);
  ASSERT_TRUE(miner.ok()) << miner.status();
  for (uint64_t t = 500; t < series.length(); ++t) {
    (*miner)->Append(series.at(t));
  }
  EXPECT_TRUE((*miner)->DriftedLetters().empty());

  tsdb::InMemorySeriesSource source(&series);
  auto batch = MineHitSet(source, options);
  ASSERT_TRUE(batch.ok());

  const MiningResult snapshot = (*miner)->Snapshot();
  EXPECT_EQ(AsCountMap(snapshot, series.symbols()),
            AsCountMap(*batch, series.symbols()));
  EXPECT_EQ((*miner)->segments_committed(), 500u);
}

TEST(StreamingMinerTest, PartialTrailingSegmentExcluded) {
  const MiningOptions options = DefaultOptions();
  auto miner = StreamingMiner::Create(
      options, {Letter{0, 0}, Letter{1, 1}});
  ASSERT_TRUE(miner.ok());
  // Two whole segments plus 3 trailing instants.
  for (int segment = 0; segment < 2; ++segment) {
    for (uint32_t position = 0; position < 4; ++position) {
      tsdb::FeatureSet instant;
      if (position == 0) instant.Set(0);
      if (position == 1) instant.Set(1);
      (*miner)->Append(instant);
    }
  }
  for (int i = 0; i < 3; ++i) {
    tsdb::FeatureSet instant;
    instant.Set(0);
    instant.Set(1);
    (*miner)->Append(instant);
  }
  EXPECT_EQ((*miner)->segments_committed(), 2u);
  EXPECT_EQ((*miner)->instants_seen(), 11u);
  const MiningResult snapshot = (*miner)->Snapshot();
  // Counts reflect only the two whole segments.
  for (const FrequentPattern& entry : snapshot.patterns()) {
    EXPECT_EQ(entry.count, 2u);
    EXPECT_DOUBLE_EQ(entry.confidence, 1.0);
  }
  EXPECT_EQ(snapshot.size(), 3u);  // a, b, ab.
}

TEST(StreamingMinerTest, SnapshotBeforeAnySegmentIsEmpty) {
  auto miner = StreamingMiner::Create(DefaultOptions(), {Letter{0, 0}});
  ASSERT_TRUE(miner.ok());
  EXPECT_TRUE((*miner)->Snapshot().empty());
  tsdb::FeatureSet instant;
  instant.Set(0);
  (*miner)->Append(instant);
  EXPECT_TRUE((*miner)->Snapshot().empty());  // Segment still in flight.
}

TEST(StreamingMinerTest, DriftDetection) {
  MiningOptions options = DefaultOptions();
  auto miner = StreamingMiner::Create(options, {Letter{0, 0}});
  ASSERT_TRUE(miner.ok());
  // Stream segments where an unseeded letter (pos 2, feature 7) fires in
  // every segment: it must be reported as drifted.
  for (int segment = 0; segment < 10; ++segment) {
    for (uint32_t position = 0; position < 4; ++position) {
      tsdb::FeatureSet instant;
      if (position == 0) instant.Set(0);
      if (position == 2) instant.Set(7);
      (*miner)->Append(instant);
    }
  }
  const auto drifted = (*miner)->DriftedLetters();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0].position, 2u);
  EXPECT_EQ(drifted[0].feature, 7u);
}

TEST(StreamingMinerTest, WindowedDriftNoticesNewBehaviorPromptly) {
  MiningOptions options = DefaultOptions();
  // 100 segments of history without the new letter, then 20 with it.
  auto whole_history =
      StreamingMiner::Create(options, {Letter{0, 0}}, /*drift_window=*/0);
  auto windowed =
      StreamingMiner::Create(options, {Letter{0, 0}}, /*drift_window=*/15);
  ASSERT_TRUE(whole_history.ok());
  ASSERT_TRUE(windowed.ok());
  const auto feed = [&](int segments, bool with_new_letter) {
    for (int segment = 0; segment < segments; ++segment) {
      for (uint32_t position = 0; position < 4; ++position) {
        tsdb::FeatureSet instant;
        if (position == 0) instant.Set(0);
        if (with_new_letter && position == 3) instant.Set(5);
        (*whole_history)->Append(instant);
        (*windowed)->Append(instant);
      }
    }
  };
  feed(100, false);
  feed(20, true);
  // 20/120 = 0.17 < 0.7: whole-history drift is silent.
  EXPECT_TRUE((*whole_history)->DriftedLetters().empty());
  // 15/15 over the window: windowed drift fires.
  const auto drifted = (*windowed)->DriftedLetters();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0].position, 3u);
  EXPECT_EQ(drifted[0].feature, 5u);
}

TEST(StreamingMinerTest, WindowedDriftExpiresOldBehavior) {
  MiningOptions options = DefaultOptions();
  auto miner =
      StreamingMiner::Create(options, {Letter{0, 0}}, /*drift_window=*/10);
  ASSERT_TRUE(miner.ok());
  const auto feed = [&](int segments, bool with_new_letter) {
    for (int segment = 0; segment < segments; ++segment) {
      for (uint32_t position = 0; position < 4; ++position) {
        tsdb::FeatureSet instant;
        if (position == 0) instant.Set(0);
        if (with_new_letter && position == 3) instant.Set(5);
        (*miner)->Append(instant);
      }
    }
  };
  feed(12, true);
  ASSERT_EQ((*miner)->DriftedLetters().size(), 1u);
  // The letter stops; once the window rolls past it, the drift clears.
  feed(12, false);
  EXPECT_TRUE((*miner)->DriftedLetters().empty());
}

TEST(StreamingMinerTest, DriftWindowLargerThanHistoryDegeneratesToStream) {
  // While fewer than drift_window segments are committed, the horizon is
  // min(segments_committed, drift_window): an unseeded letter firing in
  // every early segment is reported immediately, not after drift_window
  // segments of warm-up.
  MiningOptions options = DefaultOptions();
  auto miner =
      StreamingMiner::Create(options, {Letter{0, 0}}, /*drift_window=*/50);
  ASSERT_TRUE(miner.ok());
  EXPECT_TRUE((*miner)->DriftedLetters().empty());  // No segments yet.
  for (int segment = 0; segment < 3; ++segment) {
    for (uint32_t position = 0; position < 4; ++position) {
      tsdb::FeatureSet instant;
      if (position == 0) instant.Set(0);
      if (position == 2) instant.Set(7);              // Every segment.
      if (position == 3 && segment == 0) instant.Set(8);  // 1/3 < 0.7.
      (*miner)->Append(instant);
    }
  }
  // Horizon is 3 committed segments: 3/3 fires, 1/3 stays silent.
  const auto drifted = (*miner)->DriftedLetters();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0].position, 2u);
  EXPECT_EQ(drifted[0].feature, 7u);
}

TEST(StreamingMinerTest, DriftWindowLargerThanHistoryMatchesWholeStream) {
  // Until the window fills, a huge-window miner and a whole-stream miner
  // must agree on drift exactly.
  MiningOptions options = DefaultOptions();
  auto windowed =
      StreamingMiner::Create(options, {Letter{0, 0}}, /*drift_window=*/1000);
  auto whole =
      StreamingMiner::Create(options, {Letter{0, 0}}, /*drift_window=*/0);
  ASSERT_TRUE(windowed.ok());
  ASSERT_TRUE(whole.ok());
  Rng rng(31);
  for (int t = 0; t < 20 * 4; ++t) {
    tsdb::FeatureSet instant;
    if (t % 4 == 0) instant.Set(0);
    if (t % 4 == 1) instant.Set(5);           // Unseeded, every segment.
    if (rng.NextBool(0.3)) instant.Set(9);    // Noise below threshold.
    (*windowed)->Append(instant);
    (*whole)->Append(instant);
  }
  EXPECT_EQ((*windowed)->DriftedLetters(), (*whole)->DriftedLetters());
  EXPECT_FALSE((*windowed)->DriftedLetters().empty());
}

TEST(StreamingMinerTest, SeededLetterCanDropBelowThreshold) {
  MiningOptions options = DefaultOptions();
  options.min_confidence = 0.6;
  auto miner = StreamingMiner::Create(options, {Letter{0, 0}, Letter{1, 1}});
  ASSERT_TRUE(miner.ok());
  // Letter (1,1) fires in only 2 of 10 segments: must vanish from
  // snapshots even though it was seeded.
  for (int segment = 0; segment < 10; ++segment) {
    for (uint32_t position = 0; position < 4; ++position) {
      tsdb::FeatureSet instant;
      if (position == 0) instant.Set(0);
      if (position == 1 && segment < 2) instant.Set(1);
      (*miner)->Append(instant);
    }
  }
  const MiningResult snapshot = (*miner)->Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.patterns()[0].count, 10u);
}

TEST(StreamingMinerTest, VerticalStoreGivesSameSnapshots) {
  const TimeSeries series = MakeSeries(1200, 13);
  MiningOptions tree_options = DefaultOptions();
  tree_options.hit_store = HitStoreKind::kMaxSubpatternTree;
  MiningOptions vertical_options = DefaultOptions();
  vertical_options.hit_store = HitStoreKind::kVertical;

  TimeSeries prefix;
  prefix.symbols() = series.symbols();
  for (uint64_t t = 0; t < 400; ++t) prefix.Append(series.at(t));
  auto tree_miner = StreamingMiner::SeedFromPrefix(tree_options, prefix);
  auto vertical_miner = StreamingMiner::SeedFromPrefix(vertical_options, prefix);
  ASSERT_TRUE(tree_miner.ok());
  ASSERT_TRUE(vertical_miner.ok());
  for (uint64_t t = 400; t < series.length(); ++t) {
    (*tree_miner)->Append(series.at(t));
    (*vertical_miner)->Append(series.at(t));
  }
  EXPECT_EQ(AsCountMap((*tree_miner)->Snapshot(), series.symbols()),
            AsCountMap((*vertical_miner)->Snapshot(), series.symbols()));
}

TEST(StreamingMinerTest, CreateValidation) {
  MiningOptions options;
  options.period = 0;
  EXPECT_FALSE(StreamingMiner::Create(options, {}).ok());
  options.period = 4;
  options.min_confidence = 2.0;
  EXPECT_FALSE(StreamingMiner::Create(options, {}).ok());
  options.min_confidence = 0.5;
  EXPECT_FALSE(StreamingMiner::Create(options, {Letter{9, 0}}).ok());
  EXPECT_TRUE(StreamingMiner::Create(options, {Letter{3, 0}}).ok());
}

TEST(StreamingMinerTest, LongStreamStaysBounded) {
  // The point of the streaming miner: state size depends on the letter
  // space and hit diversity, not on stream length.
  MiningOptions options = DefaultOptions();
  const TimeSeries series = MakeSeries(20000, 9);
  TimeSeries prefix;
  prefix.symbols() = series.symbols();
  for (uint64_t t = 0; t < 400; ++t) prefix.Append(series.at(t));
  auto miner = StreamingMiner::SeedFromPrefix(options, prefix);
  ASSERT_TRUE(miner.ok());
  for (uint64_t t = 400; t < series.length(); ++t) {
    (*miner)->Append(series.at(t));
  }
  const MiningResult snapshot = (*miner)->Snapshot();
  // Hit store entries bounded by 2^n_d - n_d - 1 regardless of 5000 segments.
  const uint64_t n_d = snapshot.stats().num_f1_letters;
  EXPECT_LE(snapshot.stats().hit_store_entries,
            (uint64_t{1} << n_d) - n_d - 1);
  EXPECT_FALSE(snapshot.empty());
}

}  // namespace
}  // namespace ppm::stream
