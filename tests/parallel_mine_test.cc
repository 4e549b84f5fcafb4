// Tests of the parallel mining building blocks (src/parallel/ plus the
// sharded branches of the core miners): prefix materialization, hit-store
// merging, sharded F_1 counting, and end-to-end parity between sequential
// and sharded mining, including the metrics the parallel paths publish.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/hitset_miner.h"
#include "core/multi_period.h"
#include "obs/metrics.h"
#include "parallel/materialize.h"
#include "diff_harness.h"
#include "tsdb/series_source.h"
#include "util/thread_pool.h"

namespace ppm {
namespace {

using diff::DiffConfig;
using diff::MakeRandomSeries;
using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

TimeSeries SmallSeries() {
  TimeSeries series;
  series.symbols().Intern("a");
  series.symbols().Intern("b");
  for (int i = 0; i < 10; ++i) {
    tsdb::FeatureSet instant;
    instant.Set(i % 2);
    series.Append(std::move(instant));
  }
  return series;
}

TEST(MaterializePrefixTest, ReadsExactlyThePrefixInOneScan) {
  const TimeSeries series = SmallSeries();
  InMemorySeriesSource source(&series);
  const auto instants = parallel::MaterializePrefix(source, 7);
  ASSERT_TRUE(instants.ok()) << instants.status();
  ASSERT_EQ(instants->size(), 7u);
  for (size_t t = 0; t < instants->size(); ++t) {
    EXPECT_TRUE((*instants)[t].Test(t % 2));
  }
  EXPECT_EQ(source.stats().scans, 1u);
  EXPECT_EQ(source.stats().instants_read, 7u);
}

TEST(MaterializePrefixTest, FailsWhenSourceIsTooShort) {
  const TimeSeries series = SmallSeries();
  InMemorySeriesSource source(&series);
  const auto instants = parallel::MaterializePrefix(source, 11);
  ASSERT_FALSE(instants.ok());
  EXPECT_EQ(instants.status().code(), StatusCode::kInternal);
}

TEST(HitStoreMergeTest, MergedCountsAreAdditive) {
  const uint32_t num_letters = 4;
  Bitset full(num_letters);
  for (uint32_t i = 0; i < num_letters; ++i) full.Set(i);

  Bitset ab(num_letters), cd(num_letters);
  ab.Set(0);
  ab.Set(1);
  cd.Set(2);
  cd.Set(3);

  for (const HitStoreKind kind :
       {HitStoreKind::kMaxSubpatternTree, HitStoreKind::kVertical}) {
    auto combined = MakeHitStore(kind, full, num_letters);
    auto shard_a = MakeHitStore(kind, full, num_letters);
    auto shard_b = MakeHitStore(kind, full, num_letters);
    shard_a->AddHit(ab);
    shard_a->AddHit(ab);
    shard_a->AddHit(full);
    shard_b->AddHit(cd);
    shard_b->AddHit(full);

    combined->Merge(*shard_a);
    combined->Merge(*shard_b);

    Bitset just_a(num_letters);
    just_a.Set(0);
    // full(2) + ab(2) match {a}; full(2) + cd(1) match {c,d}.
    EXPECT_EQ(combined->CountSuperpatterns(just_a), 4u);
    EXPECT_EQ(combined->CountSuperpatterns(cd), 3u);
    EXPECT_EQ(combined->CountSuperpatterns(full), 2u);
    EXPECT_EQ(combined->num_entries(), 3u);  // ab, cd, full
  }
}

TEST(HitStoreMergeTest, MergeAcrossStoreKinds) {
  // Merge goes through the virtual ForEachHit/AddHits interface, so a tree
  // store can absorb a vertical store's hits (and vice versa).
  const uint32_t num_letters = 3;
  Bitset full(num_letters);
  for (uint32_t i = 0; i < num_letters; ++i) full.Set(i);
  Bitset pair(num_letters);
  pair.Set(0);
  pair.Set(2);

  auto tree = MakeHitStore(HitStoreKind::kMaxSubpatternTree, full, num_letters);
  auto vertical = MakeHitStore(HitStoreKind::kVertical, full, num_letters);
  vertical->AddHit(pair);
  vertical->AddHit(full);
  tree->Merge(*vertical);
  EXPECT_EQ(tree->CountSuperpatterns(pair), 2u);
  EXPECT_EQ(tree->num_entries(), 2u);
}

TEST(BuildF1Test, ShardedCountsMatchSequential) {
  DiffConfig config;
  config.seed = 99;
  config.period = 6;
  config.num_features = 8;
  config.num_segments = 50;
  const TimeSeries series = MakeRandomSeries(config);

  MiningOptions options;
  options.period = config.period;
  options.min_confidence = 0.3;

  const uint64_t covered =
      (series.length() / options.period) * options.period;
  const std::vector<tsdb::FeatureSet> instants(
      series.instants().begin(), series.instants().begin() + covered);

  const F1ScanResult sequential = BuildF1FromInstants(instants, options);
  ThreadPool pool(4);
  const F1ScanResult sharded = BuildF1FromInstants(instants, options, &pool);

  EXPECT_EQ(sharded.num_periods, sequential.num_periods);
  EXPECT_EQ(sharded.min_count, sequential.min_count);
  ASSERT_EQ(sharded.space.size(), sequential.space.size());
  for (uint32_t i = 0; i < sequential.space.size(); ++i) {
    EXPECT_EQ(sharded.space.letter(i), sequential.space.letter(i));
  }
  EXPECT_EQ(sharded.letter_counts, sequential.letter_counts);
}

TEST(ParallelMineTest, ShardedHitSetMatchesSequentialWithFewerScans) {
  DiffConfig config;
  config.seed = 7;
  config.period = 8;
  config.num_features = 12;
  config.num_segments = 60;
  const TimeSeries series = MakeRandomSeries(config);

  MiningOptions options;
  options.period = config.period;
  options.min_confidence = 0.4;

  InMemorySeriesSource sequential_source(&series);
  const auto sequential = MineHitSet(sequential_source, options);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_EQ(sequential->stats().scans, 2u);

  options.num_threads = 4;
  InMemorySeriesSource sharded_source(&series);
  const auto sharded = MineHitSet(sharded_source, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(sharded->stats().scans, 1u);  // materialized once

  EXPECT_EQ(diff::Serialize(*sharded, series.symbols()),
            diff::Serialize(*sequential, series.symbols()));
  EXPECT_EQ(sharded->stats().num_f1_letters,
            sequential->stats().num_f1_letters);
  EXPECT_EQ(sharded->stats().num_periods, sequential->stats().num_periods);
  EXPECT_EQ(sharded->stats().hit_store_entries,
            sequential->stats().hit_store_entries);
  EXPECT_EQ(sharded->stats().candidates_evaluated,
            sequential->stats().candidates_evaluated);
}

TEST(ParallelMineTest, PublishesShardMetrics) {
  DiffConfig config;
  config.seed = 13;
  config.period = 6;
  config.num_features = 8;
  config.num_segments = 40;
  const TimeSeries series = MakeRandomSeries(config);

  MiningOptions options;
  options.period = config.period;
  options.min_confidence = 0.4;
  options.num_threads = 3;

  obs::MetricsRegistry::Global().Reset();
  InMemorySeriesSource source(&series);
  const auto mined = MineHitSet(source, options);
  ASSERT_TRUE(mined.ok()) << mined.status();

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t* shards = snapshot.FindCounter("ppm.parallel.shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_GT(*shards, 0u);
  const uint64_t* threads = snapshot.FindGauge("ppm.parallel.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(*threads, 3u);
}

TEST(ParallelMineTest, MultiPeriodMinersMatchSequential) {
  DiffConfig config;
  config.seed = 21;
  config.period = 10;  // series length driver; range below covers 4..12
  config.num_features = 10;
  config.num_segments = 40;
  const TimeSeries series = MakeRandomSeries(config);

  MiningOptions options;
  options.min_confidence = 0.4;

  for (const bool shared : {false, true}) {
    InMemorySeriesSource sequential_source(&series);
    const auto sequential =
        shared ? MineMultiPeriodShared(sequential_source, 4, 12, options)
               : MineMultiPeriodLooped(sequential_source, 4, 12, options);
    ASSERT_TRUE(sequential.ok()) << sequential.status();

    MiningOptions parallel_options = options;
    parallel_options.num_threads = 4;
    InMemorySeriesSource parallel_source(&series);
    const auto concurrent =
        shared ? MineMultiPeriodShared(parallel_source, 4, 12, parallel_options)
               : MineMultiPeriodLooped(parallel_source, 4, 12, parallel_options);
    ASSERT_TRUE(concurrent.ok()) << concurrent.status();

    ASSERT_EQ(concurrent->per_period.size(), sequential->per_period.size());
    for (size_t r = 0; r < sequential->per_period.size(); ++r) {
      EXPECT_EQ(concurrent->per_period[r].first,
                sequential->per_period[r].first);
      EXPECT_EQ(diff::Serialize(concurrent->per_period[r].second,
                                series.symbols()),
                diff::Serialize(sequential->per_period[r].second,
                                series.symbols()))
          << (shared ? "shared" : "looped") << " period "
          << sequential->per_period[r].first;
    }
    EXPECT_EQ(concurrent->total_scans, 1u);  // one materializing scan
  }
}

}  // namespace
}  // namespace ppm
