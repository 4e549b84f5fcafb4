// Boundary regression tests: degenerate inputs (period exceeding or equal
// to the series length, empty series, single-feature alphabets) must give
// clean errors or correct results -- never crashes -- through every miner,
// sequential and sharded alike.

#include <gtest/gtest.h>

#include <string>

#include "core/apriori_miner.h"
#include "core/hitset_miner.h"
#include "core/miner.h"
#include "core/multi_period.h"
#include "core/naive_miner.h"
#include "diff_harness.h"
#include "tsdb/series_source.h"

namespace ppm {
namespace {

using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

TimeSeries SingleFeatureSeries(uint64_t length) {
  TimeSeries series;
  series.symbols().Intern("only");
  for (uint64_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    instant.Set(0);
    series.Append(std::move(instant));
  }
  return series;
}

TimeSeries TwoFeatureSeries(uint64_t length) {
  TimeSeries series;
  series.symbols().Intern("a");
  series.symbols().Intern("b");
  for (uint64_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    instant.Set(t % 2);
    series.Append(std::move(instant));
  }
  return series;
}

/// Runs every single-period miner (reference miners, hit-set with both
/// stores, hit-set sharded) and checks each outcome with `check`.
template <typename CheckFn>
void ForEveryMiner(const TimeSeries& series, const MiningOptions& options,
                   const CheckFn& check) {
  {
    InMemorySeriesSource source(&series);
    check("exhaustive", MineExhaustive(source, options));
  }
  {
    InMemorySeriesSource source(&series);
    check("naive", MineNaiveLevelwise(source, options));
  }
  {
    InMemorySeriesSource source(&series);
    check("apriori", MineApriori(source, options));
  }
  for (const HitStoreKind store :
       {HitStoreKind::kMaxSubpatternTree, HitStoreKind::kVertical}) {
    for (const uint32_t threads : {1u, 4u}) {
      MiningOptions hitset_options = options;
      hitset_options.hit_store = store;
      hitset_options.num_threads = threads;
      InMemorySeriesSource source(&series);
      check("hitset store=" + std::to_string(static_cast<int>(store)) +
                " threads=" + std::to_string(threads),
            MineHitSet(source, hitset_options));
    }
  }
}

TEST(BoundaryTest, PeriodExceedingLengthIsInvalidArgument) {
  const TimeSeries series = TwoFeatureSeries(7);
  MiningOptions options;
  options.period = 9;
  ForEveryMiner(series, options,
                [](const std::string& miner, const Result<MiningResult>& r) {
                  ASSERT_FALSE(r.ok()) << miner;
                  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
                      << miner << ": " << r.status();
                });
}

TEST(BoundaryTest, ZeroPeriodIsInvalidArgument) {
  const TimeSeries series = TwoFeatureSeries(8);
  MiningOptions options;
  options.period = 0;
  ForEveryMiner(series, options,
                [](const std::string& miner, const Result<MiningResult>& r) {
                  ASSERT_FALSE(r.ok()) << miner;
                  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
                      << miner << ": " << r.status();
                });
}

TEST(BoundaryTest, EmptySeriesIsInvalidArgument) {
  const TimeSeries series;
  MiningOptions options;
  options.period = 1;
  ForEveryMiner(series, options,
                [](const std::string& miner, const Result<MiningResult>& r) {
                  ASSERT_FALSE(r.ok()) << miner;
                  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
                      << miner << ": " << r.status();
                });
}

TEST(BoundaryTest, PeriodEqualToLengthMinesTheSingleSegment) {
  const TimeSeries series = TwoFeatureSeries(6);
  MiningOptions options;
  options.period = 6;  // exactly one whole segment, m = 1
  options.min_confidence = 1.0;
  ForEveryMiner(
      series, options,
      [&series](const std::string& miner, const Result<MiningResult>& r) {
        ASSERT_TRUE(r.ok()) << miner << ": " << r.status();
        // One segment; every observed letter is frequent with count 1, and
        // so is every combination: 2^6 - 1 subsets of the full pattern.
        EXPECT_EQ(r->stats().num_periods, 1u) << miner;
        EXPECT_EQ(r->size(), 63u) << miner;
        for (const FrequentPattern& entry : r->patterns()) {
          EXPECT_EQ(entry.count, 1u) << miner;
          EXPECT_DOUBLE_EQ(entry.confidence, 1.0) << miner;
        }
      });
}

TEST(BoundaryTest, SingleFeatureAlphabetAgreesAcrossMiners) {
  const TimeSeries series = SingleFeatureSeries(21);
  MiningOptions options;
  options.period = 4;  // m = 5, one instant of slack
  options.min_confidence = 0.9;

  InMemorySeriesSource oracle_source(&series);
  const auto oracle = MineExhaustive(oracle_source, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  // The single feature fires at all 4 offsets of every segment: all
  // 2^4 - 1 letter combinations are frequent with count 5.
  EXPECT_EQ(oracle->size(), 15u);
  const auto oracle_map = diff::CountMap(*oracle, series.symbols());

  ForEveryMiner(series, options,
                [&series, &oracle_map](const std::string& miner,
                                       const Result<MiningResult>& r) {
                  ASSERT_TRUE(r.ok()) << miner << ": " << r.status();
                  EXPECT_EQ(diff::CountMap(*r, series.symbols()), oracle_map)
                      << miner;
                });
}

TEST(BoundaryTest, MultiPeriodBoundsAreValidated) {
  const TimeSeries series = TwoFeatureSeries(12);
  MiningOptions options;
  for (const uint32_t threads : {1u, 4u}) {
    options.num_threads = threads;
    for (const bool shared : {false, true}) {
      {
        InMemorySeriesSource source(&series);
        const auto r = shared ? MineMultiPeriodShared(source, 0, 4, options)
                              : MineMultiPeriodLooped(source, 0, 4, options);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      }
      {
        InMemorySeriesSource source(&series);
        const auto r = shared ? MineMultiPeriodShared(source, 4, 13, options)
                              : MineMultiPeriodLooped(source, 4, 13, options);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      }
      {
        InMemorySeriesSource source(&series);
        const auto r = shared ? MineMultiPeriodShared(source, 5, 4, options)
                              : MineMultiPeriodLooped(source, 5, 4, options);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      }
      // Per-period thresholds are validated at every thread count too.
      for (const double confidence : {0.0, 1.5}) {
        MiningOptions bad = options;
        bad.min_confidence = confidence;
        InMemorySeriesSource source(&series);
        const auto r = shared ? MineMultiPeriodShared(source, 2, 4, bad)
                              : MineMultiPeriodLooped(source, 2, 4, bad);
        ASSERT_FALSE(r.ok()) << "threads=" << threads << " shared=" << shared
                             << " min_confidence=" << confidence;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(BoundaryTest, MultiPeriodFullRangeIncludingLengthItself) {
  // Periods 1 (sub-2-letter segments, nothing stored) through the series
  // length (a single segment) in one call, sequential and sharded.
  const TimeSeries series = TwoFeatureSeries(12);
  MiningOptions options;
  options.min_confidence = 1.0;

  for (const bool shared : {false, true}) {
    InMemorySeriesSource sequential_source(&series);
    const auto sequential =
        shared ? MineMultiPeriodShared(sequential_source, 1, 12, options)
               : MineMultiPeriodLooped(sequential_source, 1, 12, options);
    ASSERT_TRUE(sequential.ok()) << sequential.status();

    MiningOptions parallel_options = options;
    parallel_options.num_threads = 4;
    InMemorySeriesSource parallel_source(&series);
    const auto concurrent =
        shared
            ? MineMultiPeriodShared(parallel_source, 1, 12, parallel_options)
            : MineMultiPeriodLooped(parallel_source, 1, 12, parallel_options);
    ASSERT_TRUE(concurrent.ok()) << concurrent.status();

    ASSERT_EQ(concurrent->per_period.size(), sequential->per_period.size());
    for (size_t r = 0; r < sequential->per_period.size(); ++r) {
      EXPECT_EQ(diff::CountMap(concurrent->per_period[r].second,
                               series.symbols()),
                diff::CountMap(sequential->per_period[r].second,
                               series.symbols()))
          << (shared ? "shared" : "looped") << " period "
          << sequential->per_period[r].first;
    }
  }
}

}  // namespace
}  // namespace ppm
