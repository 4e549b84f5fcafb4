// Cross-algorithm property tests: on randomized inputs, every miner in the
// library must produce the identical frequent pattern set, and the sets must
// satisfy the structural properties the paper proves (Apriori closure,
// hit-set bound, max-pattern containment).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/apriori_miner.h"
#include "core/hitset_miner.h"
#include "core/maximal.h"
#include "core/miner.h"
#include "core/naive_miner.h"
#include "tsdb/series_source.h"
#include "util/random.h"

namespace ppm {
namespace {

using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

struct RandomConfig {
  uint64_t seed;
  uint32_t period;
  uint32_t num_features;
  uint32_t num_segments;
  double feature_prob;
  double min_confidence;
};

std::string ConfigName(const ::testing::TestParamInfo<RandomConfig>& info) {
  const RandomConfig& c = info.param;
  return "seed" + std::to_string(c.seed) + "_p" + std::to_string(c.period) +
         "_f" + std::to_string(c.num_features) + "_m" +
         std::to_string(c.num_segments) + "_c" +
         std::to_string(static_cast<int>(c.min_confidence * 100));
}

/// Random series with correlated features: feature f fires at position
/// (f % period) with elevated probability so non-trivial patterns emerge.
TimeSeries MakeRandomSeries(const RandomConfig& config) {
  Rng rng(config.seed);
  TimeSeries series;
  for (uint32_t f = 0; f < config.num_features; ++f) {
    series.symbols().Intern("f" + std::to_string(f));
  }
  const uint64_t length =
      uint64_t{config.num_segments} * config.period + config.period / 2;
  for (uint64_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    for (uint32_t f = 0; f < config.num_features; ++f) {
      const bool aligned = (t % config.period) == (f % config.period);
      const double p = aligned ? config.feature_prob : config.feature_prob / 4;
      if (rng.NextBool(p)) instant.Set(f);
    }
    series.Append(std::move(instant));
  }
  return series;
}

std::map<std::string, uint64_t> AsCountMap(const MiningResult& result,
                                           const tsdb::SymbolTable& symbols) {
  std::map<std::string, uint64_t> out;
  for (const FrequentPattern& entry : result.patterns()) {
    out[entry.pattern.Format(symbols)] = entry.count;
  }
  return out;
}

class CrossAlgorithmTest : public ::testing::TestWithParam<RandomConfig> {};

TEST_P(CrossAlgorithmTest, AllMinersAgreeWithExhaustiveOracle) {
  const TimeSeries series = MakeRandomSeries(GetParam());
  MiningOptions options;
  options.period = GetParam().period;
  options.min_confidence = GetParam().min_confidence;

  InMemorySeriesSource s1(&series), s2(&series), s3(&series), s4(&series),
      s5(&series);
  auto exhaustive = MineExhaustive(s1, options, /*max_total_letters=*/22);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
  auto apriori = MineApriori(s2, options);
  ASSERT_TRUE(apriori.ok()) << apriori.status();
  MiningOptions tree_options = options;
  tree_options.hit_store = HitStoreKind::kMaxSubpatternTree;
  auto hitset_tree = MineHitSet(s3, tree_options);
  ASSERT_TRUE(hitset_tree.ok()) << hitset_tree.status();
  MiningOptions vertical_options = options;
  vertical_options.hit_store = HitStoreKind::kVertical;
  auto hitset_vertical = MineHitSet(s4, vertical_options);
  ASSERT_TRUE(hitset_vertical.ok()) << hitset_vertical.status();
  auto naive = MineNaiveLevelwise(s5, options);
  ASSERT_TRUE(naive.ok()) << naive.status();

  const auto& symbols = series.symbols();
  const auto oracle_map = AsCountMap(*exhaustive, symbols);
  EXPECT_EQ(AsCountMap(*apriori, symbols), oracle_map);
  EXPECT_EQ(AsCountMap(*hitset_tree, symbols), oracle_map);
  EXPECT_EQ(AsCountMap(*hitset_vertical, symbols), oracle_map);
  EXPECT_EQ(AsCountMap(*naive, symbols), oracle_map);
}

TEST_P(CrossAlgorithmTest, AprioriClosureHolds) {
  // Property 3.1: every subpattern of a frequent pattern (with >= 1 letter)
  // is frequent, with count >= the superpattern's count.
  const TimeSeries series = MakeRandomSeries(GetParam());
  MiningOptions options;
  options.period = GetParam().period;
  options.min_confidence = GetParam().min_confidence;
  auto result = Mine(series, options);
  ASSERT_TRUE(result.ok());

  for (const FrequentPattern& entry : result->patterns()) {
    // Drop each letter in turn; the remaining pattern must be present.
    for (uint32_t position = 0; position < entry.pattern.period(); ++position) {
      entry.pattern.at(position).ForEach([&](uint32_t feature) {
        Pattern sub = entry.pattern;
        sub.RemoveLetter(position, feature);
        if (sub.IsEmpty()) return;
        const FrequentPattern* found = result->Find(sub);
        ASSERT_NE(found, nullptr)
            << "missing subpattern of " << entry.pattern.Format(series.symbols());
        EXPECT_GE(found->count, entry.count);
      });
    }
  }
}

TEST_P(CrossAlgorithmTest, HitSetBoundHolds) {
  // Property 3.2: |H| <= min(m, 2^n_d - n_d - 1).
  const TimeSeries series = MakeRandomSeries(GetParam());
  MiningOptions options;
  options.period = GetParam().period;
  options.min_confidence = GetParam().min_confidence;
  InMemorySeriesSource source(&series);
  auto result = MineHitSet(source, options);
  ASSERT_TRUE(result.ok());

  const uint64_t m = result->stats().num_periods;
  const uint64_t n_d = result->stats().num_f1_letters;
  uint64_t subset_bound = UINT64_MAX;
  if (n_d < 63) {
    const uint64_t total = uint64_t{1} << n_d;
    subset_bound = total >= n_d + 1 ? total - n_d - 1 : 0;
  }
  EXPECT_LE(result->stats().hit_store_entries, std::min(m, subset_bound));
}

TEST_P(CrossAlgorithmTest, EveryFrequentPatternIsUnderCmax) {
  // Every mined pattern must be a subpattern of the candidate max-pattern
  // (which is itself the union of the frequent 1-patterns).
  const TimeSeries series = MakeRandomSeries(GetParam());
  MiningOptions options;
  options.period = GetParam().period;
  options.min_confidence = GetParam().min_confidence;
  auto result = Mine(series, options);
  ASSERT_TRUE(result.ok());

  Pattern cmax(options.period);
  for (const FrequentPattern& entry : result->patterns()) {
    if (entry.pattern.LetterCount() == 1) cmax = cmax.UnionWith(entry.pattern);
  }
  for (const FrequentPattern& entry : result->patterns()) {
    EXPECT_TRUE(entry.pattern.IsSubpatternOf(cmax));
  }
}

TEST_P(CrossAlgorithmTest, MaximalPatternsCoverFrequentSet) {
  const TimeSeries series = MakeRandomSeries(GetParam());
  MiningOptions options;
  options.period = GetParam().period;
  options.min_confidence = GetParam().min_confidence;
  auto result = Mine(series, options);
  ASSERT_TRUE(result.ok());

  const auto maximal = MaximalPatterns(*result);
  // No maximal pattern is a proper subpattern of another maximal one.
  for (const FrequentPattern& entry : maximal) {
    EXPECT_FALSE(HasProperSuperpattern(entry.pattern, maximal));
  }
  // Every frequent pattern is a subpattern of some maximal pattern.
  for (const FrequentPattern& entry : result->patterns()) {
    bool covered = false;
    for (const FrequentPattern& top : maximal) {
      if (entry.pattern.IsSubpatternOf(top.pattern)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

TEST_P(CrossAlgorithmTest, CountsMatchDirectSegmentCounting) {
  // Recount every mined pattern straight from the definition.
  const TimeSeries series = MakeRandomSeries(GetParam());
  MiningOptions options;
  options.period = GetParam().period;
  options.min_confidence = GetParam().min_confidence;
  auto result = Mine(series, options);
  ASSERT_TRUE(result.ok());

  const uint64_t m = series.length() / options.period;
  for (const FrequentPattern& entry : result->patterns()) {
    uint64_t count = 0;
    for (uint64_t segment = 0; segment < m; ++segment) {
      if (entry.pattern.MatchesSegment(series, segment * options.period)) {
        ++count;
      }
    }
    EXPECT_EQ(count, entry.count)
        << entry.pattern.Format(series.symbols());
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, CrossAlgorithmTest,
    ::testing::Values(
        RandomConfig{1, 3, 4, 30, 0.7, 0.5}, RandomConfig{2, 4, 4, 40, 0.8, 0.5},
        RandomConfig{3, 5, 3, 25, 0.9, 0.6}, RandomConfig{4, 2, 6, 50, 0.6, 0.4},
        RandomConfig{5, 6, 3, 20, 0.8, 0.7}, RandomConfig{6, 3, 5, 35, 0.5, 0.3},
        RandomConfig{7, 4, 5, 60, 0.75, 0.5}, RandomConfig{8, 7, 2, 30, 0.9, 0.8},
        RandomConfig{9, 5, 4, 45, 0.65, 0.45}, RandomConfig{10, 8, 2, 24, 0.85, 0.6},
        RandomConfig{11, 2, 8, 64, 0.55, 0.35}, RandomConfig{12, 10, 2, 18, 0.9, 0.7}),
    ConfigName);

}  // namespace
}  // namespace ppm
