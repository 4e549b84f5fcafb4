// Differential testing harness (docs/PARALLELISM.md): on ~200 seed-derived
// random workloads, every mining implementation -- the exhaustive oracle,
// the level-wise naive miner, Apriori, the hit-set miner with both store
// kinds, and the sharded hit-set miner at 2 and 8 workers -- must agree
// pattern-for-pattern and count-for-count. Failures print the seed, which
// reproduces the workload exactly.

#include <gtest/gtest.h>

#include <string>

#include "core/apriori_miner.h"
#include "core/hitset_miner.h"
#include "core/naive_miner.h"
#include "diff_harness.h"
#include "tsdb/series_source.h"

namespace ppm {
namespace {

using diff::CountMap;
using diff::DiffConfig;
using diff::MakeRandomSeries;
using diff::RandomDiffConfig;
using tsdb::InMemorySeriesSource;
using tsdb::TimeSeries;

constexpr uint64_t kNumSeeds = 200;

std::string Describe(const DiffConfig& config) {
  return "seed=" + std::to_string(config.seed) +
         " period=" + std::to_string(config.period) +
         " features=" + std::to_string(config.num_features) +
         " segments=" + std::to_string(config.num_segments) +
         " conf=" + std::to_string(config.min_confidence);
}

TEST(DifferentialTest, AllMinersAgreeOnRandomSeries) {
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    const DiffConfig config = RandomDiffConfig(seed);
    SCOPED_TRACE(Describe(config));
    const TimeSeries series = MakeRandomSeries(config);
    const auto& symbols = series.symbols();

    MiningOptions options;
    options.period = config.period;
    options.min_confidence = config.min_confidence;

    InMemorySeriesSource oracle_source(&series);
    const auto oracle = MineExhaustive(oracle_source, options);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    const auto oracle_map = CountMap(*oracle, symbols);

    {
      InMemorySeriesSource source(&series);
      const auto mined = MineNaiveLevelwise(source, options);
      ASSERT_TRUE(mined.ok()) << mined.status();
      EXPECT_EQ(CountMap(*mined, symbols), oracle_map) << "naive levelwise";
    }
    {
      InMemorySeriesSource source(&series);
      const auto mined = MineApriori(source, options);
      ASSERT_TRUE(mined.ok()) << mined.status();
      EXPECT_EQ(CountMap(*mined, symbols), oracle_map) << "apriori";
    }
    for (const HitStoreKind store :
         {HitStoreKind::kMaxSubpatternTree, HitStoreKind::kVertical}) {
      for (const uint32_t threads : {1u, 2u, 8u}) {
        MiningOptions hitset_options = options;
        hitset_options.hit_store = store;
        hitset_options.num_threads = threads;
        InMemorySeriesSource source(&series);
        const auto mined = MineHitSet(source, hitset_options);
        ASSERT_TRUE(mined.ok()) << mined.status();
        EXPECT_EQ(CountMap(*mined, symbols), oracle_map)
            << "hitset store=" << static_cast<int>(store)
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace ppm
