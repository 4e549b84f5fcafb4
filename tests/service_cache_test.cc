#include "service/pattern_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/hitset_miner.h"
#include "diff_harness.h"
#include "obs/metrics.h"
#include "service/series_store.h"
#include "service/wire.h"
#include "tsdb/series_source.h"

namespace ppm::service {
namespace {

namespace fs = std::filesystem;

class PatternCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/pattern_cache_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    auto store = SeriesStore::Open(root_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Wires `cache` as the store's listener (what MineService::Open does).
  void Wire(PatternCache* cache) {
    store_->SetMutationListener([cache](const SeriesStore::Mutation& m) {
      cache->OnMutation(m);
    });
  }

  static PatternCache::Request MakeRequest(const std::string& series,
                                           uint32_t period,
                                           double min_conf) {
    PatternCache::Request request;
    request.series = series;
    request.options.period = period;
    request.options.min_confidence = min_conf;
    return request;
  }

  /// Batch reference: full hit-set mine of the store's current snapshot.
  MiningResult BatchMine(const std::string& series, uint32_t period,
                         double min_conf, tsdb::SymbolTable* symbols) {
    auto snapshot = store_->Snapshot(series);
    EXPECT_TRUE(snapshot.ok());
    MiningOptions options;
    options.period = period;
    options.min_confidence = min_conf;
    tsdb::InMemorySeriesSource source(&snapshot->series);
    auto result = MineHitSet(source, options);
    EXPECT_TRUE(result.ok());
    *symbols = snapshot->series.symbols();
    return std::move(*result);
  }

  std::string root_;
  std::unique_ptr<SeriesStore> store_;
};

uint64_t Invalidations() {
  return obs::MetricsRegistry::Global()
      .GetCounter("ppm.server.cache.invalidations")
      .value();
}

/// The response a served result would travel as, with its result section
/// either taken from the memo or encoded field by field from the result.
wire::Response WireOf(const PatternCache::Response& served, uint32_t period,
                      bool shared_section) {
  wire::Response response;
  response.cache_outcome = static_cast<uint8_t>(served.outcome);
  response.version = served.version;
  response.length = served.length;
  if (shared_section) {
    response.result_section = std::shared_ptr<const std::string>(
        served.memo, &served.memo->section);
    return response;
  }
  response.num_periods = served.result.stats().num_periods;
  response.period = period;
  response.symbols = served.symbols.names();
  for (const FrequentPattern& frequent : served.result.patterns()) {
    wire::WirePattern& pattern = response.patterns.emplace_back();
    for (uint32_t position = 0; position < period; ++position) {
      frequent.pattern.at(position).ForEach([&](uint32_t feature) {
        pattern.letters.emplace_back(position, feature);
      });
    }
    pattern.count = frequent.count;
    pattern.confidence = frequent.confidence;
  }
  return response;
}

/// Every served outcome's memo section encodes byte-identically to the
/// structured response, in both payload layouts.
void ExpectSectionMatchesStructured(const PatternCache::Response& served,
                                    uint32_t period) {
  for (const uint8_t version : {1, 2}) {
    EXPECT_EQ(wire::EncodeResponse(WireOf(served, period, true), version),
              wire::EncodeResponse(WireOf(served, period, false), version))
        << "outcome " << static_cast<int>(served.outcome) << " version "
        << static_cast<int>(version);
  }
}

TEST_F(PatternCacheTest, MissHitRefreshLifecycle) {
  PatternCache cache(store_.get(), 0);
  Wire(&cache);
  const diff::DiffConfig config = diff::RandomDiffConfig(7);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(config)).ok());

  const auto request = MakeRequest("s", config.period, config.min_confidence);
  auto first = cache.Serve(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->outcome, PatternCache::Outcome::kMiss);

  auto second = cache.Serve(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->outcome, PatternCache::Outcome::kHit);
  EXPECT_EQ(second->version, first->version);
  EXPECT_EQ(diff::Serialize(second->result, second->symbols),
            diff::Serialize(first->result, first->symbols));

  // An append feeds the resident miner: the next query refreshes in O(Δ)
  // and still matches a from-scratch batch mine of the new snapshot.
  ASSERT_TRUE(store_->Append("s", {{"f0"}, {"f1", "f0"}}).ok());
  auto third = cache.Serve(request);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->outcome, PatternCache::Outcome::kRefresh);
  EXPECT_GT(third->version, first->version);

  tsdb::SymbolTable batch_symbols;
  const MiningResult batch = BatchMine("s", config.period,
                                       config.min_confidence, &batch_symbols);
  EXPECT_EQ(diff::Serialize(third->result, third->symbols),
            diff::Serialize(batch, batch_symbols));
}

TEST_F(PatternCacheTest, InvalidationCountsOnlyDroppedMemos) {
  PatternCache cache(store_.get(), 0);
  Wire(&cache);
  const diff::DiffConfig config = diff::RandomDiffConfig(7);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(config)).ok());
  const auto request = MakeRequest("s", config.period, config.min_confidence);
  ASSERT_TRUE(cache.Serve(request).ok());
  const uint64_t bytes_with_memo = cache.resident_bytes();

  // Three appends before the next query drop exactly one memo.
  const uint64_t before = Invalidations();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store_->Append("s", {{"f0"}, {"f1", "f0"}}).ok());
  }
  EXPECT_EQ(Invalidations(), before + 1);
  // The released memo's section is no longer charged.
  EXPECT_LT(cache.resident_bytes(), bytes_with_memo);

  auto served = cache.Serve(request);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->outcome, PatternCache::Outcome::kRefresh);
  EXPECT_EQ(Invalidations(), before + 1);
}

TEST_F(PatternCacheTest, ServedSectionsAreByteIdenticalAndShared) {
  PatternCache cache(store_.get(), 0);
  Wire(&cache);
  const diff::DiffConfig config = diff::RandomDiffConfig(61);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(config)).ok());
  const auto request = MakeRequest("s", config.period, config.min_confidence);

  auto miss = cache.Serve(request);
  ASSERT_TRUE(miss.ok());
  ASSERT_EQ(miss->outcome, PatternCache::Outcome::kMiss);
  ExpectSectionMatchesStructured(*miss, config.period);

  // Consecutive hits share one memo: the same object, not a copy of it.
  auto hit = cache.Serve(request);
  auto again = cache.Serve(request);
  ASSERT_TRUE(hit.ok() && again.ok());
  ASSERT_EQ(hit->outcome, PatternCache::Outcome::kHit);
  ASSERT_EQ(again->outcome, PatternCache::Outcome::kHit);
  EXPECT_EQ(hit->memo.get(), again->memo.get());
  EXPECT_EQ(hit->memo.get(), miss->memo.get());
  EXPECT_EQ(&hit->result, &again->result);
  ExpectSectionMatchesStructured(*hit, config.period);

  // A response held across an append and a refresh still serves its own
  // version: the refresh builds a new memo instead of touching this one.
  tsdb::SymbolTable old_symbols;
  const std::string old_patterns = diff::Serialize(
      BatchMine("s", config.period, config.min_confidence, &old_symbols),
      old_symbols);
  const std::string held_payload =
      wire::EncodeResponse(WireOf(*hit, config.period, true), 2);
  ASSERT_TRUE(store_->Append("s", {{"f0"}, {"f1", "f0"}}).ok());
  auto refresh = cache.Serve(request);
  ASSERT_TRUE(refresh.ok());
  ASSERT_EQ(refresh->outcome, PatternCache::Outcome::kRefresh);
  EXPECT_NE(refresh->memo.get(), hit->memo.get());
  ExpectSectionMatchesStructured(*refresh, config.period);

  EXPECT_EQ(diff::Serialize(hit->result, hit->symbols), old_patterns);
  EXPECT_EQ(wire::EncodeResponse(WireOf(*hit, config.period, true), 2),
            held_payload);
  auto decoded = wire::DecodeResponse(held_payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, miss->version);
  EXPECT_LT(decoded->version, refresh->version);
  EXPECT_EQ(decoded->num_periods, hit->result.stats().num_periods);
  EXPECT_EQ(decoded->patterns.size(), hit->result.size());
}

TEST_F(PatternCacheTest, PutInvalidatesToMiss) {
  PatternCache cache(store_.get(), 0);
  Wire(&cache);
  const diff::DiffConfig config = diff::RandomDiffConfig(11);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(config)).ok());
  const auto request = MakeRequest("s", config.period, config.min_confidence);
  ASSERT_TRUE(cache.Serve(request).ok());

  // Replacing the series discards the resident miner outright.
  const diff::DiffConfig other = diff::RandomDiffConfig(12);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(
                                   {other.seed, config.period,
                                    other.num_features, other.num_segments,
                                    other.feature_prob,
                                    other.min_confidence})).ok());
  auto served = cache.Serve(request);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->outcome, PatternCache::Outcome::kMiss);

  tsdb::SymbolTable batch_symbols;
  const MiningResult batch = BatchMine("s", config.period,
                                       config.min_confidence, &batch_symbols);
  EXPECT_EQ(diff::Serialize(served->result, served->symbols),
            diff::Serialize(batch, batch_symbols));
}

TEST_F(PatternCacheTest, ForceRebuildBypassesMemo) {
  PatternCache cache(store_.get(), 0);
  Wire(&cache);
  const diff::DiffConfig config = diff::RandomDiffConfig(23);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(config)).ok());
  auto request = MakeRequest("s", config.period, config.min_confidence);
  ASSERT_TRUE(cache.Serve(request).ok());

  request.force_rebuild = true;  // `mine` semantics
  auto mined = cache.Serve(request);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->outcome, PatternCache::Outcome::kMiss);

  request.force_rebuild = false;  // memo was updated by the rebuild
  auto queried = cache.Serve(request);
  ASSERT_TRUE(queried.ok());
  EXPECT_EQ(queried->outcome, PatternCache::Outcome::kHit);
}

TEST_F(PatternCacheTest, DistinctParametersAreDistinctEntries) {
  PatternCache cache(store_.get(), 0);
  Wire(&cache);
  const diff::DiffConfig config = diff::RandomDiffConfig(31);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(config)).ok());
  ASSERT_TRUE(
      cache.Serve(MakeRequest("s", config.period, config.min_confidence))
          .ok());
  ASSERT_TRUE(
      cache.Serve(MakeRequest("s", config.period, config.min_confidence / 2))
          .ok());
  ASSERT_TRUE(
      cache.Serve(MakeRequest("s", config.period + 1, config.min_confidence))
          .ok());
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_GT(cache.resident_bytes(), 0u);
}

TEST_F(PatternCacheTest, BudgetEvictsLeastRecentlyUsed) {
  // A 1-byte budget cannot hold any entry: each Serve charges the entry
  // and immediately evicts, so the count stays bounded and later queries
  // still answer correctly (as misses).
  PatternCache cache(store_.get(), 1);
  Wire(&cache);
  const diff::DiffConfig config = diff::RandomDiffConfig(43);
  ASSERT_TRUE(store_->Put("s", diff::MakeRandomSeries(config)).ok());
  const auto request = MakeRequest("s", config.period, config.min_confidence);
  for (int round = 0; round < 3; ++round) {
    auto served = cache.Serve(request);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served->outcome, PatternCache::Outcome::kMiss);
  }
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST_F(PatternCacheTest, QueryAgainstMissingSeriesFails) {
  PatternCache cache(store_.get(), 0);
  Wire(&cache);
  auto served = cache.Serve(MakeRequest("ghost", 4, 0.5));
  EXPECT_EQ(served.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ppm::service
