// Library-level tests for the fault-tolerant execution paths: cooperative
// cancellation, wall-clock deadlines, and memory budgets (ISSUE 4's
// acceptance criteria; see docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/budget.h"
#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/letter_counts.h"
#include "core/maximal_miner.h"
#include "core/miner.h"
#include "core/multi_period.h"
#include "obs/metrics.h"
#include "synth/generator.h"
#include "tsdb/series_source.h"
#include "util/cancellation.h"
#include "util/check.h"
#include "util/random.h"

namespace ppm {
namespace {

/// A series large enough that mining takes well over a millisecond, so a
/// 1 ms deadline always fires mid-run rather than racing completion.
const tsdb::TimeSeries& LargeSeries() {
  static const tsdb::TimeSeries* series = [] {
    synth::GeneratorOptions options;
    options.length = 400000;
    options.period = 50;
    options.max_pat_length = 6;
    options.num_f1 = 10;
    options.num_features = 60;
    options.seed = 7;
    auto generated = synth::GenerateSeries(options);
    PPM_CHECK(generated.ok());
    return new tsdb::TimeSeries(std::move(generated.value().series));
  }();
  return *series;
}

MiningOptions BaseOptions() {
  MiningOptions options;
  options.period = 50;
  options.min_confidence = 0.8;
  return options;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

TEST(DeadlineMiningTest, OneMsDeadlineReturnsDeadlineExceededAtAnyThreads) {
  for (const uint32_t threads : {1u, 8u}) {
    MiningOptions options = BaseOptions();
    options.num_threads = threads;
    options.deadline = Deadline::After(1);
    // Ensure the deadline has passed by the first check even on a machine
    // fast enough to finish scan setup within a millisecond.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t hits_before = CounterValue("ppm.fault.deadline_hits");
    const auto result = Mine(LargeSeries(), options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads << ": " << result.status().ToString();
    EXPECT_GT(CounterValue("ppm.fault.deadline_hits"), hits_before);
  }
}

TEST(DeadlineMiningTest, AprioriAndMaximalHonorDeadlines) {
  MiningOptions options = BaseOptions();
  options.deadline = Deadline::After(0);
  tsdb::InMemorySeriesSource source(&LargeSeries());
  EXPECT_EQ(Mine(source, options, Algorithm::kApriori).status().code(),
            StatusCode::kDeadlineExceeded);
  tsdb::InMemorySeriesSource source2(&LargeSeries());
  EXPECT_EQ(MineMaximalHitSet(source2, options).status().code(),
            StatusCode::kDeadlineExceeded);
}

// Both multi-period algorithms, streamed and sharded, stop on a cancelled
// token or an expired deadline and never return a partial result.
TEST(DeadlineMiningTest, MultiPeriodHonorsDeadlinesAndCancellation) {
  for (const uint32_t threads : {1u, 4u}) {
    for (const bool shared : {false, true}) {
      for (const bool cancel : {true, false}) {
        MiningOptions options = BaseOptions();
        options.num_threads = threads;
        if (cancel) {
          options.cancel.Cancel();
        } else {
          options.deadline = Deadline::After(0);
        }
        tsdb::InMemorySeriesSource source(&LargeSeries());
        const auto result = shared
                                ? MineMultiPeriodShared(source, 46, 50, options)
                                : MineMultiPeriodLooped(source, 46, 50, options);
        ASSERT_FALSE(result.ok()) << "threads=" << threads
                                  << " shared=" << shared;
        EXPECT_EQ(result.status().code(), cancel
                                              ? StatusCode::kCancelled
                                              : StatusCode::kDeadlineExceeded)
            << "threads=" << threads << " shared=" << shared << ": "
            << result.status().ToString();
      }
    }
  }
}

TEST(CancellationMiningTest, PreCancelledTokenReturnsCancelled) {
  MiningOptions options = BaseOptions();
  options.cancel.Cancel();
  const uint64_t before = CounterValue("ppm.fault.cancellations");
  const auto result = Mine(LargeSeries(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GT(CounterValue("ppm.fault.cancellations"), before);
}

TEST(CancellationMiningTest, CancellationWinsOverExpiredDeadline) {
  MiningOptions options = BaseOptions();
  options.cancel.Cancel();
  options.deadline = Deadline::After(0);
  EXPECT_EQ(Mine(LargeSeries(), options).status().code(),
            StatusCode::kCancelled);
}

TEST(CancellationMiningTest, MidRunCancelFromAnotherThreadStopsMining) {
  MiningOptions options = BaseOptions();
  CancelToken token = options.cancel;
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  const auto result = Mine(LargeSeries(), options);
  canceller.join();
  // The run either finished before the cancel landed or was cut short; it
  // must never abort, hang, or report any other error.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST(BudgetTest, HitSetUpperBoundMatchesProperty32) {
  EXPECT_EQ(HitSetUpperBound(100, 0), 0u);  // < 2 letters: nothing stored.
  EXPECT_EQ(HitSetUpperBound(100, 1), 0u);
  EXPECT_EQ(HitSetUpperBound(100, 3), 4u);    // 2^3 - 3 - 1.
  EXPECT_EQ(HitSetUpperBound(2, 10), 2u);     // m wins.
  EXPECT_EQ(HitSetUpperBound(7, 100), 7u);    // Saturating shift: m wins.
}

TEST(BudgetTest, TinyBudgetWithFailPolicyIsResourceExhausted) {
  MiningOptions options = BaseOptions();
  options.memory_budget_bytes = 64;
  options.budget_policy = BudgetPolicy::kFail;
  const uint64_t before = CounterValue("ppm.fault.budget_denials");
  const auto result = Mine(LargeSeries(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(CounterValue("ppm.fault.budget_denials"), before);
}

TEST(BudgetTest, TinyBudgetWithDegradePolicyIsAlsoExhausted) {
  // 64 bytes fits neither the tree nor the vertical store.
  MiningOptions options = BaseOptions();
  options.memory_budget_bytes = 64;
  options.budget_policy = BudgetPolicy::kDegrade;
  EXPECT_EQ(Mine(LargeSeries(), options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(BudgetTest, DegradedRunMinesIdenticalPatterns) {
  // Pick a budget between the vertical-store and tree-store predictions so
  // the degrade policy is forced to fall back from the tree, then compare
  // against the unbudgeted tree run: the patterns must be byte-for-byte
  // identical.
  MiningOptions unbudgeted = BaseOptions();
  unbudgeted.hit_store = HitStoreKind::kMaxSubpatternTree;
  const auto reference = Mine(LargeSeries(), unbudgeted);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->stats().tree_nodes, 0u)
      << "reference run should use the tree store";

  const uint64_t num_periods = reference->stats().num_periods;
  const uint32_t num_letters =
      static_cast<uint32_t>(reference->stats().num_f1_letters);
  const uint64_t entries = HitSetUpperBound(num_periods, num_letters);
  const uint64_t vertical_bytes =
      PredictHitStoreBytes(HitStoreKind::kVertical, entries, num_letters);
  const uint64_t tree_bytes = PredictHitStoreBytes(
      HitStoreKind::kMaxSubpatternTree, entries, num_letters);
  ASSERT_LT(vertical_bytes, tree_bytes);

  MiningOptions budgeted = unbudgeted;
  budgeted.memory_budget_bytes = (vertical_bytes + tree_bytes) / 2;
  budgeted.budget_policy = BudgetPolicy::kDegrade;
  const uint64_t degradations_before = CounterValue("ppm.fault.degradations");
  const auto degraded = Mine(LargeSeries(), budgeted);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_GT(CounterValue("ppm.fault.degradations"), degradations_before);
  EXPECT_EQ(degraded->stats().tree_nodes, 0u)
      << "should use the vertical store";

  ASSERT_EQ(degraded->size(), reference->size());
  for (size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ(degraded->patterns()[i].pattern, reference->patterns()[i].pattern);
    EXPECT_EQ(degraded->patterns()[i].count, reference->patterns()[i].count);
  }
}

TEST(BudgetTest, VerticalPredictionCoversAStoreFilledToTheBound) {
  // 40 letters over 1000 periods: Property 3.2 bounds |H| by m = 1000.
  const uint32_t num_letters = 40;
  const uint64_t entries = HitSetUpperBound(1000, num_letters);
  ASSERT_EQ(entries, 1000u);
  VerticalHitStore store(num_letters);
  Rng rng(40);
  while (store.num_entries() < entries) {
    Bitset mask(num_letters);
    for (uint32_t letter = 0; letter < num_letters; ++letter) {
      if (rng.NextBool(0.5)) mask.Set(letter);
    }
    if (mask.Count() >= 2) store.AddHit(mask);
  }
  EXPECT_GE(PredictHitStoreBytes(HitStoreKind::kVertical, entries, num_letters),
            store.ApproxMemoryBytes());
}

/// A series whose periods 8..12 all have frequent letters at 0.3.
const tsdb::TimeSeries& MultiPeriodSeries() {
  static const tsdb::TimeSeries* series = [] {
    synth::GeneratorOptions options;
    options.length = 6000;
    options.period = 10;
    options.max_pat_length = 4;
    options.num_f1 = 6;
    options.num_features = 8;
    options.seed = 3;
    auto generated = synth::GenerateSeries(options);
    PPM_CHECK(generated.ok());
    return new tsdb::TimeSeries(std::move(generated.value().series));
  }();
  return *series;
}

TEST(BudgetTest, SharedMultiPeriodBudgetsAllPeriodsTogether) {
  MiningOptions options;
  options.min_confidence = 0.3;
  options.budget_policy = BudgetPolicy::kFail;
  // Each period's predicted store alone fits a budget of the largest
  // prediction; all five together do not.
  uint64_t largest = 0;
  uint64_t total = 0;
  for (uint32_t period = 8; period <= 12; ++period) {
    MiningOptions single = options;
    single.period = period;
    tsdb::InMemorySeriesSource source(&MultiPeriodSeries());
    const auto f1 = ScanForF1(source, single);
    ASSERT_TRUE(f1.ok()) << f1.status().ToString();
    ASSERT_GE(f1->space.size(), 2u) << "period " << period;
    const uint64_t predicted = PredictHitStoreBytes(
        options.hit_store, HitSetUpperBound(f1->num_periods, f1->space.size()),
        f1->space.size());
    largest = std::max(largest, predicted);
    total += predicted;
  }
  for (const uint32_t threads : {1u, 4u}) {
    options.num_threads = threads;
    options.memory_budget_bytes = largest;
    tsdb::InMemorySeriesSource source(&MultiPeriodSeries());
    const uint64_t before = CounterValue("ppm.fault.budget_denials");
    const auto denied = MineMultiPeriodShared(source, 8, 12, options);
    ASSERT_FALSE(denied.ok()) << "threads=" << threads;
    EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads << ": " << denied.status().ToString();
    EXPECT_GT(CounterValue("ppm.fault.budget_denials"), before);

    options.memory_budget_bytes = total;
    tsdb::InMemorySeriesSource fits_source(&MultiPeriodSeries());
    const auto fits = MineMultiPeriodShared(fits_source, 8, 12, options);
    EXPECT_TRUE(fits.ok()) << "threads=" << threads << ": "
                           << fits.status().ToString();
  }
}

TEST(BudgetTest, SharedScanOneTablesAreBudgetedBeforeAllocation) {
  // A 512-symbol alphabet over periods 20..60: the shared scan 1 would hold
  // 41 dense letter-count tables at once, far more than the hit stores.
  synth::GeneratorOptions generator;
  generator.length = 6000;
  generator.period = 10;
  generator.max_pat_length = 4;
  generator.num_f1 = 6;
  generator.num_features = 512;
  generator.seed = 3;
  auto generated = synth::GenerateSeries(generator);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const tsdb::TimeSeries& series = generated->series;
  const uint64_t num_symbols = series.symbols().size();
  ASSERT_EQ(num_symbols, 512u);

  MiningOptions options;
  options.min_confidence = 0.3;
  options.budget_policy = BudgetPolicy::kFail;
  uint64_t stores = 0;
  uint64_t tables = 0;
  uint64_t largest_table = 0;
  for (uint32_t period = 20; period <= 60; ++period) {
    MiningOptions single = options;
    single.period = period;
    tsdb::InMemorySeriesSource source(&series);
    const auto f1 = ScanForF1(source, single);
    ASSERT_TRUE(f1.ok()) << f1.status().ToString();
    stores += PredictHitStoreBytes(
        options.hit_store, HitSetUpperBound(f1->num_periods, f1->space.size()),
        f1->space.size());
    const uint64_t table = LetterCounts::BoundBytes(period, num_symbols);
    tables += table;
    largest_table = std::max(largest_table, table);
  }
  // Every predicted store fits together, and so does any one table; all
  // the tables at once do not.
  options.memory_budget_bytes = std::max(stores, largest_table);
  ASSERT_LT(options.memory_budget_bytes, tables);

  MiningOptions one_period = options;
  one_period.period = 60;
  tsdb::InMemorySeriesSource one_source(&series);
  const auto one_table = ScanForF1(one_source, one_period);
  EXPECT_TRUE(one_table.ok()) << one_table.status().ToString();

  for (const uint32_t threads : {1u, 4u}) {
    options.num_threads = threads;
    tsdb::InMemorySeriesSource source(&series);
    const uint64_t before = CounterValue("ppm.fault.budget_denials");
    const auto denied = MineMultiPeriodShared(source, 20, 60, options);
    ASSERT_FALSE(denied.ok()) << "threads=" << threads;
    EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads << ": " << denied.status().ToString();
    EXPECT_NE(denied.status().ToString().find("letter-count tables"),
              std::string::npos)
        << denied.status().ToString();
    EXPECT_GT(CounterValue("ppm.fault.budget_denials"), before);
    // Refused before the series was read.
    EXPECT_EQ(source.stats().scans, 0u) << "threads=" << threads;
  }
}

TEST(BudgetTest, LoopedMultiPeriodTasksBudgetTablesOverTheSourceSymbols) {
  // The sharded looped miner mines each period from an in-memory copy of
  // the series; that copy must keep the source's 512 symbols, or every
  // task budgets its letter-count table over an empty alphabet.
  synth::GeneratorOptions generator;
  generator.length = 6000;
  generator.period = 10;
  generator.max_pat_length = 4;
  generator.num_f1 = 6;
  generator.num_features = 512;
  generator.seed = 3;
  auto generated = synth::GenerateSeries(generator);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const tsdb::TimeSeries& series = generated->series;
  ASSERT_EQ(series.symbols().size(), 512u);

  MiningOptions options;
  options.min_confidence = 0.9;
  options.budget_policy = BudgetPolicy::kFail;
  options.memory_budget_bytes = LetterCounts::BoundBytes(60, 512) - 1;
  for (const uint32_t threads : {1u, 4u}) {
    options.num_threads = threads;
    tsdb::InMemorySeriesSource source(&series);
    const auto denied = MineMultiPeriodLooped(source, 58, 60, options);
    ASSERT_FALSE(denied.ok()) << "threads=" << threads;
    EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads << ": " << denied.status().ToString();
    EXPECT_NE(denied.status().ToString().find("letter-count tables"),
              std::string::npos)
        << "threads=" << threads << ": " << denied.status().ToString();
  }
}

TEST(BudgetTest, LoopedMultiPeriodSplitsItsBudgetAcrossConcurrentTasks) {
  MiningOptions options;
  options.min_confidence = 0.3;
  options.budget_policy = BudgetPolicy::kFail;
  uint64_t largest = 0;
  for (uint32_t period = 8; period <= 12; ++period) {
    MiningOptions single = options;
    single.period = period;
    tsdb::InMemorySeriesSource source(&MultiPeriodSeries());
    const auto f1 = ScanForF1(source, single);
    ASSERT_TRUE(f1.ok()) << f1.status().ToString();
    largest = std::max(
        largest, PredictHitStoreBytes(
                     options.hit_store,
                     HitSetUpperBound(f1->num_periods, f1->space.size()),
                     f1->space.size()));
  }
  // Streamed, one period's store is alive at a time: each fits alone.
  options.memory_budget_bytes = largest;
  tsdb::InMemorySeriesSource one_source(&MultiPeriodSeries());
  const auto streamed = MineMultiPeriodLooped(one_source, 8, 12, options);
  EXPECT_TRUE(streamed.ok()) << streamed.status().ToString();

  // Four period tasks run at once, so four stores are alive together: the
  // same budget no longer covers them.
  options.num_threads = 4;
  tsdb::InMemorySeriesSource source(&MultiPeriodSeries());
  const uint64_t before = CounterValue("ppm.fault.budget_denials");
  const auto denied = MineMultiPeriodLooped(source, 8, 12, options);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted)
      << denied.status().ToString();
  EXPECT_GT(CounterValue("ppm.fault.budget_denials"), before);

  options.memory_budget_bytes = 4 * largest;
  tsdb::InMemorySeriesSource fits_source(&MultiPeriodSeries());
  const auto fits = MineMultiPeriodLooped(fits_source, 8, 12, options);
  EXPECT_TRUE(fits.ok()) << fits.status().ToString();
}

TEST(BudgetTest, DecideHitStoreUnlimitedKeepsRequestedStore) {
  MiningOptions options = BaseOptions();
  options.hit_store = HitStoreKind::kMaxSubpatternTree;
  const auto decision = DecideHitStore(options, 1000, 10);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->store, HitStoreKind::kMaxSubpatternTree);
  EXPECT_FALSE(decision->degraded);
}

TEST(DeterminismTest, DeadlineStatusIdenticalAcrossThreadCounts) {
  // Acceptance criterion: the 1 ms deadline behaves identically (same
  // status code, no crash) at 1 and 8 threads.
  Status at_one, at_eight;
  for (int round = 0; round < 2; ++round) {
    MiningOptions options = BaseOptions();
    options.num_threads = round == 0 ? 1 : 8;
    options.deadline = Deadline::After(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (round == 0 ? at_one : at_eight) = Mine(LargeSeries(), options).status();
  }
  EXPECT_EQ(at_one.code(), at_eight.code());
  EXPECT_EQ(at_one.code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace ppm
