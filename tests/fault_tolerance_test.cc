// Library-level tests for the fault-tolerant execution paths: cooperative
// cancellation, wall-clock deadlines, and memory budgets (ISSUE 4's
// acceptance criteria; see docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/budget.h"
#include "core/hit_store.h"
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

TEST(DeadlineMiningTest, MultiPeriodHonorsDeadlines) {
  MiningOptions options = BaseOptions();
  options.deadline = Deadline::After(0);
  tsdb::InMemorySeriesSource source(&LargeSeries());
  EXPECT_EQ(MineMultiPeriodShared(source, 2, 8, options).status().code(),
            StatusCode::kDeadlineExceeded);
  tsdb::InMemorySeriesSource source2(&LargeSeries());
  EXPECT_EQ(MineMultiPeriodLooped(source2, 2, 8, options).status().code(),
            StatusCode::kDeadlineExceeded);
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
