#include "core/hitset_miner.h"

#include <atomic>
#include <utility>
#include <memory>
#include <vector>

#include "core/budget.h"
#include "core/derivation.h"
#include "core/f1_scan.h"
#include "core/fault_metrics.h"
#include "core/hit_store.h"
#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/materialize.h"
#include "parallel/shard.h"
#include "util/cancellation.h"
#include "util/log.h"
#include "util/memory_budget.h"
#include "util/thread_pool.h"

namespace ppm {

namespace {

/// Segments processed between interrupt / budget polls during scan 2.
constexpr uint64_t kScanCheckStride = 1024;

/// A failed live budget check during scan 2 (the pre-scan prediction is
/// pessimistic, so this fires only when the prediction itself was beaten).
Status HitStoreOverBudget(uint64_t bytes, uint64_t limit) {
  obs::MetricsRegistry::Global().GetCounter("ppm.fault.budget_denials").Inc();
  return Status::ResourceExhausted(
      "hit store grew to " + std::to_string(bytes) +
      " bytes, exceeding memory budget of " + std::to_string(limit) +
      " bytes during the second scan");
}

/// Sharded variant of Algorithm 3.2 (docs/PARALLELISM.md): materializes the
/// covered prefix in one scan, then shards the F_1 count, the hit
/// registration (private per-worker stores merged in chunk order), and the
/// per-level candidate counting across `threads` workers. Patterns and
/// counts are identical to the sequential miner; `stats().scans` is 1
/// because the materialized buffer serves both logical scans.
Result<MiningResult> MineHitSetSharded(tsdb::SeriesSource& source,
                                       const MiningOptions& options,
                                       uint32_t threads) {
  obs::TraceSpan mine_span = obs::Tracer::Global().StartSpan("mine.hitset");
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter hits_inserted = registry.GetCounter("ppm.hitset.hits_inserted");
  obs::Counter segments_skipped =
      registry.GetCounter("ppm.hitset.segments_skipped");
  obs::Histogram segment_letters =
      registry.GetHistogram("ppm.hitset.segment_letters");

  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;

  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  const uint32_t period = options.period;
  const uint64_t num_periods = source.length() / period;
  PPM_ASSIGN_OR_RETURN(
      const std::vector<tsdb::FeatureSet> instants,
      parallel::MaterializePrefix(source, num_periods * period));

  ThreadPool pool(threads);
  registry.GetGauge("ppm.parallel.threads").Set(pool.size());

  // Scan 1 (over the materialized buffer): frequent 1-patterns.
  const F1ScanResult f1 = BuildF1FromInstants(instants, options, &pool);
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  result.stats().num_f1_letters = f1.space.size();
  result.stats().num_periods = f1.num_periods;

  // Property 3.2 bounds the hit set before it is built; the budget decision
  // may degrade the tree to the vertical store (identical patterns) or
  // refuse.
  PPM_ASSIGN_OR_RETURN(
      const BudgetDecision budgeted,
      DecideHitStore(options, f1.num_periods, f1.space.size()));
  MemoryBudget budget(options.memory_budget_bytes);
  std::unique_ptr<HitStore> store =
      MakeHitStore(budgeted.store, f1.space.full_mask(), f1.space.size());

  // Scan 2 (sharded): each worker registers the maximal hit subpattern of
  // its own chunk of whole segments into a private store; the private
  // stores are merged in chunk order, which keeps the merged tree identical
  // run to run for a fixed thread count.
  {
    const obs::TraceSpan scan_span =
        obs::Tracer::Global().StartSpan("second_scan");
    std::vector<std::unique_ptr<HitStore>> shard_stores(pool.size());
    for (auto& shard : shard_stores) {
      shard =
          MakeHitStore(budgeted.store, f1.space.full_mask(), f1.space.size());
    }
    // Workers cannot return a `Status`; a live budget overrun raises this
    // flag and every worker (plus the main thread, after the join) reacts.
    std::atomic<bool> over_budget{false};
    parallel::ShardTimings timings = parallel::ShardedRun(
        pool, f1.num_periods, "second_scan",
        [&](const ThreadPool::Chunk& chunk) {
          HitStore& shard = *shard_stores[chunk.index];
          Bitset segment_mask(f1.space.size());
          for (uint64_t segment = chunk.begin; segment < chunk.end;
               ++segment) {
            if ((segment - chunk.begin) % kScanCheckStride == 0) {
              if (interrupt.ShouldStop() ||
                  over_budget.load(std::memory_order_relaxed)) {
                return;
              }
              if (!budget.unlimited() &&
                  shard.ApproxMemoryBytes() > budget.limit()) {
                over_budget.store(true, std::memory_order_relaxed);
                return;
              }
            }
            f1.space.SegmentMask(&instants[segment * period], &segment_mask);
            const uint32_t letters = segment_mask.Count();
            segment_letters.Observe(letters);
            if (letters >= 2) {
              shard.AddHit(segment_mask);
              hits_inserted.Inc();
            } else {
              segments_skipped.Inc();
            }
          }
        },
        interrupt);

    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    if (over_budget.load(std::memory_order_relaxed)) {
      uint64_t shard_bytes = 0;
      for (const auto& shard : shard_stores) {
        if (shard != nullptr) shard_bytes += shard->ApproxMemoryBytes();
      }
      return HitStoreOverBudget(shard_bytes, budget.limit());
    }

    obs::TraceSpan merge_span =
        obs::Tracer::Global().StartSpan("second_scan.merge");
    for (const auto& shard : shard_stores) {
      if (shard != nullptr) store->Merge(*shard);
    }
    merge_span.End();
    if (!budget.unlimited() && store->ApproxMemoryBytes() > budget.limit()) {
      return HitStoreOverBudget(store->ApproxMemoryBytes(), budget.limit());
    }
    timings.merge_seconds = merge_span.ElapsedSeconds();
    parallel::RecordShardMetrics(timings);
    RecordDbPass("second_scan", f1.num_periods * period, f1.num_periods);
    registry.GetGauge("ppm.resource.hit_store_bytes")
        .Set(store->ApproxMemoryBytes());
  }

  // Derivation: candidate counting partitioned across the same pool. The
  // budget keeps accounting for per-level candidate tables on top of the
  // (already built) hit store's bytes.
  if (!budget.unlimited()) budget.TryCharge(store->ApproxMemoryBytes());
  const DerivationStats derivation = DeriveFrequentPatterns(
      f1, options.max_letters,
      [&store](const Bitset& mask) { return store->CountSuperpatterns(mask); },
      &result, &pool, interrupt, budget.unlimited() ? nullptr : &budget);
  if (!derivation.status.ok()) return RecordFault(derivation.status);

  result.Canonicalize();
  result.stats().candidates_evaluated = derivation.candidates_evaluated;
  result.stats().max_level_reached = derivation.max_level_reached;
  result.stats().hit_store_entries = store->num_entries();
  result.stats().tree_nodes =
      budgeted.store == HitStoreKind::kMaxSubpatternTree ? store->num_units()
                                                            : 0;
  result.stats().scans = source.stats().scans - scans_before;
  result.stats().instants_read = source.stats().instants_read - instants_before;
  mine_span.End();
  result.stats().elapsed_seconds = mine_span.ElapsedSeconds();
  registry.GetHistogram("ppm.mine.latency_us")
      .Observe(static_cast<uint64_t>(result.stats().elapsed_seconds * 1e6));
  PPM_LOG(kDebug) << "hit-set mine (sharded x" << pool.size()
                  << "): " << result.size() << " patterns, |H|="
                  << result.stats().hit_store_entries;
  return result;
}

}  // namespace

Result<MiningResult> MineHitSet(tsdb::SeriesSource& source,
                                const MiningOptions& options) {
  const uint32_t threads = ResolveThreadCount(options.num_threads);
  if (threads > 1) {
    return MineHitSetSharded(source, options, threads);
  }

  obs::TraceSpan mine_span = obs::Tracer::Global().StartSpan("mine.hitset");
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter hits_inserted = registry.GetCounter("ppm.hitset.hits_inserted");
  obs::Counter segments_skipped =
      registry.GetCounter("ppm.hitset.segments_skipped");
  obs::Histogram segment_letters =
      registry.GetHistogram("ppm.hitset.segment_letters");

  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;

  // Scan 1: frequent 1-patterns and the candidate max-pattern.
  const Interrupt interrupt = options.interrupt();
  PPM_ASSIGN_OR_RETURN(F1ScanResult f1, ScanForF1(source, options));
  result.stats().num_f1_letters = f1.space.size();
  result.stats().num_periods = f1.num_periods;

  // Property 3.2 bounds the hit set before it is built; the budget decision
  // may degrade the tree to the vertical store (identical patterns) or
  // refuse.
  PPM_ASSIGN_OR_RETURN(
      const BudgetDecision budgeted,
      DecideHitStore(options, f1.num_periods, f1.space.size()));
  MemoryBudget budget(options.memory_budget_bytes);
  std::unique_ptr<HitStore> store =
      MakeHitStore(budgeted.store, f1.space.full_mask(), f1.space.size());

  // Scan 2: register the maximal hit subpattern of every whole segment.
  // Hits with fewer than 2 letters carry no information beyond F_1's exact
  // counts and are skipped (Section 3.1.2).
  {
    const obs::TraceSpan scan_span =
        obs::Tracer::Global().StartSpan("second_scan");
    PPM_RETURN_IF_ERROR(source.StartScan());
    const uint32_t period = options.period;
    const uint64_t covered = f1.num_periods * period;
    Bitset segment_mask(f1.space.size());
    tsdb::FeatureSet instant;
    uint64_t t = 0;
    uint64_t segments_done = 0;
    while (t < covered && source.Next(&instant)) {
      const uint32_t position = static_cast<uint32_t>(t % period);
      if (position == 0) segment_mask.Reset();
      f1.space.AccumulatePosition(position, instant, &segment_mask);
      if (position == period - 1) {
        const uint32_t letters = segment_mask.Count();
        segment_letters.Observe(letters);
        if (letters >= 2) {
          store->AddHit(segment_mask);
          hits_inserted.Inc();
        } else {
          segments_skipped.Inc();
        }
        if (++segments_done % kScanCheckStride == 0) {
          PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
          if (!budget.unlimited() &&
              store->ApproxMemoryBytes() > budget.limit()) {
            return HitStoreOverBudget(store->ApproxMemoryBytes(),
                                      budget.limit());
          }
        }
      }
      ++t;
    }
    PPM_RETURN_IF_ERROR(source.status());
    if (t < covered) {
      return Status::Internal("source ended before its declared length");
    }
    if (!budget.unlimited() && store->ApproxMemoryBytes() > budget.limit()) {
      return HitStoreOverBudget(store->ApproxMemoryBytes(), budget.limit());
    }
    RecordDbPass("second_scan", covered, f1.num_periods);
    registry.GetGauge("ppm.resource.hit_store_bytes")
        .Set(store->ApproxMemoryBytes());
  }

  // Derivation: no further series access. The budget keeps accounting for
  // per-level candidate tables on top of the hit store's bytes.
  if (!budget.unlimited()) budget.TryCharge(store->ApproxMemoryBytes());
  const DerivationStats derivation = DeriveFrequentPatterns(
      f1, options.max_letters,
      [&store](const Bitset& mask) { return store->CountSuperpatterns(mask); },
      &result, nullptr, interrupt, budget.unlimited() ? nullptr : &budget);
  if (!derivation.status.ok()) return RecordFault(derivation.status);

  result.Canonicalize();
  result.stats().candidates_evaluated = derivation.candidates_evaluated;
  result.stats().max_level_reached = derivation.max_level_reached;
  result.stats().hit_store_entries = store->num_entries();
  result.stats().tree_nodes =
      budgeted.store == HitStoreKind::kMaxSubpatternTree ? store->num_units()
                                                            : 0;
  result.stats().scans = source.stats().scans - scans_before;
  result.stats().instants_read = source.stats().instants_read - instants_before;
  mine_span.End();
  result.stats().elapsed_seconds = mine_span.ElapsedSeconds();
  registry.GetHistogram("ppm.mine.latency_us")
      .Observe(static_cast<uint64_t>(result.stats().elapsed_seconds * 1e6));
  PPM_LOG(kDebug) << "hit-set mine: " << result.size() << " patterns, |H|="
                  << result.stats().hit_store_entries << ", scans="
                  << result.stats().scans;
  return result;
}

}  // namespace ppm
