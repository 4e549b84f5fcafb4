#include "core/hitset_miner.h"

#include <memory>
#include <vector>

#include "core/budget.h"
#include "core/derivation.h"
#include "core/fault_metrics.h"
#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/materialize.h"
#include "parallel/shard.h"
#include "util/cancellation.h"
#include "util/log.h"
#include "util/memory_budget.h"

namespace ppm {

Result<HitSetScans> ScanHitSet(tsdb::SeriesSource& source,
                               const MiningOptions& options) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter hits_inserted = registry.GetCounter("ppm.hitset.hits_inserted");
  obs::Counter segments_skipped =
      registry.GetCounter("ppm.hitset.segments_skipped");
  obs::Histogram segment_letters =
      registry.GetHistogram("ppm.hitset.segment_letters");
  // Hits with fewer than 2 letters carry no information beyond F_1's exact
  // counts and are skipped (Section 3.1.2).
  const auto register_segment = [&](const Bitset& segment_mask,
                                    HitStore& into) {
    const uint32_t letters = segment_mask.Count();
    segment_letters.Observe(letters);
    if (letters >= 2) {
      into.AddHit(segment_mask);
      hits_inserted.Inc();
    } else {
      segments_skipped.Inc();
    }
  };

  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  const uint32_t period = options.period;

  const uint32_t threads = ResolveThreadCount(options.num_threads);
  const uint64_t limit = options.memory_budget_bytes;  // 0: unlimited.
  HitSetScans scans;
  F1ScanResult& f1 = scans.f1;
  std::vector<tsdb::FeatureSet> instants;

  // Scan 1: frequent 1-patterns and the candidate max-pattern.
  if (threads > 1) {
    // One letter-count table per worker until they are summed.
    PPM_RETURN_IF_ERROR(CheckLetterCountsBudget(
        options, threads * LetterCounts::BoundBytes(
                               period, source.symbols().size())));
    PPM_ASSIGN_OR_RETURN(
        instants, parallel::MaterializePrefix(
                      source, source.length() / period * period));
    scans.pool = std::make_unique<ThreadPool>(threads);
    registry.GetGauge("ppm.parallel.threads").Set(scans.pool->size());
    f1 = BuildF1FromInstants(instants, options, scans.pool.get());
    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  } else {
    PPM_ASSIGN_OR_RETURN(f1, ScanForF1(source, options));
  }

  // Property 3.2 bounds the hit set before it is built; the budget decision
  // may degrade the tree to the vertical store (identical patterns) or
  // refuse.
  PPM_ASSIGN_OR_RETURN(
      const BudgetDecision budgeted,
      DecideHitStore(options, f1.num_periods, f1.space.size()));
  scans.store_kind = budgeted.store;
  const auto new_store = [&] {
    return MakeHitStore(budgeted.store, f1.space.full_mask(), f1.space.size());
  };
  scans.store = new_store();
  HitStore& store = *scans.store;

  // Scan 2: register the maximal hit subpattern of every whole segment.
  const obs::TraceSpan scan_span =
      obs::Tracer::Global().StartSpan("second_scan");
  const uint64_t covered = f1.num_periods * period;
  if (scans.pool == nullptr) {
    PPM_RETURN_IF_ERROR(source.StartScan());
    Bitset segment_mask(f1.space.size());
    tsdb::FeatureSet instant;
    uint64_t t = 0;
    uint64_t segments_done = 0;
    while (t < covered && source.Next(&instant)) {
      const uint32_t position = static_cast<uint32_t>(t % period);
      if (position == 0) segment_mask.Reset();
      f1.space.AccumulatePosition(position, instant, &segment_mask);
      if (position == period - 1) {
        register_segment(segment_mask, store);
        if (++segments_done % kScanCheckStride == 0) {
          PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
          if (limit != 0 && store.ApproxMemoryBytes() > limit) {
            return HitStoreOverBudget(store.ApproxMemoryBytes(), limit);
          }
        }
      }
      ++t;
    }
    PPM_RETURN_IF_ERROR(source.status());
    if (t < covered) {
      return Status::Internal("source ended before its declared length");
    }
  } else {
    // Each worker registers its own chunk of segments into a private
    // store; the private stores are merged in chunk order, which keeps the
    // merged store identical run to run for a fixed thread count.
    ThreadPool& pool = *scans.pool;
    std::vector<std::unique_ptr<HitStore>> shard_stores(pool.size());
    for (auto& shard : shard_stores) shard = new_store();
    LiveStoreBytes live(pool.size());
    parallel::ShardTimings timings = parallel::ShardedRun(
        pool, f1.num_periods, "second_scan",
        [&](const ThreadPool::Chunk& chunk) {
          HitStore& shard = *shard_stores[chunk.index];
          Bitset segment_mask(f1.space.size());
          for (uint64_t segment = chunk.begin; segment < chunk.end;
               ++segment) {
            if ((segment - chunk.begin) % kScanCheckStride == 0 &&
                (interrupt.ShouldStop() ||
                 (limit != 0 &&
                  live.Publish(chunk.index, shard.ApproxMemoryBytes(),
                               limit)))) {
              return;
            }
            f1.space.SegmentMask(&instants[segment * period], &segment_mask);
            register_segment(segment_mask, shard);
          }
        },
        interrupt);
    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    if (live.over()) return HitStoreOverBudget(live.total(), limit);

    obs::TraceSpan merge_span =
        obs::Tracer::Global().StartSpan("second_scan.merge");
    for (const auto& shard : shard_stores) store.Merge(*shard);
    merge_span.End();
    timings.merge_seconds = merge_span.ElapsedSeconds();
    parallel::RecordShardMetrics(timings);
  }
  if (limit != 0 && store.ApproxMemoryBytes() > limit) {
    return HitStoreOverBudget(store.ApproxMemoryBytes(), limit);
  }
  RecordDbPass("second_scan", covered, f1.num_periods);
  registry.GetGauge("ppm.resource.hit_store_bytes")
      .Set(store.ApproxMemoryBytes());
  return scans;
}

Result<MiningResult> MineHitSet(tsdb::SeriesSource& source,
                                const MiningOptions& options) {
  obs::TraceSpan mine_span = obs::Tracer::Global().StartSpan("mine.hitset");
  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;
  PPM_ASSIGN_OR_RETURN(const HitSetScans scans, ScanHitSet(source, options));

  // Derivation: no further series access. The budget keeps accounting for
  // per-level candidate tables on top of the hit store's bytes.
  MemoryBudget budget(options.memory_budget_bytes);
  if (!budget.unlimited()) budget.TryCharge(scans.store->ApproxMemoryBytes());
  PPM_RETURN_IF_ERROR(DeriveFromHitStore(
      scans.f1, *scans.store, scans.store_kind, options.max_letters,
      scans.pool.get(), options.interrupt(),
      budget.unlimited() ? nullptr : &budget, &result));
  result.stats().scans = source.stats().scans - scans_before;
  result.stats().instants_read = source.stats().instants_read - instants_before;
  mine_span.End();
  result.stats().elapsed_seconds = mine_span.ElapsedSeconds();
  obs::MetricsRegistry::Global()
      .GetHistogram("ppm.mine.latency_us")
      .Observe(static_cast<uint64_t>(result.stats().elapsed_seconds * 1e6));
  PPM_LOG(kDebug) << "hit-set mine (x"
                  << (scans.pool == nullptr ? 1 : scans.pool->size())
                  << "): " << result.size()
                  << " patterns, |H|=" << result.stats().hit_store_entries
                  << ", scans=" << result.stats().scans;
  return result;
}

}  // namespace ppm
