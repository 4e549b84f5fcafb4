#include "core/hitset_miner.h"

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

Result<MiningResult> MineHitSet(tsdb::SeriesSource& source,
                                const MiningOptions& options) {
  obs::TraceSpan mine_span = obs::Tracer::Global().StartSpan("mine.hitset");
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

  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;
  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  const uint32_t period = options.period;

  // `num_threads` only chooses how the series is walked: streamed from the
  // source once per scan, or materialized once (`stats().scans` is then 1)
  // and sharded over whole segments (docs/PARALLELISM.md).
  const uint32_t threads = ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  std::vector<tsdb::FeatureSet> instants;
  F1ScanResult f1;

  // Scan 1: frequent 1-patterns and the candidate max-pattern.
  if (threads > 1) {
    PPM_ASSIGN_OR_RETURN(
        instants, parallel::MaterializePrefix(
                      source, source.length() / period * period));
    pool = std::make_unique<ThreadPool>(threads);
    registry.GetGauge("ppm.parallel.threads").Set(pool->size());
    f1 = BuildF1FromInstants(instants, options, pool.get());
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
  MemoryBudget budget(options.memory_budget_bytes);
  const auto new_store = [&] {
    return MakeHitStore(budgeted.store, f1.space.full_mask(), f1.space.size());
  };
  std::unique_ptr<HitStore> store = new_store();

  // Scan 2: register the maximal hit subpattern of every whole segment.
  {
    const obs::TraceSpan scan_span =
        obs::Tracer::Global().StartSpan("second_scan");
    const uint64_t covered = f1.num_periods * period;
    if (pool == nullptr) {
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
          register_segment(segment_mask, *store);
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
    } else {
      // Each worker registers its own chunk of segments into a private
      // store; the private stores are merged in chunk order, which keeps
      // the merged store identical run to run for a fixed thread count.
      std::vector<std::unique_ptr<HitStore>> shard_stores(pool->size());
      for (auto& shard : shard_stores) shard = new_store();
      LiveStoreBytes live(pool->size());
      parallel::ShardTimings timings = parallel::ShardedRun(
          *pool, f1.num_periods, "second_scan",
          [&](const ThreadPool::Chunk& chunk) {
            HitStore& shard = *shard_stores[chunk.index];
            Bitset segment_mask(f1.space.size());
            for (uint64_t segment = chunk.begin; segment < chunk.end;
                 ++segment) {
              if ((segment - chunk.begin) % kScanCheckStride == 0 &&
                  (interrupt.ShouldStop() ||
                   (!budget.unlimited() &&
                    live.Publish(chunk.index, shard.ApproxMemoryBytes(),
                                 budget.limit())))) {
                return;
              }
              f1.space.SegmentMask(&instants[segment * period],
                                   &segment_mask);
              register_segment(segment_mask, shard);
            }
          },
          interrupt);
      PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
      if (live.over()) return HitStoreOverBudget(live.total(), budget.limit());

      obs::TraceSpan merge_span =
          obs::Tracer::Global().StartSpan("second_scan.merge");
      for (const auto& shard : shard_stores) store->Merge(*shard);
      merge_span.End();
      timings.merge_seconds = merge_span.ElapsedSeconds();
      parallel::RecordShardMetrics(timings);
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
  PPM_RETURN_IF_ERROR(DeriveFromHitStore(
      f1, *store, budgeted.store, options.max_letters, pool.get(), interrupt,
      budget.unlimited() ? nullptr : &budget, &result));
  result.stats().scans = source.stats().scans - scans_before;
  result.stats().instants_read = source.stats().instants_read - instants_before;
  mine_span.End();
  result.stats().elapsed_seconds = mine_span.ElapsedSeconds();
  registry.GetHistogram("ppm.mine.latency_us")
      .Observe(static_cast<uint64_t>(result.stats().elapsed_seconds * 1e6));
  PPM_LOG(kDebug) << "hit-set mine (x" << threads << "): " << result.size()
                  << " patterns, |H|=" << result.stats().hit_store_entries
                  << ", scans=" << result.stats().scans;
  return result;
}

}  // namespace ppm
