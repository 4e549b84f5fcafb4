#include "core/hitset_miner.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/budget.h"
#include "core/derivation.h"
#include "core/fault_metrics.h"
#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/shard.h"
#include "util/cancellation.h"
#include "util/log.h"
#include "util/memory_budget.h"

namespace ppm {

namespace {

uint64_t TotalBytes(const std::vector<std::unique_ptr<HitStore>>& stores) {
  uint64_t bytes = 0;
  for (const auto& store : stores) bytes += store->ApproxMemoryBytes();
  return bytes;
}

}  // namespace

Result<HitSetScans> ScanHitSet(tsdb::SeriesSource& source,
                               const std::vector<MiningOptions>& per_period) {
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

  const MiningOptions& options = per_period.front();
  const Interrupt interrupt = options.interrupt();
  const uint64_t limit = options.memory_budget_bytes;  // 0: unlimited.
  const size_t num_ranges = per_period.size();
  const bool shared = num_ranges > 1;

  // Scan 1: every period's frequent 1-patterns and candidate max-pattern.
  PPM_ASSIGN_OR_RETURN(F1Scans scanned, ScanPeriodsForF1(source, per_period));
  HitSetScans scans;
  scans.pool = std::move(scanned.pool);
  const std::vector<tsdb::FeatureSet>& instants = scanned.instants;

  // Property 3.2 bounds each hit set before it is built; the budget
  // decision may degrade the tree to the vertical store (identical
  // patterns) or refuse. Every period's store is decided against the
  // budget the periods before it left over: all of them are alive together
  // during scan 2.
  std::vector<uint64_t> covered(num_ranges);
  uint64_t walk = 0;
  uint64_t reserved = 0;
  for (size_t r = 0; r < num_ranges; ++r) {
    PeriodHitSet& period = scans.periods.emplace_back();
    period.f1 = std::move(scanned.f1[r]);
    PPM_ASSIGN_OR_RETURN(
        const BudgetDecision budgeted,
        DecideHitStore(per_period[r], period.f1.num_periods,
                       period.f1.space.size(), reserved));
    period.store_kind = budgeted.store;
    reserved += budgeted.predicted_bytes;
    covered[r] = period.f1.num_periods * per_period[r].period;
    walk = std::max(walk, covered[r]);
  }
  const auto new_stores = [&] {
    std::vector<std::unique_ptr<HitStore>> stores;
    for (const PeriodHitSet& period : scans.periods) {
      stores.push_back(MakeHitStore(period.store_kind,
                                    period.f1.space.full_mask(),
                                    period.f1.space.size()));
    }
    return stores;
  };
  std::vector<std::unique_ptr<HitStore>> stores = new_stores();

  // Scan 2: register the maximal hit subpattern of every whole segment.
  const std::string phase = shared ? "shared_scan2" : "second_scan";
  const obs::TraceSpan scan_span = obs::Tracer::Global().StartSpan(phase);
  if (scans.pool == nullptr) {
    // One walker per period: its letters, its store and its current
    // segment's mask.
    struct PeriodWalk {
      const LetterSpace* space;
      HitStore* store;
      Bitset segment_mask;
      uint64_t covered;
      uint32_t period;
    };
    std::vector<PeriodWalk> ranges;
    for (size_t r = 0; r < num_ranges; ++r) {
      const LetterSpace& space = scans.periods[r].f1.space;
      ranges.push_back(PeriodWalk{&space, stores[r].get(), Bitset(space.size()),
                                  covered[r], per_period[r].period});
    }
    PPM_RETURN_IF_ERROR(source.StartScan());
    tsdb::FeatureSet instant;
    uint64_t t = 0;
    uint64_t segments_done = 0;
    while (t < walk && source.Next(&instant)) {
      for (PeriodWalk& range : ranges) {
        if (t >= range.covered) continue;
        const uint32_t position = static_cast<uint32_t>(t % range.period);
        if (position == 0) range.segment_mask.Reset();
        range.space->AccumulatePosition(position, instant,
                                        &range.segment_mask);
        if (position != range.period - 1) continue;
        register_segment(range.segment_mask, *range.store);
        if (++segments_done % kScanCheckStride == 0) {
          PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
          if (limit != 0 && TotalBytes(stores) > limit) {
            return HitStoreOverBudget(TotalBytes(stores), limit);
          }
        }
      }
      ++t;
    }
    PPM_RETURN_IF_ERROR(source.status());
    if (t < walk) {
      return Status::Internal("source ended before its declared length");
    }
    // One traversal serves every period, as in scan 1.
    RecordDbPass(phase, walk, shared ? 0 : walk / options.period);
  } else {
    // Worker w registers chunk w of every period's segments into a private
    // store set; the sets are merged in worker order, which keeps the
    // merged stores identical run to run for a fixed thread count.
    ThreadPool& pool = *scans.pool;
    std::vector<std::vector<std::unique_ptr<HitStore>>> worker_stores(
        pool.size());
    for (auto& store_set : worker_stores) store_set = new_stores();
    LiveStoreBytes live(pool.size());
    parallel::ShardTimings timings = parallel::ShardedRun(
        pool, pool.size(), phase,
        [&](const ThreadPool::Chunk& chunk) {
          for (uint64_t w = chunk.begin; w < chunk.end; ++w) {
            for (size_t r = 0; r < num_ranges; ++r) {
              const uint32_t period = per_period[r].period;
              const F1ScanResult& f1 = scans.periods[r].f1;
              const std::vector<ThreadPool::Chunk> segments =
                  ThreadPool::SplitRange(f1.num_periods, pool.size());
              if (w >= segments.size()) continue;
              Bitset segment_mask(f1.space.size());
              for (uint64_t segment = segments[w].begin;
                   segment < segments[w].end; ++segment) {
                if ((segment - segments[w].begin) % kScanCheckStride == 0 &&
                    (interrupt.ShouldStop() ||
                     (limit != 0 &&
                      live.Publish(w, TotalBytes(worker_stores[w]), limit)))) {
                  return;
                }
                f1.space.SegmentMask(&instants[segment * period],
                                     &segment_mask);
                register_segment(segment_mask, *worker_stores[w][r]);
              }
            }
          }
        },
        interrupt);
    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    if (live.over()) return HitStoreOverBudget(live.total(), limit);

    obs::TraceSpan merge_span =
        obs::Tracer::Global().StartSpan(phase + ".merge");
    for (size_t r = 0; r < num_ranges; ++r) {
      for (const auto& store_set : worker_stores) {
        stores[r]->Merge(*store_set[r]);
      }
    }
    merge_span.End();
    timings.merge_seconds = merge_span.ElapsedSeconds();
    parallel::RecordShardMetrics(timings);
    // Each period's segments are walked on their own here, as its F_1
    // build was, so passes accrue per period (docs/OBSERVABILITY.md).
    for (size_t r = 0; r < num_ranges; ++r) {
      RecordDbPass(phase, covered[r], scans.periods[r].f1.num_periods);
    }
  }
  scans.store_bytes = TotalBytes(stores);
  if (limit != 0 && scans.store_bytes > limit) {
    return HitStoreOverBudget(scans.store_bytes, limit);
  }
  registry.GetGauge("ppm.resource.hit_store_bytes").Set(scans.store_bytes);
  for (size_t r = 0; r < num_ranges; ++r) {
    scans.periods[r].store = std::move(stores[r]);
  }
  return scans;
}

Result<MiningResult> MineHitSet(tsdb::SeriesSource& source,
                                const MiningOptions& options) {
  obs::TraceSpan mine_span = obs::Tracer::Global().StartSpan("mine.hitset");
  MiningResult result;
  const uint64_t scans_before = source.stats().scans;
  const uint64_t instants_before = source.stats().instants_read;
  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  PPM_ASSIGN_OR_RETURN(const HitSetScans scans, ScanHitSet(source, {options}));
  const PeriodHitSet& scanned = scans.periods.front();

  // Derivation: no further series access. The budget keeps accounting for
  // per-level candidate tables on top of the hit store's bytes.
  MemoryBudget budget(options.memory_budget_bytes);
  if (!budget.unlimited()) budget.TryCharge(scans.store_bytes);
  PPM_RETURN_IF_ERROR(DeriveFromHitStore(
      scanned.f1, *scanned.store, scanned.store_kind, options.max_letters,
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
