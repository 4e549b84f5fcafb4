#include "core/multi_period.h"

#include <memory>
#include <utility>

#include "core/budget.h"
#include "core/derivation.h"
#include "core/f1_scan.h"
#include "core/fault_metrics.h"
#include "core/hit_store.h"
#include "core/hitset_miner.h"
#include "core/letter_counts.h"
#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/materialize.h"
#include "parallel/shard.h"
#include "tsdb/series_source.h"
#include "util/log.h"
#include "util/memory_budget.h"
#include "util/thread_pool.h"

namespace ppm {

namespace {

/// Instants walked between interrupt polls in the shared-scan loops.
constexpr uint64_t kInstantCheckStride = 4096;

/// `options` once per period of `[period_low, period_high]`, each validated
/// against the series length: both multi-period miners reject a bad range
/// or threshold before touching the series, at any thread count.
Result<std::vector<MiningOptions>> PerPeriodOptions(
    uint32_t period_low, uint32_t period_high, uint64_t series_length,
    const MiningOptions& options) {
  if (period_low == 0) {
    return Status::InvalidArgument("period_low must be positive");
  }
  if (period_high < period_low) {
    return Status::InvalidArgument("period_high below period_low");
  }
  if (period_high > series_length) {
    return Status::InvalidArgument("period_high exceeds series length");
  }
  std::vector<MiningOptions> per_period;
  for (uint32_t period = period_low; period <= period_high; ++period) {
    per_period.push_back(options);
    per_period.back().period = period;
    PPM_RETURN_IF_ERROR(per_period.back().Validate(series_length));
  }
  return per_period;
}

/// Algorithm 3.4's first scan, streamed: one traversal of `source` counts
/// the per-position letters of every period at once.
Result<std::vector<F1ScanResult>> SharedScanForF1(
    tsdb::SeriesSource& source, const std::vector<MiningOptions>& per_period,
    const Interrupt& interrupt) {
  const obs::TraceSpan span = obs::Tracer::Global().StartSpan("shared_scan1");
  const size_t num_ranges = per_period.size();
  std::vector<LetterCounts> counts;
  std::vector<uint64_t> covered(num_ranges);
  for (size_t r = 0; r < num_ranges; ++r) {
    const uint32_t period = per_period[r].period;
    counts.emplace_back(period);
    covered[r] = (source.length() / period) * period;
  }

  PPM_RETURN_IF_ERROR(source.StartScan());
  tsdb::FeatureSet instant;
  uint64_t t = 0;
  while (source.Next(&instant)) {
    if (t % kInstantCheckStride == 0) {
      PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    }
    for (size_t r = 0; r < num_ranges; ++r) {
      if (t >= covered[r]) continue;
      counts[r].Add(static_cast<uint32_t>(t % per_period[r].period), instant);
    }
    ++t;
  }
  PPM_RETURN_IF_ERROR(source.status());
  // One traversal serves every period: the whole shared run is 2 db passes
  // no matter how many periods are mined.
  RecordDbPass("shared_scan1", t, 0);

  std::vector<F1ScanResult> f1;
  for (size_t r = 0; r < num_ranges; ++r) {
    f1.push_back(FinishF1(counts[r], per_period[r],
                          source.length() / per_period[r].period));
  }
  return f1;
}

uint64_t StoreBytes(const std::vector<std::unique_ptr<HitStore>>& stores) {
  uint64_t bytes = 0;
  for (const auto& store : stores) bytes += store->ApproxMemoryBytes();
  return bytes;
}

}  // namespace

const MiningResult* MultiPeriodResult::ForPeriod(uint32_t period) const {
  for (const auto& [p, result] : per_period) {
    if (p == period) return &result;
  }
  return nullptr;
}

Result<MultiPeriodResult> MineMultiPeriodLooped(tsdb::SeriesSource& source,
                                                uint32_t period_low,
                                                uint32_t period_high,
                                                const MiningOptions& options) {
  obs::TraceSpan span =
      obs::Tracer::Global().StartSpan("mine.multi_period.looped");
  PPM_ASSIGN_OR_RETURN(
      std::vector<MiningOptions> per_period,
      PerPeriodOptions(period_low, period_high, source.length(), options));
  PPM_RETURN_IF_INTERRUPTED_RECORDED(options.interrupt());
  const uint64_t scans_before = source.stats().scans;
  const size_t num_ranges = per_period.size();
  std::vector<Result<MiningResult>> mined;
  mined.reserve(num_ranges);

  const uint32_t threads = ResolveThreadCount(options.num_threads);
  if (threads > 1) {
    // Materialize the series once, then mine one period per task, each from
    // its own in-memory source with `num_threads = 1` (no nested pools), so
    // per-period results are byte-identical to the streamed loop.
    PPM_ASSIGN_OR_RETURN(std::vector<tsdb::FeatureSet> instants,
                         parallel::MaterializePrefix(source, source.length()));
    tsdb::TimeSeries series;
    for (tsdb::FeatureSet& instant : instants) {
      series.Append(std::move(instant));
    }
    ThreadPool pool(threads);
    obs::MetricsRegistry::Global().GetGauge("ppm.parallel.threads")
        .Set(pool.size());
    for (size_t r = 0; r < num_ranges; ++r) {
      mined.emplace_back(Status::Internal("period task never ran"));
      per_period[r].num_threads = 1;
    }
    for (size_t r = 0; r < num_ranges; ++r) {
      pool.Submit([&series, &per_period, &mined, r] {
        const obs::TraceSpan task_span =
            obs::Tracer::Global().StartSpan("multi_period.task");
        tsdb::InMemorySeriesSource task_source(&series);
        mined[r] = MineHitSet(task_source, per_period[r]);
      });
    }
    pool.Wait();
  } else {
    // Algorithm 3.3: an independent 2-scan hit-set mine per period.
    for (size_t r = 0; r < num_ranges; ++r) {
      mined.push_back(MineHitSet(source, per_period[r]));
      if (!mined.back().ok()) break;
    }
  }

  MultiPeriodResult result;
  for (size_t r = 0; r < mined.size(); ++r) {
    if (!mined[r].ok()) return mined[r].status();
    result.per_period.emplace_back(per_period[r].period,
                                   std::move(mined[r]).value());
  }
  result.total_scans = source.stats().scans - scans_before;
  span.End();
  result.elapsed_seconds = span.ElapsedSeconds();
  PPM_LOG(kDebug) << "multi-period looped mine (x" << threads << "): periods "
                  << period_low << ".." << period_high << " in "
                  << result.total_scans << " scans";
  return result;
}

Result<MultiPeriodResult> MineMultiPeriodShared(tsdb::SeriesSource& source,
                                                uint32_t period_low,
                                                uint32_t period_high,
                                                const MiningOptions& options) {
  obs::TraceSpan span =
      obs::Tracer::Global().StartSpan("mine.multi_period.shared");
  PPM_ASSIGN_OR_RETURN(
      const std::vector<MiningOptions> per_period,
      PerPeriodOptions(period_low, period_high, source.length(), options));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  const uint64_t scans_before = source.stats().scans;
  const size_t num_ranges = per_period.size();

  // Scan 1 may hold every period's letter-count table at once: budget them
  // all before any is allocated.
  uint64_t table_bytes = 0;
  for (const MiningOptions& one : per_period) {
    table_bytes +=
        LetterCounts::BoundBytes(one.period, source.symbols().size());
  }
  PPM_RETURN_IF_ERROR(CheckLetterCountsBudget(options, table_bytes));

  // `num_threads` only chooses how the series is walked: streamed twice in
  // total, or materialized once and sharded (docs/PARALLELISM.md).
  const uint32_t threads = ResolveThreadCount(options.num_threads);
  std::unique_ptr<ThreadPool> pool;
  std::vector<tsdb::FeatureSet> instants;
  std::vector<F1ScanResult> f1(num_ranges);

  // --- Scan 1: per-period F_1. ---
  if (threads > 1) {
    PPM_ASSIGN_OR_RETURN(instants,
                         parallel::MaterializePrefix(source, source.length()));
    pool = std::make_unique<ThreadPool>(threads);
    obs::MetricsRegistry::Global().GetGauge("ppm.parallel.threads")
        .Set(pool->size());
    const obs::TraceSpan scan1_span =
        obs::Tracer::Global().StartSpan("shared_scan1");
    // One task per period, each writing only its own slot.
    for (size_t r = 0; r < num_ranges; ++r) {
      pool->Submit([&instants, &per_period, &f1, r] {
        f1[r] = BuildF1FromInstants(instants, per_period[r]);
      });
    }
    pool->Wait();
    // Tasks bail early when interrupted, leaving partial F_1 slots.
    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  } else {
    PPM_ASSIGN_OR_RETURN(f1, SharedScanForF1(source, per_period, interrupt));
  }

  // Every period's store is decided against the budget the periods before
  // it left over: all of them are alive together during scan 2.
  std::vector<HitStoreKind> kinds(num_ranges);
  uint64_t reserved = 0;
  for (size_t r = 0; r < num_ranges; ++r) {
    PPM_ASSIGN_OR_RETURN(const BudgetDecision budgeted,
                         DecideHitStore(per_period[r], f1[r].num_periods,
                                        f1[r].space.size(), reserved));
    kinds[r] = budgeted.store;
    reserved += budgeted.predicted_bytes;
  }
  const auto new_stores = [&] {
    std::vector<std::unique_ptr<HitStore>> stores(num_ranges);
    for (size_t r = 0; r < num_ranges; ++r) {
      stores[r] = MakeHitStore(kinds[r], f1[r].space.full_mask(),
                               f1[r].space.size());
    }
    return stores;
  };
  std::vector<std::unique_ptr<HitStore>> stores = new_stores();
  MemoryBudget budget(options.memory_budget_bytes);

  // --- Scan 2: feed every period's hit store. ---
  if (pool == nullptr) {
    std::vector<Bitset> segment_masks;
    for (size_t r = 0; r < num_ranges; ++r) {
      segment_masks.emplace_back(f1[r].space.size());
    }
    const obs::TraceSpan scan2_span =
        obs::Tracer::Global().StartSpan("shared_scan2");
    PPM_RETURN_IF_ERROR(source.StartScan());
    tsdb::FeatureSet instant;
    uint64_t t = 0;
    uint64_t segments_since_check = 0;
    while (source.Next(&instant)) {
      if (t % kInstantCheckStride == 0) {
        PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
      }
      for (size_t r = 0; r < num_ranges; ++r) {
        const uint32_t period = per_period[r].period;
        if (t >= f1[r].num_periods * period) continue;
        const uint32_t position = static_cast<uint32_t>(t % period);
        if (position == 0) segment_masks[r].Reset();
        f1[r].space.AccumulatePosition(position, instant, &segment_masks[r]);
        if (position == period - 1) {
          if (segment_masks[r].Count() >= 2) {
            stores[r]->AddHit(segment_masks[r]);
          }
          ++segments_since_check;
        }
      }
      if (segments_since_check >= kScanCheckStride) {
        segments_since_check = 0;
        if (!budget.unlimited() && StoreBytes(stores) > budget.limit()) {
          return HitStoreOverBudget(StoreBytes(stores), budget.limit());
        }
      }
      ++t;
    }
    PPM_RETURN_IF_ERROR(source.status());
    RecordDbPass("shared_scan2", t, 0);
  } else {
    // Worker w walks its chunk of every period's whole segments into a
    // private store set; the sets are merged in worker order at the end.
    const obs::TraceSpan scan2_span =
        obs::Tracer::Global().StartSpan("shared_scan2");
    std::vector<std::vector<std::unique_ptr<HitStore>>> worker_stores(
        pool->size());
    for (auto& store_set : worker_stores) store_set = new_stores();
    LiveStoreBytes live(pool->size());
    parallel::ShardTimings timings = parallel::ShardedRun(
        *pool, pool->size(), "shared_scan2",
        [&](const ThreadPool::Chunk& chunk) {
          for (uint64_t w = chunk.begin; w < chunk.end; ++w) {
            for (size_t r = 0; r < num_ranges; ++r) {
              const uint32_t period = per_period[r].period;
              const std::vector<ThreadPool::Chunk> segments =
                  ThreadPool::SplitRange(f1[r].num_periods, pool->size());
              if (w >= segments.size()) continue;
              Bitset segment_mask(f1[r].space.size());
              for (uint64_t segment = segments[w].begin;
                   segment < segments[w].end; ++segment) {
                if ((segment - segments[w].begin) % kScanCheckStride == 0 &&
                    (interrupt.ShouldStop() ||
                     (!budget.unlimited() &&
                      live.Publish(w, StoreBytes(worker_stores[w]),
                                   budget.limit())))) {
                  return;
                }
                f1[r].space.SegmentMask(&instants[segment * period],
                                        &segment_mask);
                if (segment_mask.Count() >= 2) {
                  worker_stores[w][r]->AddHit(segment_mask);
                }
              }
            }
          }
        },
        interrupt);
    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    if (live.over()) return HitStoreOverBudget(live.total(), budget.limit());

    obs::TraceSpan merge_span =
        obs::Tracer::Global().StartSpan("shared_scan2.merge");
    for (size_t r = 0; r < num_ranges; ++r) {
      for (const auto& store_set : worker_stores) {
        stores[r]->Merge(*store_set[r]);
      }
    }
    merge_span.End();
    timings.merge_seconds = merge_span.ElapsedSeconds();
    parallel::RecordShardMetrics(timings);
    // Each period's segments are walked independently here (as its F_1
    // build was), so passes accrue per period: 2 per period mined, not 2
    // total. See docs/OBSERVABILITY.md.
    for (size_t r = 0; r < num_ranges; ++r) {
      RecordDbPass("shared_scan2", f1[r].num_periods * per_period[r].period,
                   f1[r].num_periods);
    }
  }
  const uint64_t store_bytes = StoreBytes(stores);
  if (!budget.unlimited() && store_bytes > budget.limit()) {
    return HitStoreOverBudget(store_bytes, budget.limit());
  }

  // --- Derivation per period (no series access). Every store stays alive
  // until the last period is derived, so all of them stay charged. ---
  if (!budget.unlimited()) budget.TryCharge(store_bytes);
  MultiPeriodResult result;
  for (size_t r = 0; r < num_ranges; ++r) {
    MiningResult mined;
    PPM_RETURN_IF_ERROR(DeriveFromHitStore(
        f1[r], *stores[r], kinds[r], options.max_letters, pool.get(),
        interrupt, budget.unlimited() ? nullptr : &budget, &mined));
    result.per_period.emplace_back(per_period[r].period, std::move(mined));
  }
  result.total_scans = source.stats().scans - scans_before;
  span.End();
  result.elapsed_seconds = span.ElapsedSeconds();
  PPM_LOG(kDebug) << "multi-period shared mine (x" << threads << "): periods "
                  << period_low << ".." << period_high << " in "
                  << result.total_scans << " scans";
  return result;
}

}  // namespace ppm
