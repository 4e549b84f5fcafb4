#include "core/multi_period.h"

#include <algorithm>
#include <utility>

#include "core/derivation.h"
#include "core/fault_metrics.h"
#include "core/hitset_miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/materialize.h"
#include "tsdb/series_source.h"
#include "util/log.h"
#include "util/memory_budget.h"
#include "util/thread_pool.h"

namespace ppm {

namespace {

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
    series.symbols() = source.symbols();
    for (tsdb::FeatureSet& instant : instants) {
      series.Append(std::move(instant));
    }
    ThreadPool pool(threads);
    obs::MetricsRegistry::Global().GetGauge("ppm.parallel.threads")
        .Set(pool.size());
    // Up to one task per worker runs at once, each holding its own tables
    // and store: split the budget between them.
    const uint64_t concurrent = std::min<uint64_t>(pool.size(), num_ranges);
    const uint64_t task_budget =
        options.memory_budget_bytes == 0
            ? 0
            : std::max<uint64_t>(1, options.memory_budget_bytes / concurrent);
    for (size_t r = 0; r < num_ranges; ++r) {
      mined.emplace_back(Status::Internal("period task never ran"));
      per_period[r].num_threads = 1;
      per_period[r].memory_budget_bytes = task_budget;
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
  const uint64_t scans_before = source.stats().scans;
  PPM_ASSIGN_OR_RETURN(const HitSetScans scans, ScanHitSet(source, per_period));

  // Derivation per period (no series access). Every store stays alive
  // until the last period is derived, so all of them stay charged.
  MemoryBudget budget(options.memory_budget_bytes);
  if (!budget.unlimited()) budget.TryCharge(scans.store_bytes);
  MultiPeriodResult result;
  for (size_t r = 0; r < per_period.size(); ++r) {
    const PeriodHitSet& scanned = scans.periods[r];
    MiningResult mined;
    PPM_RETURN_IF_ERROR(DeriveFromHitStore(
        scanned.f1, *scanned.store, scanned.store_kind, options.max_letters,
        scans.pool.get(), options.interrupt(),
        budget.unlimited() ? nullptr : &budget, &mined));
    result.per_period.emplace_back(per_period[r].period, std::move(mined));
  }
  result.total_scans = source.stats().scans - scans_before;
  span.End();
  result.elapsed_seconds = span.ElapsedSeconds();
  PPM_LOG(kDebug) << "multi-period shared mine (x"
                  << (scans.pool == nullptr ? 1 : scans.pool->size())
                  << "): periods " << period_low << ".." << period_high
                  << " in "
                  << result.total_scans << " scans";
  return result;
}

}  // namespace ppm
