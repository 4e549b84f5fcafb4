#ifndef PPM_CORE_MULTI_PERIOD_H_
#define PPM_CORE_MULTI_PERIOD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/mining_options.h"
#include "core/mining_result.h"
#include "tsdb/series_source.h"
#include "util/status.h"

namespace ppm {

/// Frequent patterns for every period in a requested range.
struct MultiPeriodResult {
  /// One entry per period, ascending: `(period, patterns of that period)`.
  std::vector<std::pair<uint32_t, MiningResult>> per_period;
  /// Scans of the series across the whole run. Streamed (`num_threads`
  /// 1): `2 * k` for the looped method, 2 for the shared method. Sharded
  /// (`num_threads > 1`): 1 for both, the one materializing scan.
  uint64_t total_scans = 0;
  double elapsed_seconds = 0.0;

  /// The result for `period`, or null when outside the mined range.
  const MiningResult* ForPeriod(uint32_t period) const;
};

/// Algorithm 3.3: mines each period in `[period_low, period_high]` by an
/// independent run of the max-subpattern hit-set miner (2 scans per period,
/// or one task per period over the series materialized once when
/// `num_threads > 1`). `options.period` is ignored; other fields apply to
/// every period and are validated for each before the series is read.
Result<MultiPeriodResult> MineMultiPeriodLooped(tsdb::SeriesSource& source,
                                                uint32_t period_low,
                                                uint32_t period_high,
                                                const MiningOptions& options);

/// Algorithm 3.4: shared mining of all periods in the range with exactly two
/// scans of the series in total -- scan 1 accumulates per-period `F_1`
/// counts, scan 2 feeds every period's hit store simultaneously. One
/// `options.memory_budget_bytes` covers all periods' stores together.
Result<MultiPeriodResult> MineMultiPeriodShared(tsdb::SeriesSource& source,
                                                uint32_t period_low,
                                                uint32_t period_high,
                                                const MiningOptions& options);

}  // namespace ppm

#endif  // PPM_CORE_MULTI_PERIOD_H_
