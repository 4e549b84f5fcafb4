#ifndef PPM_CORE_F1_SCAN_H_
#define PPM_CORE_F1_SCAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/letter_counts.h"
#include "core/letter_space.h"
#include "core/mining_options.h"
#include "tsdb/series_source.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppm {

/// Output of the first scan (Step 1 of Algorithms 3.1 and 3.2): the frequent
/// 1-patterns `F_1` with their exact counts, packaged as a `LetterSpace`
/// whose full mask is the candidate max-pattern `C_max`.
struct F1ScanResult {
  /// Number of whole periods `m`.
  uint64_t num_periods = 0;
  /// The count threshold applied (see `MiningOptions::EffectiveMinCount`).
  uint64_t min_count = 0;
  /// Canonical indexing of the frequent letters.
  LetterSpace space{0, {}};
  /// Exact frequency count of each letter, indexed like `space`.
  std::vector<uint64_t> letter_counts;
};

/// Thresholds and filters a finished count table (of period
/// `options.period`, counted over `num_periods` whole segments) into an
/// `F1ScanResult`. Records no database pass: the caller accounts for the
/// scan that filled `counts`.
F1ScanResult FinishF1(const LetterCounts& counts, const MiningOptions& options,
                      uint64_t num_periods);

/// What scan 1 leaves behind for the scan that follows it.
struct F1Scans {
  /// `F_1` of each period, in the order of the requested periods.
  std::vector<F1ScanResult> f1;
  /// The walked prefix, read once when the walk is sharded; empty when the
  /// series was streamed.
  std::vector<tsdb::FeatureSet> instants;
  /// The workers of a sharded walk; null when the series was streamed.
  std::unique_ptr<ThreadPool> pool;
};

/// Scan 1 of Algorithm 3.4 over the periods of `per_period` (one period
/// is Algorithm 3.2's scan 1): one walk of `source` counts each (position,
/// feature) letter of every period over its whole segments, then keeps
/// the letters that meet that period's threshold and `letter_filter`.
///
/// `per_period` must be non-empty, ascending by period and validated
/// against the series length; they differ only in `period`. The walk stops
/// after the last whole segment of the longest covered period,
/// `max_r(m_r * p_r)` instants. With `num_threads` resolving to one worker
/// the walk streams the source; with more, it materializes that prefix
/// once and counts each period sharded over whole segments
/// (`BuildF1FromInstants`), with identical counts. Fails on source I/O
/// errors, on interruption, or with `kResourceExhausted` before the walk
/// when the count tables alive at once exceed `memory_budget_bytes`.
Result<F1Scans> ScanPeriodsForF1(tsdb::SeriesSource& source,
                                 const std::vector<MiningOptions>& per_period);

/// `ScanPeriodsForF1` for the one period `options.period`, after
/// validating `options` against the source length.
Result<F1ScanResult> ScanForF1(tsdb::SeriesSource& source,
                               const MiningOptions& options);

/// Core of the first scan over already-materialized instants: counts
/// letters over the `instants.size() / options.period` whole segments and
/// applies the threshold and `options.letter_filter`.
///
/// When `pool` is non-null its workers each count a private table over a
/// contiguous shard of segments; the tables are summed on the calling
/// thread in chunk order, making the result identical to a sequential
/// count. `options` must already be validated against the series length.
F1ScanResult BuildF1FromInstants(const std::vector<tsdb::FeatureSet>& instants,
                                 const MiningOptions& options,
                                 ThreadPool* pool = nullptr);

}  // namespace ppm

#endif  // PPM_CORE_F1_SCAN_H_
