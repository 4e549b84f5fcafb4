#ifndef PPM_CORE_F1_SCAN_H_
#define PPM_CORE_F1_SCAN_H_

#include <cstdint>
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

/// Scans `source` once, counting each (position, feature) letter over whole
/// period segments, and keeps the letters whose count meets the threshold.
///
/// Honors `options.letter_filter` (filtered letters are dropped regardless
/// of count). Fails when `options` are invalid for the source length, on
/// source I/O errors, or with `kResourceExhausted` when the count tables'
/// bound exceeds `options.memory_budget_bytes`.
///
/// With `options.num_threads` resolving to more than one worker, the
/// covered prefix is materialized (still one scan) and the counting is
/// sharded over whole period segments; the letter counts -- and therefore
/// the resulting `F_1` -- are identical to the sequential scan.
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
