#ifndef PPM_CORE_HITSET_MINER_H_
#define PPM_CORE_HITSET_MINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/mining_options.h"
#include "core/mining_result.h"
#include "tsdb/series_source.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppm {

/// What the two scans leave behind for one period's search.
struct PeriodHitSet {
  /// Scan 1: `F_1` and the candidate max-pattern `C_max`.
  F1ScanResult f1;
  /// The store kind the budget decision chose for `store`.
  HitStoreKind store_kind = HitStoreKind::kVertical;
  /// Scan 2: the maximal hit subpattern of every whole segment.
  std::unique_ptr<HitStore> store;
};

/// What `ScanHitSet` leaves behind for the searches that follow it.
struct HitSetScans {
  /// One per requested period, in the same order.
  std::vector<PeriodHitSet> periods;
  /// The workers of a materialized, sharded walk, for the searches to
  /// reuse; null when the series was streamed.
  std::unique_ptr<ThreadPool> pool;
  /// Bytes of every period's store together once scan 2 finished.
  uint64_t store_bytes = 0;
};

/// Scans 1 and 2 of Algorithm 3.4 over the periods of `per_period`, the one
/// scan engine behind `MineHitSet` and `MineMaximalHitSet` (one period,
/// Algorithm 3.2) and `MineMultiPeriodShared`. `per_period` must be
/// non-empty, ascending by period, validated against the series length and
/// otherwise identical.
///
/// Finds every period's `F_1` in one walk (`ScanPeriodsForF1`), decides
/// each period's hit store against what `memory_budget_bytes` leaves after
/// the periods before it (Property 3.2; all the stores are alive
/// together), and registers every whole segment's hit of every period in a
/// second walk, re-checking the stores' live bytes against the budget as
/// they grow. Each walk stops after `max_r(m_r * p_r)` instants.
/// `num_threads` only chooses the walk: streamed from the source once per
/// scan, or materialized once (`stats().scans` is then 1) and sharded over
/// whole segments, worker `w` taking chunk `w` of every period's segments
/// (docs/PARALLELISM.md). Records the `ppm.hitset.*` metrics and the
/// database passes of docs/OBSERVABILITY.md.
Result<HitSetScans> ScanHitSet(tsdb::SeriesSource& source,
                               const std::vector<MiningOptions>& per_period);

/// Algorithm 3.2 (max-subpattern hit-set).
///
/// Exactly two scans of the series regardless of pattern length:
///  1. find the frequent 1-patterns `F_1` and form the candidate max-pattern
///     `C_max`;
///  2. for each whole period segment, compute its maximal hit subpattern of
///     `C_max` and register it in a hit store (the vertical bitmap store by
///     default, or the max-subpattern tree of Section 4 under
///     `HitStoreKind::kMaxSubpatternTree`).
/// The complete frequent pattern set is then derived from the hit counts
/// without touching the series again (Algorithm 4.2).
Result<MiningResult> MineHitSet(tsdb::SeriesSource& source,
                                const MiningOptions& options);

}  // namespace ppm

#endif  // PPM_CORE_HITSET_MINER_H_
