#ifndef PPM_CORE_HITSET_MINER_H_
#define PPM_CORE_HITSET_MINER_H_

#include <memory>

#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/mining_options.h"
#include "core/mining_result.h"
#include "tsdb/series_source.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppm {

/// What the two scans of Algorithm 3.2 leave behind for the search that
/// follows them.
struct HitSetScans {
  /// Scan 1: `F_1` and the candidate max-pattern `C_max`.
  F1ScanResult f1;
  /// The store kind the budget decision chose for `store`.
  HitStoreKind store_kind = HitStoreKind::kVertical;
  /// Scan 2: the maximal hit subpattern of every whole segment.
  std::unique_ptr<HitStore> store;
  /// The workers of a materialized, sharded walk, for the search to reuse;
  /// null when the series was streamed.
  std::unique_ptr<ThreadPool> pool;
};

/// Scans 1 and 2 of Algorithm 3.2, the one body behind `MineHitSet` and
/// `MineMaximalHitSet`: validates `options`, finds `F_1`, decides the hit
/// store against `options.memory_budget_bytes` (Property 3.2), and
/// registers every whole segment's hit, re-checking the store's live bytes
/// against the budget as it grows. `options.num_threads` only chooses the walk: streamed from the
/// source once per scan, or materialized once (`stats().scans` is then 1)
/// and sharded over whole segments (docs/PARALLELISM.md). Records the
/// `ppm.hitset.*` metrics and both database passes.
Result<HitSetScans> ScanHitSet(tsdb::SeriesSource& source,
                               const MiningOptions& options);

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
