#ifndef PPM_CORE_HITSET_MINER_H_
#define PPM_CORE_HITSET_MINER_H_

#include "core/mining_options.h"
#include "core/mining_result.h"
#include "tsdb/series_source.h"
#include "util/status.h"

namespace ppm {

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
