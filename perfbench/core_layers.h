#ifndef PPM_PERFBENCH_CORE_LAYERS_H_
#define PPM_PERFBENCH_CORE_LAYERS_H_

#include <cstdint>

#include "core/mining_options.h"
#include "core/mining_result.h"
#include "obs/trace.h"
#include "tsdb/time_series.h"

namespace ppm::perfbench {

/// Where the time of traced hit-set mines went, summed over the mines.
struct CoreLayerTotals {
  uint64_t mines = 0;
  uint64_t mine_ns = 0;
  uint64_t f1_scan_ns = 0;
  uint64_t second_scan_ns = 0;
  uint64_t derive_ns = 0;
  /// Part of `derive_ns` spent inside `CountSuperpatterns`.
  uint64_t count_ns = 0;
  uint64_t segments = 0;
  uint64_t count_queries = 0;
  /// `ppm.tree.query_node_visits` over the count queries.
  uint64_t node_visits = 0;
  uint64_t candidates = 0;
};

/// Algorithm 3.2 at one thread, performed through the core layer's public
/// calls in the order `MineHitSet` makes them -- `ScanForF1`, then a second
/// scan with `LetterSpace::AccumulatePosition` and `HitStore::AddHit` per
/// segment, then `DeriveFrequentPatterns` with a timed count function --
/// so each layer's time is measured from outside the program. Spans go to
/// `tracer`; times and counts add into `totals`. The result is
/// canonicalized, so it compares directly with `MineHitSet`'s.
MiningResult TracedMineHitSet(const tsdb::TimeSeries& series,
                              const MiningOptions& options,
                              obs::Tracer* tracer,
                              CoreLayerTotals* totals);

}  // namespace ppm::perfbench

#endif  // PPM_PERFBENCH_CORE_LAYERS_H_
