#ifndef PPM_DIST_MERGER_H_
#define PPM_DIST_MERGER_H_

// Exact merge of per-shard results into the same pattern set a one-shot
// mine would produce. Letter counts and raw segment patterns are
// additive over disjoint segment ranges, so the merger:
//
//   1. cross-validates every shard result against the plan (fingerprint,
//      identity, range tiling, symbol-table agreement),
//   2. sums letter counts and derives the global `F_1` with the real
//      segment count `m` via `MiningOptions::EffectiveMinCount`,
//   3. projects each raw segment pattern onto the global letter space
//      (dropping projections with < 2 letters, exactly as scan 2 of the
//      one-shot miner does), and
//   4. reuses the batch miners' `DeriveFromHitStore` over the rebuilt
//      hit store.
//
// Steps 2-4 are the one-shot pipeline itself, just fed from merged
// counts -- the exactness argument in docs/DISTRIBUTED.md. Any
// validation failure is a refusal (`kCorruption`), never a best-effort
// merge.

#include <cstdint>
#include <string>
#include <vector>

#include "core/mining_result.h"
#include "dist/shard_plan.h"
#include "dist/shard_result.h"
#include "tsdb/symbol_table.h"
#include "util/status.h"

namespace ppm::dist {

/// Merged output for one plan input.
struct MergedInput {
  uint32_t input_index = 0;
  std::string path;
  tsdb::SymbolTable symbols;
  MiningResult result;
  /// Segments actually covered by merged shards (== the input's segment
  /// count unless the merge is partial).
  uint64_t segments_covered = 0;
  /// Segment ranges of shards that were missing (partial merges only).
  std::vector<ShardSpec> missing;

  bool partial() const { return !missing.empty(); }
};

struct MergeOutcome {
  std::vector<MergedInput> inputs;
  uint32_t shards_merged = 0;
  uint32_t shards_missing = 0;
};

/// Merges `results` (any order; one entry per completed shard) under
/// `plan`. With `allow_partial` false every plan shard must be present;
/// with it true, missing shards degrade the affected input to a partial
/// result whose counts and confidences are exact over the covered
/// segments (`m` = covered count), with the gaps reported in `missing`.
/// Duplicate or cross-validation-failing results are `kCorruption`.
Result<MergeOutcome> MergeShardResults(const ShardPlan& plan,
                                       const std::vector<ShardResult>& results,
                                       bool allow_partial);

/// Convenience: reads every plan shard's result file from `results_dir`
/// (missing files allowed only under `allow_partial`; corrupt files are
/// always a refusal) and merges.
Result<MergeOutcome> MergeFromDir(const ShardPlan& plan,
                                  const std::string& results_dir,
                                  bool allow_partial);

}  // namespace ppm::dist

#endif  // PPM_DIST_MERGER_H_
