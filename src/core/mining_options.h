#ifndef PPM_CORE_MINING_OPTIONS_H_
#define PPM_CORE_MINING_OPTIONS_H_

#include <cstdint>
#include <functional>

#include "tsdb/symbol_table.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ppm {

/// Backing store for period-segment hits in the max-subpattern hit-set miner
/// (Algorithm 3.2). The tree is the paper's data structure (Section 4),
/// kept as the ablation baseline of `bench_ablation_hit_store`; the
/// vertical bitmap store answers the same counts faster and is the default.
/// The values are persisted in checkpoints.
enum class HitStoreKind {
  kMaxSubpatternTree = 0,
  kVertical = 1,
};

/// What a miner does when the predicted or observed working set exceeds
/// `MiningOptions::memory_budget_bytes` (docs/ROBUSTNESS.md).
enum class BudgetPolicy {
  /// Return `kResourceExhausted` without starting the oversized phase.
  kFail = 0,
  /// Degrade a tree hit store to the smaller vertical store (identical
  /// patterns) and fail only if even that does not fit.
  kDegrade = 1,
};

/// Parameters shared by all single-period miners.
struct MiningOptions {
  /// Period `p` of the patterns to mine. Must be in `[1, series length]`.
  uint32_t period = 0;

  /// Confidence threshold `min_conf` in `(0, 1]`. A pattern is frequent when
  /// `count / m >= min_confidence` (`m` = number of whole periods).
  double min_confidence = 0.5;

  /// When nonzero, overrides `min_confidence` with an absolute frequency
  /// count threshold.
  uint64_t min_count = 0;

  /// Upper bound on the number of letters in reported patterns (0 means
  /// unlimited). Mining stops after this level; useful to bound cost when
  /// only short patterns are of interest.
  uint32_t max_letters = 0;

  /// Hit store used by the hit-set miner; ignored by other miners.
  HitStoreKind hit_store = HitStoreKind::kVertical;

  /// Worker threads for the hit-set and multi-period miners. 1 (the
  /// default) runs the exact sequential code paths; 0 means "use the
  /// hardware concurrency"; anything larger shards the scans, the
  /// derivation, and the per-period loop across a thread pool (see
  /// docs/PARALLELISM.md). Mined patterns and counts are identical at any
  /// thread count; scan accounting differs (sharded runs materialize the
  /// series once instead of re-scanning it). Ignored by the reference
  /// (naive/apriori) miners.
  uint32_t num_threads = 1;

  /// Cooperative cancellation: miners poll this token at segment / level
  /// granularity and return `kCancelled` when it fires. Copies of the
  /// options share the token, so cancelling the original stops every
  /// per-period task spawned from it. The CLI wires SIGINT to this.
  CancelToken cancel;

  /// Wall-clock deadline for the whole mining call; `kDeadlineExceeded`
  /// when it passes mid-run. Default: no deadline.
  Deadline deadline;

  /// Byte cap on the run's dominant data structures (hit store + candidate
  /// tables), enforced via Property 3.2's hit-set bound before the second
  /// scan and by live accounting afterwards. 0 means unlimited.
  uint64_t memory_budget_bytes = 0;

  /// Reaction to a predicted or observed budget overrun.
  BudgetPolicy budget_policy = BudgetPolicy::kDegrade;

  /// The token + deadline as one checkable handle.
  Interrupt interrupt() const { return Interrupt(cancel, deadline); }

  /// Optional restriction of the candidate letters considered after the
  /// first scan: a letter `(position, feature)` participates only when this
  /// returns true. Used by the multi-level drill-down miner to confine the
  /// search to children of patterns frequent at the coarser level. Null
  /// means "no restriction".
  std::function<bool(uint32_t position, tsdb::FeatureId feature)> letter_filter;

  /// Validates thresholds against a series of `series_length` instants.
  Status Validate(uint64_t series_length) const;

  /// The frequency-count threshold actually applied given `num_periods`
  /// whole periods: `min_count` when set, otherwise
  /// `ceil(min_confidence * num_periods)`, and never less than 1.
  uint64_t EffectiveMinCount(uint64_t num_periods) const;
};

}  // namespace ppm

#endif  // PPM_CORE_MINING_OPTIONS_H_
