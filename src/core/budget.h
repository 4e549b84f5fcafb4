#ifndef PPM_CORE_BUDGET_H_
#define PPM_CORE_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/mining_options.h"
#include "util/status.h"

namespace ppm {

/// Property 3.2's cap on the number of distinct max-subpatterns the second
/// scan can store: `|H| <= min(m, 2^{n_d} - n_d - 1)` for `m` whole periods
/// and `n_d = |F_1|` letters (subpatterns with >= 2 letters only).
/// Saturates instead of overflowing for large `num_letters`; 0 when fewer
/// than 2 letters exist (nothing is ever stored).
uint64_t HitSetUpperBound(uint64_t num_periods, uint64_t num_letters);

/// Approximate worst-case bytes a hit store of `kind` needs to hold
/// `entries` distinct masks over `num_letters` letters. Deliberately
/// pessimistic (tree interior nodes, vector growth slack) so a prediction
/// that fits the budget really fits.
uint64_t PredictHitStoreBytes(HitStoreKind kind, uint64_t entries,
                              uint32_t num_letters);

/// The pre-scan budget decision for the hit-set miners.
struct BudgetDecision {
  /// Store to build (may differ from the requested kind after degradation).
  HitStoreKind store = HitStoreKind::kMaxSubpatternTree;
  /// Predicted worst-case bytes of the chosen store.
  uint64_t predicted_bytes = 0;
  /// True when the budget forced a fallback from the requested kind.
  bool degraded = false;
};

/// Applies `options.memory_budget_bytes` / `options.budget_policy` to the
/// Property 3.2 prediction *before* the second scan: returns the store to
/// build, possibly degraded from the tree to the vertical store (identical
/// patterns), or
/// `kResourceExhausted` when no permitted store fits. `reserved_bytes` is
/// the part of the budget already promised to other stores of the same run
/// (the earlier periods of a shared multi-period mine); the store must fit
/// in what is left. Increments the `ppm.fault.budget_denials` /
/// `ppm.fault.degradations` metrics.
Result<BudgetDecision> DecideHitStore(const MiningOptions& options,
                                      uint64_t num_periods,
                                      uint32_t num_letters,
                                      uint64_t reserved_bytes = 0);

/// Applies `options.memory_budget_bytes` to scan 1's letter-count tables
/// before they are allocated. `table_bytes` bounds every table alive at
/// once (`LetterCounts::BoundBytes` each); the tables are gone before the
/// hit stores are built, so they are checked on their own. Returns
/// `kResourceExhausted` and records a budget denial when they do not fit.
Status CheckLetterCountsBudget(const MiningOptions& options,
                               uint64_t table_bytes);

/// Segments registered between the second scan's interrupt and live-budget
/// polls.
inline constexpr uint64_t kScanCheckStride = 1024;

/// The live budget check failing during the second scan: the hit stores
/// grew to `bytes`, past `limit` (the pre-scan prediction is pessimistic,
/// so this fires only when the prediction itself was beaten). Records a
/// budget denial.
Status HitStoreOverBudget(uint64_t bytes, uint64_t limit);

/// Live store bytes of a sharded second scan. Each worker fills private
/// stores that no other worker may read, so it publishes their bytes into
/// its own slot, and the budget is checked against the sum of all slots.
class LiveStoreBytes {
 public:
  explicit LiveStoreBytes(uint32_t workers) : slots_(workers) {}

  /// Publishes `bytes` for `worker`; true once the sum over all workers
  /// has exceeded `limit`, and from then on for every worker.
  bool Publish(uint32_t worker, uint64_t bytes, uint64_t limit) {
    slots_[worker] = bytes;
    if (total() > limit) over_ = true;
    return over_;
  }

  bool over() const { return over_; }

  uint64_t total() const {
    uint64_t sum = 0;
    for (const auto& slot : slots_) sum += slot;
    return sum;
  }

 private:
  std::vector<std::atomic<uint64_t>> slots_;
  std::atomic<bool> over_{false};
};

}  // namespace ppm

#endif  // PPM_CORE_BUDGET_H_
