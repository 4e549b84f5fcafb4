#ifndef PPM_CORE_BUDGET_H_
#define PPM_CORE_BUDGET_H_

#include <cstdint>

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
/// `kResourceExhausted` when no permitted store fits. Increments the
/// `ppm.fault.budget_denials` / `ppm.fault.degradations` metrics.
Result<BudgetDecision> DecideHitStore(const MiningOptions& options,
                                      uint64_t num_periods,
                                      uint32_t num_letters);

}  // namespace ppm

#endif  // PPM_CORE_BUDGET_H_
