#include "core/budget.h"

#include <string>

#include "obs/metrics.h"
#include "util/log.h"

namespace ppm {

uint64_t HitSetUpperBound(uint64_t num_periods, uint64_t num_letters) {
  if (num_letters < 2) return 0;
  // 2^{n_d} - n_d - 1 saturates once n_d reaches 63; min() with m keeps the
  // result meaningful anyway (m is the real cap for long series).
  if (num_letters >= 63) return num_periods;
  const uint64_t lattice = (uint64_t{1} << num_letters) - num_letters - 1;
  return num_periods < lattice ? num_periods : lattice;
}

uint64_t PredictHitStoreBytes(HitStoreKind kind, uint64_t entries,
                              uint32_t num_letters) {
  const uint64_t mask_bytes = ((uint64_t{num_letters} + 63) / 64) * 8;
  switch (kind) {
    case HitStoreKind::kMaxSubpatternTree: {
      // Registering a hit can allocate interior nodes along its path of
      // missing letters, so nodes can outnumber distinct hits; budget two
      // nodes per entry plus per-node mask storage and child links.
      const uint64_t per_node = 96 + mask_bytes;
      return 2 * entries * per_node;
    }
    case HitStoreKind::kVertical: {
      // Per slot: its index entry (heap node, key words, buckets), its mask
      // and count, a free-list entry, and one bit in every letter's column.
      // Vector growth and the column stride can double each per-slot
      // array, so those are counted twice. Fixed: the store itself plus
      // each column's partial last word.
      const uint64_t index_entry = 72 + mask_bytes;
      const uint64_t mask = 2 * 24 + mask_bytes;
      const uint64_t count = 2 * 8;
      const uint64_t free_slot = 2 * 4;
      const uint64_t column_bits = 2 * ((uint64_t{num_letters} + 7) / 8);
      const uint64_t per_entry =
          index_entry + mask + count + free_slot + column_bits;
      return 256 + uint64_t{num_letters} * 8 + entries * per_entry;
    }
  }
  return 0;
}

Result<BudgetDecision> DecideHitStore(const MiningOptions& options,
                                      uint64_t num_periods,
                                      uint32_t num_letters,
                                      uint64_t reserved_bytes) {
  BudgetDecision decision;
  decision.store = options.hit_store;

  const uint64_t bound = HitSetUpperBound(num_periods, num_letters);
  decision.predicted_bytes =
      PredictHitStoreBytes(options.hit_store, bound, num_letters);
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("ppm.budget.predicted_hits").Set(bound);
  registry.GetGauge("ppm.budget.predicted_bytes").Set(decision.predicted_bytes);

  const uint64_t limit = options.memory_budget_bytes;
  const uint64_t available =
      reserved_bytes < limit ? limit - reserved_bytes : 0;
  if (limit == 0 || decision.predicted_bytes <= available) return decision;

  if (options.budget_policy == BudgetPolicy::kDegrade &&
      options.hit_store == HitStoreKind::kMaxSubpatternTree) {
    const uint64_t vertical_bytes =
        PredictHitStoreBytes(HitStoreKind::kVertical, bound, num_letters);
    if (vertical_bytes <= available) {
      decision.store = HitStoreKind::kVertical;
      decision.predicted_bytes = vertical_bytes;
      decision.degraded = true;
      registry.GetCounter("ppm.fault.degradations").Inc();
      PPM_LOG(kInfo) << "memory budget: degrading to vertical hit store ("
                     << vertical_bytes << " <= " << available
                     << " bytes predicted for |H| <= " << bound << ")";
      return decision;
    }
  }

  registry.GetCounter("ppm.fault.budget_denials").Inc();
  return Status::ResourceExhausted(
      "predicted hit-set of " + std::to_string(bound) + " entries (~" +
      std::to_string(decision.predicted_bytes) + " bytes) exceeds memory "
      "budget of " + std::to_string(limit) + " bytes" +
      (reserved_bytes > 0 ? " with " + std::to_string(reserved_bytes) +
                                " bytes reserved by earlier hit stores"
                          : ""));
}

Status CheckLetterCountsBudget(const MiningOptions& options,
                               uint64_t table_bytes) {
  const uint64_t limit = options.memory_budget_bytes;
  if (limit == 0 || table_bytes <= limit) return Status::OK();
  obs::MetricsRegistry::Global().GetCounter("ppm.fault.budget_denials").Inc();
  return Status::ResourceExhausted(
      "scan 1 letter-count tables of up to " + std::to_string(table_bytes) +
      " bytes exceed memory budget of " + std::to_string(limit) + " bytes");
}

Status HitStoreOverBudget(uint64_t bytes, uint64_t limit) {
  obs::MetricsRegistry::Global().GetCounter("ppm.fault.budget_denials").Inc();
  return Status::ResourceExhausted(
      "hit store grew to " + std::to_string(bytes) +
      " bytes, exceeding memory budget of " + std::to_string(limit) +
      " bytes during the second scan");
}

}  // namespace ppm
