#ifndef PPM_CORE_HIT_STORE_H_
#define PPM_CORE_HIT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/max_subpattern_tree.h"
#include "core/mining_options.h"
#include "obs/metrics.h"
#include "util/bitset.h"

namespace ppm {

/// Storage for the max-subpattern hit set collected during the second scan
/// of Algorithm 3.2: a multiset of letter masks with two required queries --
/// add one hit, and total the hits that are superpatterns of a candidate.
///
/// Two implementations exist so the paper's tree can be ablated against a
/// vertical bitmap layout (DESIGN.md ablation 1).
class HitStore {
 public:
  virtual ~HitStore() = default;

  HitStore(const HitStore&) = delete;
  HitStore& operator=(const HitStore&) = delete;

  /// Registers one period segment whose maximal hit subpattern is `mask`.
  virtual void AddHit(const Bitset& mask) = 0;

  /// Registers `count` hits of `mask` at once (bulk form used by `Merge`).
  /// No-op when `count` is zero.
  virtual void AddHits(const Bitset& mask, uint64_t count) = 0;

  /// Withdraws `count` previously registered hits of `mask` -- the sliding
  /// window's eviction of an expired segment's contribution. The store must
  /// currently hold at least `count` hits of exactly `mask`; evicting a
  /// never-added mask is a caller bug (checked). No-op when `count` is zero.
  virtual void RemoveHits(const Bitset& mask, uint64_t count) = 0;

  /// Invokes `fn(mask, count)` for every distinct stored max-subpattern
  /// with a nonzero count.
  virtual void ForEachHit(
      const std::function<void(const Bitset&, uint64_t)>& fn) const = 0;

  /// Folds every hit of `other` into this store. The parallel second scan
  /// gives each worker a private store over its shard of period segments
  /// and merges them (in deterministic chunk order) once the workers join;
  /// `CountSuperpatterns` totals are additive, so the merged store answers
  /// exactly as a store fed sequentially. `other` may use a different
  /// backing (tree into vertical and vice versa).
  void Merge(const HitStore& other) {
    other.ForEachHit(
        [this](const Bitset& mask, uint64_t count) { AddHits(mask, count); });
  }

  /// Sum of hit counts over stored masks that are supersets of `mask`.
  /// Safe to call concurrently from multiple threads as long as no thread
  /// is mutating the store (the parallel derivation's usage).
  virtual uint64_t CountSuperpatterns(const Bitset& mask) const = 0;

  /// Number of distinct stored max-subpatterns (`|H|`).
  virtual uint64_t num_entries() const = 0;

  /// Allocated bookkeeping units (tree nodes, or vertical slots).
  virtual uint64_t num_units() const = 0;

  /// Approximate bytes of owned storage, for `MemoryBudget` accounting.
  virtual uint64_t ApproxMemoryBytes() const = 0;

 protected:
  HitStore() = default;
};

/// `HitStore` backed by the paper's max-subpattern tree.
class TreeHitStore : public HitStore {
 public:
  TreeHitStore(const Bitset& full_mask, uint32_t num_letters)
      : tree_(full_mask, num_letters) {}

  void AddHit(const Bitset& mask) override { tree_.Insert(mask); }
  void AddHits(const Bitset& mask, uint64_t count) override {
    tree_.Insert(mask, count);
  }
  void RemoveHits(const Bitset& mask, uint64_t count) override {
    tree_.Remove(mask, count);
  }
  void ForEachHit(const std::function<void(const Bitset&, uint64_t)>& fn)
      const override {
    tree_.ForEachNode([&fn](const Bitset& mask, uint64_t count) {
      if (count > 0) fn(mask, count);
    });
  }
  uint64_t CountSuperpatterns(const Bitset& mask) const override {
    return tree_.CountSuperpatterns(mask);
  }
  uint64_t num_entries() const override { return tree_.num_hits(); }
  uint64_t num_units() const override { return tree_.num_nodes(); }
  uint64_t ApproxMemoryBytes() const override {
    return tree_.ApproxMemoryBytes();
  }

  const MaxSubpatternTree& tree() const { return tree_; }

 private:
  MaxSubpatternTree tree_;
};

/// `HitStore` laid out vertically, as Eclat's tid-lists over the distinct
/// hits: every distinct mask owns a *slot*, and every letter owns a column
/// bitmap with bit `s` set when slot `s`'s mask contains that letter. A
/// candidate's count is the AND of its letters' columns, weighted by the
/// slot counts -- no tree walk and no per-entry subset test. Property 3.2
/// bounds the slots, hence every column, by `min(m, 2^{n_d} - n_d - 1)`.
class VerticalHitStore : public HitStore {
 public:
  explicit VerticalHitStore(uint32_t num_letters);

  void AddHit(const Bitset& mask) override { AddHits(mask, 1); }
  void AddHits(const Bitset& mask, uint64_t count) override;
  void RemoveHits(const Bitset& mask, uint64_t count) override;
  /// Visits live slots in slot order, so `Merge` and checkpoint order are
  /// deterministic for a fixed insertion history.
  void ForEachHit(const std::function<void(const Bitset&, uint64_t)>& fn)
      const override;
  uint64_t CountSuperpatterns(const Bitset& mask) const override;
  uint64_t num_entries() const override { return index_.size(); }
  /// Allocated slots, free ones included (a `Compact` rebuild drops those).
  uint64_t num_units() const override { return masks_.size(); }
  uint64_t ApproxMemoryBytes() const override;

  /// Query letters whose column pointers fit on the stack; larger queries
  /// spill to the heap. Each call owns its buffer, so concurrent queries
  /// share no mutable state.
  static constexpr uint32_t kStackLetters = 64;

 private:
  /// Doubles the column stride once the slots fill every column word.
  void WidenColumns();
  uint64_t* Column(uint32_t letter) {
    return words_.data() + letter * column_words_;
  }
  const uint64_t* Column(uint32_t letter) const {
    return words_.data() + letter * column_words_;
  }

  uint32_t num_letters_;
  // Mask -> slot; touched only when the multiset changes, never by queries.
  std::unordered_map<Bitset, uint32_t, BitsetHash> index_;
  // Per slot: its mask and count. A free slot has count 0 and no bits set
  // in any column.
  std::vector<Bitset> masks_;
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> free_slots_;
  // Letter l's column is words_[l * column_words_, (l + 1) * column_words_);
  // its bit s is set when slot s's mask contains l. One block for all
  // columns, whose stride doubles when the slots outgrow it.
  std::vector<uint64_t> words_;
  size_t column_words_ = 0;
  uint64_t total_count_ = 0;
  // Column words ANDed per query (`ppm.hit_store.words_scanned`), the
  // analogue of `ppm.tree.query_node_visits`.
  obs::Counter words_counter_;
};

/// Factory keyed on the `MiningOptions::hit_store` selector.
std::unique_ptr<HitStore> MakeHitStore(HitStoreKind kind,
                                       const Bitset& full_mask,
                                       uint32_t num_letters);

}  // namespace ppm

#endif  // PPM_CORE_HIT_STORE_H_
