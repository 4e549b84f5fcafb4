#include "core/hit_store.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ppm {

VerticalHitStore::VerticalHitStore(uint32_t num_letters)
    : num_letters_(num_letters),
      words_counter_(obs::MetricsRegistry::Global().GetCounter(
          "ppm.hit_store.words_scanned")) {}

void VerticalHitStore::WidenColumns() {
  const size_t stride = column_words_ == 0 ? 1 : 2 * column_words_;
  std::vector<uint64_t> words(size_t{num_letters_} * stride, 0);
  for (uint32_t letter = 0; letter < num_letters_; ++letter) {
    std::copy_n(Column(letter), column_words_, words.data() + letter * stride);
  }
  words_ = std::move(words);
  column_words_ = stride;
}

void VerticalHitStore::AddHits(const Bitset& mask, uint64_t count) {
  if (count == 0) return;
  const auto [it, inserted] = index_.try_emplace(mask, 0);
  if (inserted) {
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(masks_.size());
      masks_.emplace_back();
      counts_.push_back(0);
      if (slot / 64 == column_words_) WidenColumns();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    masks_[slot] = mask;
    mask.ForEach([this, slot](uint32_t letter) {
      PPM_CHECK(letter < num_letters_);
      Column(letter)[slot / 64] |= uint64_t{1} << (slot % 64);
    });
    it->second = slot;
  }
  counts_[it->second] += count;
  total_count_ += count;
}

void VerticalHitStore::RemoveHits(const Bitset& mask, uint64_t count) {
  if (count == 0) return;
  const auto it = index_.find(mask);
  PPM_CHECK(it != index_.end() && counts_[it->second] >= count);
  const uint32_t slot = it->second;
  counts_[slot] -= count;
  total_count_ -= count;
  if (counts_[slot] > 0) return;
  masks_[slot].ForEach([this, slot](uint32_t letter) {
    Column(letter)[slot / 64] &= ~(uint64_t{1} << (slot % 64));
  });
  masks_[slot] = Bitset();
  free_slots_.push_back(slot);
  index_.erase(it);
}

void VerticalHitStore::ForEachHit(
    const std::function<void(const Bitset&, uint64_t)>& fn) const {
  for (size_t slot = 0; slot < masks_.size(); ++slot) {
    if (counts_[slot] > 0) fn(masks_[slot], counts_[slot]);
  }
}

uint64_t VerticalHitStore::CountSuperpatterns(const Bitset& mask) const {
  if (mask.Empty()) return total_count_;
  const uint32_t num_query_letters = mask.Count();
  const uint64_t* stack_columns[kStackLetters];
  std::vector<const uint64_t*> heap_columns;
  const uint64_t** columns = stack_columns;
  if (num_query_letters > kStackLetters) {
    heap_columns.resize(num_query_letters);
    columns = heap_columns.data();
  }
  uint32_t n = 0;
  bool outside = false;
  mask.ForEach([&](uint32_t letter) {
    if (letter < num_letters_) {
      columns[n++] = Column(letter);
    } else {
      outside = true;  // No stored hit holds a letter outside the space.
    }
  });
  if (outside) return 0;

  const size_t num_words = (masks_.size() + 63) / 64;
  words_counter_.Inc(num_words * n);
  uint64_t total = 0;
  for (size_t word = 0; word < num_words; ++word) {
    uint64_t bits = columns[0][word];
    for (uint32_t i = 1; i < n && bits != 0; ++i) bits &= columns[i][word];
    while (bits != 0) {
      const uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(bits));
      total += counts_[word * 64 + bit];
      bits &= bits - 1;
    }
  }
  return total;
}

uint64_t VerticalHitStore::ApproxMemoryBytes() const {
  // Every live mask's words are held twice: by its slot and by its index key.
  uint64_t mask_words = 0;
  for (const Bitset& mask : masks_) {
    mask_words += mask.ApproxMemoryBytes() - sizeof(Bitset);
  }
  uint64_t total = sizeof(VerticalHitStore) + 2 * mask_words;
  // Index: one heap node per entry (key, slot, chain link, cached hash),
  // plus the bucket array.
  total += index_.size() * (sizeof(Bitset) + 24) +
           index_.bucket_count() * sizeof(void*);
  total += masks_.capacity() * sizeof(Bitset) +
           counts_.capacity() * sizeof(uint64_t) +
           free_slots_.capacity() * sizeof(uint32_t);
  total += words_.capacity() * sizeof(uint64_t);
  return total;
}

std::unique_ptr<HitStore> MakeHitStore(HitStoreKind kind,
                                       const Bitset& full_mask,
                                       uint32_t num_letters) {
  switch (kind) {
    case HitStoreKind::kMaxSubpatternTree:
      return std::make_unique<TreeHitStore>(full_mask, num_letters);
    case HitStoreKind::kVertical:
      return std::make_unique<VerticalHitStore>(num_letters);
  }
  return std::make_unique<VerticalHitStore>(num_letters);
}

}  // namespace ppm
