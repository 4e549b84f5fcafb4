#ifndef PPM_CORE_LETTER_COUNTS_H_
#define PPM_CORE_LETTER_COUNTS_H_

#include <cstdint>
#include <vector>

#include "core/letter_space.h"
#include "tsdb/time_series.h"

namespace ppm {

/// Exact occurrence counts of the (position, feature) letters of one period:
/// the tally behind Step 1 of Algorithms 3.2-3.4, the dist shard counts,
/// and the streaming drift counts.
///
/// One row per period position, one dense `uint64_t` cell per feature id.
/// A row grows only to the largest id seen at its position, so a table over
/// a series of `|Σ|` symbols never exceeds `BoundBytes(period, |Σ|)`.
/// Feature ids must therefore be bounded by the caller's symbol table: a
/// row is as wide as the largest id ever added to it.
class LetterCounts {
 public:
  explicit LetterCounts(uint32_t period) : rows_(period) {}

  uint32_t period() const { return static_cast<uint32_t>(rows_.size()); }

  /// Counts every feature of `features` once at `position` (< `period()`).
  void Add(uint32_t position, const tsdb::FeatureSet& features) {
    const uint32_t last = features.FindLast();
    if (last == Bitset::kNoBit) return;
    std::vector<uint64_t>& row = rows_[position];
    if (last >= row.size()) Grow(row, last);
    features.ForEach([&row](uint32_t feature) { ++row[feature]; });
  }

  /// Adds `count` occurrences of `letter` (position < `period()`).
  void Add(const Letter& letter, uint64_t count);

  /// Withdraws `count` occurrences of `letter`, which must have at least
  /// that many. A letter withdrawn to zero is gone from `ForEachNonZero`.
  void Remove(const Letter& letter, uint64_t count);

  /// Adds every count of `other`, a table of the same period.
  void Merge(const LetterCounts& other);

  /// Count of `letter`; 0 when never added.
  uint64_t count(const Letter& letter) const;

  /// Invokes `fn(letter, count)` for every letter with a nonzero count, in
  /// ascending (position, feature) order -- the canonical letter order.
  template <typename Fn>
  void ForEachNonZero(Fn&& fn) const {
    for (uint32_t position = 0; position < rows_.size(); ++position) {
      const std::vector<uint64_t>& row = rows_[position];
      for (uint32_t feature = 0; feature < row.size(); ++feature) {
        if (row[feature] != 0) fn(Letter{position, feature}, row[feature]);
      }
    }
  }

  /// Heap bytes held: the row headers plus every row's real capacity.
  uint64_t ApproxMemoryBytes() const;

  /// The most `ApproxMemoryBytes` can reach for `period` positions over
  /// feature ids below `num_symbols`: what a scan must budget before it
  /// allocates its table.
  static uint64_t BoundBytes(uint32_t period, uint64_t num_symbols);

  /// Equal when every letter has the same count, whatever the row widths.
  friend bool operator==(const LetterCounts& a, const LetterCounts& b);

 private:
  /// Widens `row` to hold `feature`, to exactly `feature + 1` cells.
  static void Grow(std::vector<uint64_t>& row, uint32_t feature);

  std::vector<std::vector<uint64_t>> rows_;
};

}  // namespace ppm

#endif  // PPM_CORE_LETTER_COUNTS_H_
