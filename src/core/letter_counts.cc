#include "core/letter_counts.h"

#include <algorithm>

#include "util/check.h"

namespace ppm {

void LetterCounts::Grow(std::vector<uint64_t>& row, uint32_t feature) {
  const size_t width = size_t{feature} + 1;
  // `reserve` allocates exactly `width`, so capacity tracks the largest id
  // seen instead of a geometric growth step.
  row.reserve(width);
  row.resize(width, 0);
}

void LetterCounts::Add(const Letter& letter, uint64_t count) {
  std::vector<uint64_t>& row = rows_[letter.position];
  if (letter.feature >= row.size()) Grow(row, letter.feature);
  row[letter.feature] += count;
}

void LetterCounts::Remove(const Letter& letter, uint64_t count) {
  std::vector<uint64_t>& row = rows_[letter.position];
  PPM_DCHECK(letter.feature < row.size() && row[letter.feature] >= count);
  if (letter.feature < row.size()) row[letter.feature] -= count;
}

void LetterCounts::Merge(const LetterCounts& other) {
  PPM_DCHECK(other.period() == period());
  for (uint32_t position = 0; position < other.rows_.size(); ++position) {
    const std::vector<uint64_t>& from = other.rows_[position];
    if (from.empty()) continue;
    std::vector<uint64_t>& into = rows_[position];
    if (from.size() > into.size()) {
      Grow(into, static_cast<uint32_t>(from.size() - 1));
    }
    for (size_t feature = 0; feature < from.size(); ++feature) {
      into[feature] += from[feature];
    }
  }
}

uint64_t LetterCounts::count(const Letter& letter) const {
  if (letter.position >= rows_.size()) return 0;
  const std::vector<uint64_t>& row = rows_[letter.position];
  return letter.feature < row.size() ? row[letter.feature] : 0;
}

uint64_t LetterCounts::ApproxMemoryBytes() const {
  uint64_t bytes = rows_.capacity() * sizeof(std::vector<uint64_t>);
  for (const std::vector<uint64_t>& row : rows_) {
    bytes += row.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

uint64_t LetterCounts::BoundBytes(uint32_t period, uint64_t num_symbols) {
  return uint64_t{period} *
         (sizeof(std::vector<uint64_t>) + num_symbols * sizeof(uint64_t));
}

bool operator==(const LetterCounts& a, const LetterCounts& b) {
  if (a.period() != b.period()) return false;
  for (uint32_t position = 0; position < a.rows_.size(); ++position) {
    const std::vector<uint64_t>& x = a.rows_[position];
    const std::vector<uint64_t>& y = b.rows_[position];
    const std::vector<uint64_t>& wider = x.size() >= y.size() ? x : y;
    const size_t common = std::min(x.size(), y.size());
    if (!std::equal(x.begin(), x.begin() + common, y.begin())) return false;
    if (std::any_of(wider.begin() + common, wider.end(),
                    [](uint64_t count) { return count != 0; })) {
      return false;
    }
  }
  return true;
}

}  // namespace ppm
