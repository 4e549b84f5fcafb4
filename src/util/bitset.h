#ifndef PPM_UTIL_BITSET_H_
#define PPM_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppm {

/// A growable bitset over `uint32_t` indices.
///
/// Used both as a set of feature ids at one time instant and as a mask over
/// the letters of a candidate max-pattern. Unset trailing bits are implicit:
/// two bitsets compare equal iff they contain the same set bits, regardless
/// of internal capacity, and `Hash()` respects that.
class Bitset {
 public:
  Bitset() = default;

  /// Creates a bitset sized for indices `[0, num_bits)` (all clear).
  explicit Bitset(uint32_t num_bits) : words_((num_bits + 63) / 64, 0) {}

  Bitset(const Bitset&) = default;
  Bitset& operator=(const Bitset&) = default;
  Bitset(Bitset&&) noexcept = default;
  Bitset& operator=(Bitset&&) noexcept = default;

  /// Sets bit `index`, growing capacity if necessary.
  void Set(uint32_t index) {
    const size_t word = index >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= uint64_t{1} << (index & 63);
  }

  /// Clears bit `index` (no-op when beyond capacity).
  void Clear(uint32_t index) {
    const size_t word = index >> 6;
    if (word < words_.size()) words_[word] &= ~(uint64_t{1} << (index & 63));
  }

  /// Tests bit `index` (bits beyond capacity are clear).
  bool Test(uint32_t index) const {
    const size_t word = index >> 6;
    if (word >= words_.size()) return false;
    return (words_[word] >> (index & 63)) & 1;
  }

  /// Removes every set bit.
  void Reset() {
    for (uint64_t& w : words_) w = 0;
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Number of set bits.
  uint32_t Count() const {
    uint32_t count = 0;
    for (uint64_t w : words_) count += static_cast<uint32_t>(__builtin_popcountll(w));
    return count;
  }

  /// True iff every bit set in `*this` is also set in `other`.
  bool IsSubsetOf(const Bitset& other) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      const uint64_t other_word = i < other.words_.size() ? other.words_[i] : 0;
      if ((words_[i] & ~other_word) != 0) return false;
    }
    return true;
  }

  /// True iff `*this` and `other` share at least one set bit.
  bool Intersects(const Bitset& other) const {
    const size_t n = words_.size() < other.words_.size() ? words_.size()
                                                         : other.words_.size();
    for (size_t i = 0; i < n; ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  /// `*this |= other`.
  void UnionWith(const Bitset& other) {
    if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
    for (size_t i = 0; i < other.words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// `*this &= other`.
  void IntersectWith(const Bitset& other) {
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] &= i < other.words_.size() ? other.words_[i] : 0;
    }
  }

  /// `*this &= ~other`.
  void SubtractWith(const Bitset& other) {
    const size_t n = words_.size() < other.words_.size() ? words_.size()
                                                         : other.words_.size();
    for (size_t i = 0; i < n; ++i) words_[i] &= ~other.words_[i];
  }

  /// Index of the lowest set bit, or `kNoBit` when empty.
  static constexpr uint32_t kNoBit = UINT32_MAX;
  uint32_t FindFirst() const { return FindNext(0); }

  /// Index of the lowest set bit at or above `from`, or `kNoBit`.
  uint32_t FindNext(uint32_t from) const {
    size_t word = from >> 6;
    if (word >= words_.size()) return kNoBit;
    uint64_t w = words_[word] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (w != 0) {
        return static_cast<uint32_t>(word * 64 + __builtin_ctzll(w));
      }
      if (++word >= words_.size()) return kNoBit;
      w = words_[word];
    }
  }

  /// Index of the highest set bit, or `kNoBit` when empty.
  uint32_t FindLast() const {
    for (size_t word = words_.size(); word > 0; --word) {
      const uint64_t w = words_[word - 1];
      if (w != 0) {
        return static_cast<uint32_t>((word - 1) * 64 + 63 -
                                     __builtin_clzll(w));
      }
    }
    return kNoBit;
  }

  /// Invokes `fn(index)` for every set bit, in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t word = 0; word < words_.size(); ++word) {
      uint64_t w = words_[word];
      while (w != 0) {
        const uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(w));
        fn(static_cast<uint32_t>(word * 64 + bit));
        w &= w - 1;
      }
    }
  }

  /// All set bit indices, ascending.
  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> out;
    out.reserve(Count());
    ForEach([&out](uint32_t index) { out.push_back(index); });
    return out;
  }

  /// Approximate bytes of owned storage (object + heap words), for
  /// `MemoryBudget` accounting of mask-keyed structures.
  uint64_t ApproxMemoryBytes() const {
    return sizeof(Bitset) + words_.capacity() * sizeof(uint64_t);
  }

  /// Content hash, independent of trailing capacity.
  size_t Hash() const {
    // FNV-1a over the significant words.
    size_t trailing = words_.size();
    while (trailing > 0 && words_[trailing - 1] == 0) --trailing;
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < trailing; ++i) {
      h ^= words_[i];
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    const size_t n = a.words_.size() > b.words_.size() ? a.words_.size()
                                                       : b.words_.size();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t wa = i < a.words_.size() ? a.words_[i] : 0;
      const uint64_t wb = i < b.words_.size() ? b.words_[i] : 0;
      if (wa != wb) return false;
    }
    return true;
  }
  friend bool operator!=(const Bitset& a, const Bitset& b) { return !(a == b); }

  /// Total order (by content, treating the bitset as a little-endian number);
  /// useful for canonical sorting in outputs and tests.
  friend bool operator<(const Bitset& a, const Bitset& b) {
    const size_t n = a.words_.size() > b.words_.size() ? a.words_.size()
                                                       : b.words_.size();
    for (size_t i = n; i > 0; --i) {
      const uint64_t wa = i - 1 < a.words_.size() ? a.words_[i - 1] : 0;
      const uint64_t wb = i - 1 < b.words_.size() ? b.words_[i - 1] : 0;
      if (wa != wb) return wa < wb;
    }
    return false;
  }

 private:
  std::vector<uint64_t> words_;
};

/// Hash functor for using `Bitset` as an unordered container key.
struct BitsetHash {
  size_t operator()(const Bitset& bits) const { return bits.Hash(); }
};

}  // namespace ppm

#endif  // PPM_UTIL_BITSET_H_
