#ifndef PPM_UTIL_BYTES_H_
#define PPM_UTIL_BYTES_H_

// The one byte codec behind every binary format in the library (.ppmts,
// WAL, checkpoints, dist plans and results, PPMRPC; docs/FILE_FORMATS.md
// "Primitives"):
//
//   u8 / u32 / u64   little-endian, fixed width
//   f64              the IEEE-754 bit pattern as a u64
//   varint32         LEB128, 1..5 bytes; a longer encoding is refused
//   string           u32 length, then that many bytes
//
// Writers append to a `std::string`; `ByteReader` reads a buffer with every
// access bounds-checked, so no input can make a decoder read out of range.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ppm::bytes {

// Every supported host is little-endian, so a value's bytes are copied as
// they are; a big-endian host swaps them. memcpy rather than a shift-and-or
// byte loop: GCC does not fold the loop into one load inside the decoders,
// and with it PPMRPC response decoding measured about 2x slower.
inline constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

inline void StoreU32(char* p, uint32_t value) {
  if constexpr (!kLittleEndian) value = __builtin_bswap32(value);
  std::memcpy(p, &value, sizeof(value));
}

inline void StoreU64(char* p, uint64_t value) {
  if constexpr (!kLittleEndian) value = __builtin_bswap64(value);
  std::memcpy(p, &value, sizeof(value));
}

/// Fixed-offset loads, for scans that probe a buffer at arbitrary offsets
/// (the WAL's search for a later valid record). The caller guarantees the
/// bytes exist.
inline uint32_t LoadU32(const char* p) {
  uint32_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return kLittleEndian ? value : __builtin_bswap32(value);
}

inline uint64_t LoadU64(const char* p) {
  uint64_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return kLittleEndian ? value : __builtin_bswap64(value);
}

inline void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void PutU32(std::string* out, uint32_t value) {
  char buf[4];
  StoreU32(buf, value);
  out->append(buf, sizeof(buf));
}

inline void PutU64(std::string* out, uint64_t value) {
  char buf[8];
  StoreU64(buf, value);
  out->append(buf, sizeof(buf));
}

inline void PutF64(std::string* out, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(out, bits);
}

inline void PutVarint32(std::string* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

inline void PutString(std::string* out, std::string_view value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out->append(value.data(), value.size());
}

/// Bounds-checked sequential reader. Every `Read*` returns false, without
/// consuming anything, when the value is not all there; `short_read()` then
/// tells a caller streaming from a refill buffer that more bytes may help.
/// Other refusals (an overlong varint, a string over its cap) are malformed
/// input and leave `short_read()` unset.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* value) {
    if (!Need(1)) return false;
    *value = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* value) {
    if (!Need(4)) return false;
    *value = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* value) {
    if (!Need(8)) return false;
    *value = LoadU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool ReadF64(double* value) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(value, &bits, sizeof(bits));
    return true;
  }

  bool ReadVarint32(uint32_t* value) {
    uint32_t result = 0;
    for (size_t i = 0; i < 5; ++i) {
      if (!Need(i + 1)) return false;
      const auto byte = static_cast<unsigned char>(data_[pos_ + i]);
      result |= static_cast<uint32_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        pos_ += i + 1;
        *value = result;
        return true;
      }
    }
    return false;  // Overlong: a sixth byte would follow.
  }

  /// Views the next `n` bytes (valid while the underlying buffer is).
  bool ReadBytes(size_t n, std::string_view* value) {
    if (!Need(n)) return false;
    *value = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// Reads a u32 length and that many bytes; a length over `max_len` is
  /// refused before anything is allocated.
  bool ReadString(std::string* value, uint32_t max_len = UINT32_MAX) {
    if (!Need(4)) return false;
    const uint32_t len = LoadU32(data_.data() + pos_);
    if (len > max_len || !Need(4 + static_cast<size_t>(len))) return false;
    value->assign(data_.data() + pos_ + 4, len);
    pos_ += 4 + static_cast<size_t>(len);
    return true;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  bool short_read() const { return short_read_; }

 private:
  bool Need(size_t n) {
    if (remaining() >= n) return true;
    short_read_ = true;
    return false;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool short_read_ = false;
};

}  // namespace ppm::bytes

#endif  // PPM_UTIL_BYTES_H_
