#include "util/crc32c.h"

#include <array>
#include <cstring>

namespace ppm::crc32c {

namespace {

/// Byte-wise lookup table for the reflected Castagnoli polynomial,
/// generated once at startup (256 entries, 1 KiB).
std::array<uint32_t, 256> BuildTable() {
  constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected.
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

}  // namespace

uint32_t ExtendTable(uint32_t crc, const void* data, size_t n) {
  const auto& table = Table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                           const void* data,
                                                           size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t wide = static_cast<uint32_t>(~crc);
  for (; n >= 8; n -= 8, bytes += 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    wide = __builtin_ia32_crc32di(wide, word);
  }
  auto narrow = static_cast<uint32_t>(wide);
  for (; n > 0; --n, ++bytes) narrow = __builtin_ia32_crc32qi(narrow, *bytes);
  return ~narrow;
}

bool HasHardware() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n) {
  return ExtendTable(crc, data, n);
}

bool HasHardware() { return false; }

#endif

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  static const auto extend = HasHardware() ? ExtendHardware : ExtendTable;
  return extend(crc, data, n);
}

}  // namespace ppm::crc32c
