#ifndef PPM_UTIL_CRC32C_H_
#define PPM_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ppm::crc32c {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected): the checksum
/// used by the v3 `.ppmts` layout, the WAL, checkpoints, dist files and
/// every PPMRPC1 frame, chosen to match the storage-format convention of
/// RocksDB / LevelDB, so external tooling can verify files.
///
/// `Extend` runs the SSE4.2 `crc32` instruction, 8 bytes per step, on CPUs
/// that have it (picked once, on first use), and a byte-wise table
/// everywhere else. Both compute the same function.

/// Extends `crc` (a running value, initially 0) over `data[0, n)`.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// CRC-32C of a whole buffer.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

inline uint32_t Value(std::string_view data) {
  return Value(data.data(), data.size());
}

/// The two implementations `Extend` chooses between, exposed so tests can
/// check each against a reference. `ExtendHardware` may only be called when
/// `HasHardware()` is true.
uint32_t ExtendTable(uint32_t crc, const void* data, size_t n);
uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n);
bool HasHardware();

}  // namespace ppm::crc32c

#endif  // PPM_UTIL_CRC32C_H_
