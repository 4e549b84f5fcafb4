#ifndef PPM_TSDB_BINARY_FORMAT_H_
#define PPM_TSDB_BINARY_FORMAT_H_

#include <cstdint>

namespace ppm::tsdb::internal {

/// On-disk binary series layouts (docs/FILE_FORMATS.md). Every version
/// starts with an 8-byte magic and the series header of `instant_codec.h`
/// (u32 symbol count, names as strings, u64 instant count).
///
/// Version 1: the header, then every instant fixed-width
/// (`InstantEncoding::kFixed32`).
inline constexpr char kMagic[8] = {'P', 'P', 'M', 'T', 'S', '1', '\n', '\0'};

/// Version 2: the header, then every instant delta+varint compressed
/// (`InstantEncoding::kVarintDelta`), typically 3-4x smaller than v1.
inline constexpr char kMagicV2[8] = {'P', 'P', 'M', 'T', 'S', '2', '\n', '\0'};

/// Version 3: v2 wrapped in two checksummed blocks (`util/frame.h`), so
/// truncation and bit rot are always detected before decoding:
///
///   magic            8 bytes  "PPMTS3\n\0"
///   header block     u32 length: the series header
///   payload block    u64 length: num_instants v2-encoded instants
inline constexpr char kMagicV3[8] = {'P', 'P', 'M', 'T', 'S', '3', '\n', '\0'};

/// Upper bound on a single symbol name's encoded length; readers reject
/// larger values as corruption before allocating.
inline constexpr uint32_t kMaxSymbolNameBytes = 1 << 20;

/// Upper bound on a v3 block's declared length; readers reject larger
/// values as corruption before allocating the block buffer.
inline constexpr uint64_t kMaxBlockBytes = uint64_t{1} << 31;

}  // namespace ppm::tsdb::internal

#endif  // PPM_TSDB_BINARY_FORMAT_H_
