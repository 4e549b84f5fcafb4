#ifndef PPM_UTIL_FRAME_H_
#define PPM_UTIL_FRAME_H_

// The one checksummed block behind every CRC-protected format
// (docs/FILE_FORMATS.md "Primitives"):
//
//   len     u32 or u64 LE   bytes in the body (the width is per format)
//   crc     u32 LE          CRC32C of the body
//   body    len bytes
//
// Readers refuse a length over the caller's cap before allocating and
// verify the CRC before a single field of the body is parsed. A *framed
// file* is an 8-byte magic followed by exactly one u64-length block that
// runs to the end of the file.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/status.h"

namespace ppm::frame {

/// Width of a block's length field.
enum class LenWidth : uint8_t { kU32 = 4, kU64 = 8 };

/// Bytes of a block before its body.
constexpr size_t HeaderBytes(LenWidth width) {
  return static_cast<size_t>(width) + 4;
}

/// Appends `len | crc | body` to `*out`.
void PutBlock(std::string* out, std::string_view body, LenWidth width);

/// Encoding a body in place: `BeginBlock` reserves the header and returns
/// its offset; `EndBlock` fills it in for everything appended since.
size_t BeginBlock(std::string* out, LenWidth width);
void EndBlock(std::string* out, size_t header_at, LenWidth width);

struct BlockHeader {
  uint64_t len = 0;
  uint32_t crc = 0;
};

/// Why a block was refused. `kTruncated` means the input ended inside it
/// (a streaming caller may wait for more bytes); the rest are corruption.
enum class BlockError { kOk, kTruncated, kTooLong, kChecksum };

/// Reads a block header, refusing `len > max_len`. On any failure the
/// reader is spent; on `kTruncated` its `short_read()` is set.
BlockError ReadHeader(bytes::ByteReader* in, LenWidth width, uint64_t max_len,
                      BlockHeader* header);

/// `kOk` when `body` holds exactly the block `header` describes, CRC
/// included; `kTruncated` when it is short, `kChecksum` otherwise.
BlockError VerifyBody(const BlockHeader& header, std::string_view body);

/// Reads a whole block and verifies its CRC; `*body` views the verified
/// bytes inside the reader's buffer. Failures as for `ReadHeader`.
BlockError ReadBlock(bytes::ByteReader* in, LenWidth width, uint64_t max_len,
                     std::string_view* body);

/// `kCorruption` naming `block` for a failed read; OK for `kOk`.
Status BlockStatus(BlockError error, std::string_view block);

/// `magic + block(body)`, the bytes of a framed file.
std::string EncodeFile(const char* magic, std::string_view body);

/// Verifies a framed file's bytes -- magic, a length that exactly fills the
/// file, CRC -- and views its body. Any mismatch is `kCorruption`, with
/// `what` naming the file in the message.
Result<std::string_view> DecodeFile(std::string_view file, const char* magic,
                                    std::string_view what);

}  // namespace ppm::frame

#endif  // PPM_UTIL_FRAME_H_
