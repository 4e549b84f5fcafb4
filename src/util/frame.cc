#include "util/frame.h"

#include "util/crc32c.h"

namespace ppm::frame {

namespace {
constexpr size_t kMagicBytes = 8;
}  // namespace

size_t BeginBlock(std::string* out, LenWidth width) {
  const size_t at = out->size();
  out->append(HeaderBytes(width), '\0');
  return at;
}

void EndBlock(std::string* out, size_t header_at, LenWidth width) {
  const size_t body_at = header_at + HeaderBytes(width);
  const size_t len = out->size() - body_at;
  char* header = out->data() + header_at;
  if (width == LenWidth::kU32) {
    bytes::StoreU32(header, static_cast<uint32_t>(len));
  } else {
    bytes::StoreU64(header, len);
  }
  bytes::StoreU32(header + static_cast<size_t>(width),
                  crc32c::Value(out->data() + body_at, len));
}

void PutBlock(std::string* out, std::string_view body, LenWidth width) {
  out->reserve(out->size() + HeaderBytes(width) + body.size());
  const size_t at = BeginBlock(out, width);
  out->append(body.data(), body.size());
  EndBlock(out, at, width);
}

BlockError ReadHeader(bytes::ByteReader* in, LenWidth width, uint64_t max_len,
                      BlockHeader* header) {
  uint32_t len32 = 0;
  const bool ok = width == LenWidth::kU32 ? in->ReadU32(&len32)
                                          : in->ReadU64(&header->len);
  if (width == LenWidth::kU32) header->len = len32;
  if (!ok || !in->ReadU32(&header->crc)) return BlockError::kTruncated;
  if (header->len > max_len) return BlockError::kTooLong;
  return BlockError::kOk;
}

BlockError VerifyBody(const BlockHeader& header, std::string_view body) {
  if (body.size() != header.len) return BlockError::kTruncated;
  return crc32c::Value(body) == header.crc ? BlockError::kOk
                                           : BlockError::kChecksum;
}

BlockError ReadBlock(bytes::ByteReader* in, LenWidth width, uint64_t max_len,
                     std::string_view* body) {
  BlockHeader header;
  const BlockError error = ReadHeader(in, width, max_len, &header);
  if (error != BlockError::kOk) return error;
  if (!in->ReadBytes(header.len, body)) return BlockError::kTruncated;
  return VerifyBody(header, *body);
}

Status BlockStatus(BlockError error, std::string_view block) {
  const std::string name(block);
  switch (error) {
    case BlockError::kOk:
      return Status::OK();
    case BlockError::kTruncated:
      return Status::Corruption("truncated " + name + " block");
    case BlockError::kTooLong:
      return Status::Corruption("implausible " + name + " block length");
    case BlockError::kChecksum:
      break;
  }
  return Status::Corruption(name + " block checksum mismatch");
}

std::string EncodeFile(const char* magic, std::string_view body) {
  std::string out(magic, kMagicBytes);
  PutBlock(&out, body, LenWidth::kU64);
  return out;
}

Result<std::string_view> DecodeFile(std::string_view file, const char* magic,
                                    std::string_view what) {
  const auto corrupt = [what](const char* problem) {
    return Status::Corruption(std::string(problem) + ": " + std::string(what));
  };
  if (file.size() < kMagicBytes + HeaderBytes(LenWidth::kU64)) {
    return corrupt("too short");
  }
  if (file.substr(0, kMagicBytes) != std::string_view(magic, kMagicBytes)) {
    return corrupt("bad magic");
  }
  bytes::ByteReader in(file.substr(kMagicBytes));
  BlockHeader header;
  ReadHeader(&in, LenWidth::kU64, UINT64_MAX, &header);
  if (header.len != in.remaining()) return corrupt("length mismatch");
  const std::string_view body = file.substr(file.size() - header.len);
  if (VerifyBody(header, body) != BlockError::kOk) {
    return corrupt("checksum mismatch");
  }
  return body;
}

}  // namespace ppm::frame
