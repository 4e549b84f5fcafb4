// The shared byte codec (util/bytes.h) and checksummed block (util/frame.h)
// that every binary format is built from.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/frame.h"

namespace ppm {
namespace {

using frame::BlockError;
using frame::LenWidth;

TEST(BytesTest, FixedWidthIsLittleEndian) {
  std::string out;
  bytes::PutU8(&out, 0xab);
  bytes::PutU32(&out, 0x01020304);
  bytes::PutU64(&out, 0x0102030405060708ull);
  bytes::PutF64(&out, 1.0);
  EXPECT_EQ(out, std::string("\xab\x04\x03\x02\x01"
                             "\x08\x07\x06\x05\x04\x03\x02\x01"
                             "\x00\x00\x00\x00\x00\x00\xf0\x3f",
                             21));
  bytes::ByteReader in(out);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  ASSERT_TRUE(in.ReadU8(&u8) && in.ReadU32(&u32) && in.ReadU64(&u64) &&
              in.ReadF64(&f64));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(f64, 1.0);
  EXPECT_TRUE(in.exhausted());
}

TEST(BytesTest, VarintRoundTripsAtEveryWidth) {
  for (const uint32_t value :
       {0u, 1u, 127u, 128u, 16383u, 16384u, (1u << 21) - 1, 1u << 21,
        (1u << 28) - 1, 1u << 28, UINT32_MAX}) {
    std::string out;
    bytes::PutVarint32(&out, value);
    bytes::ByteReader in(out);
    uint32_t decoded = 0;
    ASSERT_TRUE(in.ReadVarint32(&decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(in.exhausted());
  }
  std::string max;
  bytes::PutVarint32(&max, UINT32_MAX);
  EXPECT_EQ(max, "\xff\xff\xff\xff\x0f");
}

TEST(BytesTest, OverlongVarintIsMalformedNotShort) {
  const std::string overlong("\x80\x80\x80\x80\x80\x00", 6);
  bytes::ByteReader in(overlong);
  uint32_t value = 0;
  EXPECT_FALSE(in.ReadVarint32(&value));
  EXPECT_FALSE(in.short_read());
  EXPECT_EQ(in.position(), 0u);
}

TEST(BytesTest, EveryPrefixIsAShortRead) {
  std::string out;
  bytes::PutU32(&out, 7);
  bytes::PutU64(&out, 9);
  bytes::PutVarint32(&out, UINT32_MAX);
  bytes::PutString(&out, "name");
  for (size_t len = 0; len < out.size(); ++len) {
    bytes::ByteReader in(std::string_view(out).substr(0, len));
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    uint32_t varint = 0;
    std::string name;
    const bool ok = in.ReadU32(&u32) && in.ReadU64(&u64) &&
                    in.ReadVarint32(&varint) && in.ReadString(&name);
    EXPECT_FALSE(ok) << "prefix " << len;
    EXPECT_TRUE(in.short_read()) << "prefix " << len;
  }
}

TEST(BytesTest, StringOverCapIsRefusedBeforeReading) {
  std::string out;
  bytes::PutU32(&out, 1u << 30);  // Claims 1 GiB with no bytes behind it.
  bytes::ByteReader in(out);
  std::string value;
  EXPECT_FALSE(in.ReadString(&value, 1024));
  EXPECT_FALSE(in.short_read());
  EXPECT_TRUE(value.empty());
}

TEST(BytesTest, FixedOffsetLoadsMatchTheReader) {
  std::string out;
  bytes::PutU32(&out, 0xdeadbeef);
  bytes::PutU64(&out, 0x1122334455667788ull);
  EXPECT_EQ(bytes::LoadU32(out.data()), 0xdeadbeefu);
  EXPECT_EQ(bytes::LoadU64(out.data() + 4), 0x1122334455667788ull);
}

class BlockTest : public ::testing::TestWithParam<LenWidth> {};

TEST_P(BlockTest, RoundTripsAndEncodesInPlace) {
  std::string put;
  frame::PutBlock(&put, "payload", GetParam());
  std::string in_place;
  const size_t at = frame::BeginBlock(&in_place, GetParam());
  in_place += "payload";
  frame::EndBlock(&in_place, at, GetParam());
  EXPECT_EQ(put, in_place);
  EXPECT_EQ(put.size(), frame::HeaderBytes(GetParam()) + 7);

  bytes::ByteReader in(put);
  std::string_view body;
  ASSERT_EQ(frame::ReadBlock(&in, GetParam(), 1024, &body), BlockError::kOk);
  EXPECT_EQ(body, "payload");
  EXPECT_TRUE(in.exhausted());
}

TEST_P(BlockTest, EveryPrefixIsTruncated) {
  std::string block;
  frame::PutBlock(&block, "abc", GetParam());
  for (size_t len = 0; len < block.size(); ++len) {
    bytes::ByteReader in(std::string_view(block).substr(0, len));
    std::string_view body;
    EXPECT_EQ(frame::ReadBlock(&in, GetParam(), 1024, &body),
              BlockError::kTruncated)
        << "prefix " << len;
    EXPECT_TRUE(in.short_read());
  }
}

TEST_P(BlockTest, LengthOverCapIsRefusedBeforeTheBody) {
  std::string block;
  frame::PutBlock(&block, std::string(100, 'x'), GetParam());
  // Only the header: the cap must be enforced without the body present.
  bytes::ByteReader in(
      std::string_view(block).substr(0, frame::HeaderBytes(GetParam())));
  std::string_view body;
  EXPECT_EQ(frame::ReadBlock(&in, GetParam(), 99, &body), BlockError::kTooLong);
  EXPECT_FALSE(in.short_read());
}

TEST_P(BlockTest, EveryBodyBitFlipFailsTheChecksum) {
  std::string block;
  frame::PutBlock(&block, "checksummed", GetParam());
  for (size_t offset = frame::HeaderBytes(GetParam()); offset < block.size();
       ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = block;
      flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
      bytes::ByteReader in(flipped);
      std::string_view body;
      EXPECT_EQ(frame::ReadBlock(&in, GetParam(), 1024, &body),
                BlockError::kChecksum)
          << "offset " << offset << " bit " << bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlockTest,
                         ::testing::Values(LenWidth::kU32, LenWidth::kU64));

TEST(FramedFileTest, RoundTripsAndRefusesDamage) {
  const char kMagic[9] = "TESTMAG\n";
  const std::string file = frame::EncodeFile(kMagic, "body bytes");
  auto body = frame::DecodeFile(file, kMagic, "test");
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(*body, "body bytes");

  for (size_t len = 0; len < file.size(); ++len) {
    auto truncated =
        frame::DecodeFile(std::string_view(file).substr(0, len), kMagic, "t");
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption) << len;
  }
  EXPECT_EQ(frame::DecodeFile(file + "x", kMagic, "t").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(frame::DecodeFile(file, "OTHERMG\n", "t").status().code(),
            StatusCode::kCorruption);
  std::string flipped = file;
  flipped.back() ^= 1;
  EXPECT_EQ(frame::DecodeFile(flipped, kMagic, "t").status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace ppm
