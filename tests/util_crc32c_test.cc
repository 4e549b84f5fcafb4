#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ppm::crc32c {
namespace {

/// Bit-at-a-time CRC-32C straight from the definition: the reference both
/// implementations are checked against.
uint32_t Bitwise(const unsigned char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
  }
  return ~crc;
}

std::vector<unsigned char> Filled(size_t n, unsigned char value) {
  return std::vector<unsigned char>(n, value);
}

/// RFC 3720 appendix B.4 test vectors, plus the standard "123456789" check
/// value.
TEST(Crc32cTest, Rfc3720Vectors) {
  const auto zeros = Filled(32, 0x00);
  const auto ones = Filled(32, 0xFF);
  std::vector<unsigned char> ascending(32);
  std::vector<unsigned char> descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  const std::vector<unsigned char> iscsi_read = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};

  EXPECT_EQ(Value(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Value(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Value(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(Value(descending.data(), descending.size()), 0x113FDB5Cu);
  EXPECT_EQ(Value(iscsi_read.data(), iscsi_read.size()), 0xD9963A56u);
  EXPECT_EQ(Value(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(Value(nullptr, 0), 0u);

  EXPECT_EQ(ExtendTable(0, iscsi_read.data(), iscsi_read.size()), 0xD9963A56u);
  if (HasHardware()) {
    EXPECT_EQ(ExtendHardware(0, iscsi_read.data(), iscsi_read.size()),
              0xD9963A56u);
  }
}

/// Every length 0..300 at every start offset 0..7, so the hardware path's
/// 8-byte steps and byte tail meet every alignment and remainder.
TEST(Crc32cTest, BothPathsMatchBitwiseReferenceAtEveryLengthAndOffset) {
  std::vector<unsigned char> buffer(8 + 300);
  uint32_t state = 0x9E3779B9u;
  for (unsigned char& byte : buffer) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<unsigned char>(state >> 24);
  }
  const bool hardware = HasHardware();
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const unsigned char* data = buffer.data() + offset;
      const uint32_t expected = Bitwise(data, n);
      ASSERT_EQ(ExtendTable(0, data, n), expected)
          << "table, offset " << offset << " length " << n;
      if (hardware) {
        ASSERT_EQ(ExtendHardware(0, data, n), expected)
            << "hardware, offset " << offset << " length " << n;
      }
      ASSERT_EQ(Value(data, n), expected);
    }
  }
  if (!hardware) GTEST_SKIP() << "no SSE4.2 crc32: hardware path unchecked";
}

TEST(Crc32cTest, ChainedExtendEqualsOneShotValue) {
  std::string data;
  for (int i = 0; i < 257; ++i) data.push_back(static_cast<char>(i * 7 + 3));
  const uint32_t whole = Value(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Value(data.data(), split);
    EXPECT_EQ(Extend(head, data.data() + split, data.size() - split), whole)
        << "split at " << split;
    EXPECT_EQ(ExtendTable(ExtendTable(0, data.data(), split),
                          data.data() + split, data.size() - split),
              whole);
    if (HasHardware()) {
      EXPECT_EQ(ExtendHardware(ExtendHardware(0, data.data(), split),
                               data.data() + split, data.size() - split),
                whole);
    }
  }
}

}  // namespace
}  // namespace ppm::crc32c
