// Golden bytes for every on-disk and on-wire layout. Round-trip tests cannot
// see a layout change that encoder and decoder make together; these pin the
// exact bytes each encoder emits for one tiny fixed input. Short encodings
// are compared as hex, longer ones as (length, CRC32C). A mismatch here
// means files or peers written by an older build would no longer be read
// the same way -- change a format only with a new magic or version.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "dist/shard_plan.h"
#include "dist/shard_result.h"
#include "service/wire.h"
#include "stream/checkpoint.h"
#include "stream/continuous_miner.h"
#include "tsdb/series_codec.h"
#include "tsdb/time_series.h"
#include "tsdb/wal.h"
#include "util/crc32c.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

/// "<length>:<crc32c hex>" -- a compact fingerprint for longer encodings.
std::string Digest(std::string_view bytes) {
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%zu:%08x", bytes.size(),
                crc32c::Value(bytes));
  return digest;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Symbols {a, c, bb} (interned in that order); instants {a,c}, {}, {bb},
/// {a,bb,c}.
tsdb::TimeSeries TinySeries() {
  tsdb::TimeSeries series;
  series.AppendNamed({"a", "c"});
  series.AppendNamed({});
  series.AppendNamed({"bb"});
  series.AppendNamed({"a", "bb", "c"});
  return series;
}

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/format_golden";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string SeriesBytes(tsdb::BinaryFormatVersion version) {
    const std::string path = dir_ + "/tiny.ppmts";
    EXPECT_TRUE(tsdb::WriteBinarySeries(TinySeries(), path, version).ok());
    return FileBytes(path);
  }

  std::string dir_;
};

TEST_F(GoldenTest, SeriesV1) {
  EXPECT_EQ(Hex(SeriesBytes(tsdb::BinaryFormatVersion::kV1)),
            "50504d5453310a00"
            "03000000" "01000000" "61" "01000000" "63" "02000000" "6262"
            "0400000000000000"
            "02000000" "00000000" "01000000"
            "00000000"
            "01000000" "02000000"
            "03000000" "00000000" "01000000" "02000000");
}

TEST_F(GoldenTest, SeriesV2) {
  EXPECT_EQ(Hex(SeriesBytes(tsdb::BinaryFormatVersion::kV2)),
            "50504d5453320a00"
            "03000000" "01000000" "61" "01000000" "63" "02000000" "6262"
            "0400000000000000"
            "020001" "00" "0102" "03000101");
}

TEST_F(GoldenTest, SeriesV3) {
  EXPECT_EQ(Hex(SeriesBytes(tsdb::BinaryFormatVersion::kV3)),
            "50504d5453330a00"
            "1c000000" "7e460e20"
            "03000000" "01000000" "61" "01000000" "63" "02000000" "6262"
            "0400000000000000"
            "0a00000000000000" "fb2a5825"
            "020001" "00" "0102" "03000101");
}

TEST_F(GoldenTest, WalRecord) {
  const std::string path = dir_ + "/log.ppmwal";
  auto wal = tsdb::WalWriter::Create(path, tsdb::WalFsync::kNever);
  ASSERT_TRUE(wal.ok()) << wal.status();
  tsdb::FeatureSet instant;
  instant.Set(0);
  instant.Set(3);
  instant.Set(200);
  ASSERT_TRUE((*wal)->Append(instant).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  EXPECT_EQ(Hex(FileBytes(path)), "50504d57414c310a"
            "05000000" "0000000000000000" "ad31d6df" "e740f84c" "030003c501");
}

TEST_F(GoldenTest, CheckpointV2) {
  MiningOptions options;
  options.period = 2;
  options.min_confidence = 0.5;
  stream::ContinuousOptions continuous;
  continuous.window_segments = 2;
  auto miner = stream::ContinuousMiner::Create(
      options, {Letter{0, 0}, Letter{1, 2}, Letter{1, 1}}, continuous);
  ASSERT_TRUE(miner.ok()) << miner.status();
  const tsdb::TimeSeries series = TinySeries();
  for (int round = 0; round < 2; ++round) {
    for (const tsdb::FeatureSet& instant : series.instants()) {
      (*miner)->Append(instant);
    }
  }
  (*miner)->Append(series.at(0));  // A held-back partial segment.
  ASSERT_TRUE(stream::WriteCheckpoint(**miner, series.symbols(), dir_).ok());
  EXPECT_EQ(Digest(FileBytes(stream::CheckpointPath(dir_))),
            "272:801fd634");
}

TEST_F(GoldenTest, ShardPlan) {
  dist::ShardPlan plan;
  plan.period = 2;
  plan.min_confidence = 0.75;
  plan.min_count = 3;
  plan.max_letters = 4;
  plan.inputs = {{"in.ppmts", 9, 4}};
  plan.shards = {{0, 0, 0, 3}, {1, 0, 3, 4}};
  const std::string path = dir_ + "/tiny.plan";
  ASSERT_TRUE(dist::WritePlanFile(&plan, path).ok());
  EXPECT_EQ(Hex(FileBytes(path)),
            "50504d44504c310a7000000000000000fb48de58010000000200000000000000"
            "0000e83f0300000000000000040000000100000008000000696e2e70706d7473"
            "0900000000000000040000000000000002000000000000000000000000000000"
            "0000000003000000000000000100000000000000030000000000000004000000"
            "00000000");
}

TEST_F(GoldenTest, ShardResult) {
  dist::ShardResult result;
  result.plan_fingerprint = 0xdeadbeef;
  result.shard_id = 1;
  result.input_index = 0;
  result.segment_begin = 3;
  result.segment_end = 4;
  result.symbols = {"a", "bb"};
  result.letter_counts = {{Letter{0, 0}, 5}, {Letter{1, 1}, 2}};
  result.hits = {{{Letter{0, 0}, Letter{1, 1}}, 2}};
  const std::string path = dir_ + "/shard-1.result";
  ASSERT_TRUE(dist::WriteShardResultFile(result, path).ok());
  EXPECT_EQ(Hex(FileBytes(path)),
            "50504d445253310a77000000000000007a46a3bb01000000efbeadde01000000"
            "0000000003000000000000000400000000000000020000000100000061020000"
            "0062620200000000000000000000000500000000000000010000000100000002"
            "0000000000000001000000000000000200000000000000000000000100000001"
            "0000000200000000000000");
}

// Strings are copied from std::string, not assigned from literals, which
// keeps GCC 12 from a false -Wrestrict report inside libstdc++.
const std::string kName = "s";
const std::string kTenant = "t1";

service::wire::Request PutRequest() {
  service::wire::Request request;
  request.op = service::wire::Op::kPut;
  request.deadline_ms = 250;
  request.name = kName;
  request.series = TinySeries();
  return request;
}

service::wire::Request QueryRequest() {
  service::wire::Request request;
  request.op = service::wire::Op::kQuery;
  request.tenant = kTenant;
  request.name = kName;
  request.period = 2;
  request.min_confidence = 0.625;
  request.min_count = 1;
  request.max_letters = 3;
  request.algorithm = 1;
  return request;
}

service::wire::Response TinyResponse() {
  service::wire::Response response;
  response.code = 0;
  response.message = "ok";
  response.cache_outcome = 1;
  response.version = 7;
  response.length = 4;
  response.num_periods = 2;
  response.period = 2;
  response.symbols = {"a", "bb", "c"};
  service::wire::WirePattern pattern;
  pattern.letters = {{0, 0}, {1, 2}};
  pattern.count = 2;
  pattern.confidence = 1.0;
  response.patterns.push_back(pattern);
  response.has_series = true;
  response.series = TinySeries();
  response.stats_json = "{}";
  response.retry_after_ms = 40;
  response.ready_state = 2;
  response.health_json = "h";
  return response;
}

TEST(WireGoldenTest, RequestV2) {
  EXPECT_EQ(Digest(service::wire::EncodeRequest(PutRequest())),
            "83:f3db6bb5");
  EXPECT_EQ(Hex(service::wire::EncodeRequest(QueryRequest())),
            "ff0500000000020000007431010000007302000000000000000000e43f010000"
            "00000000000300000001");
}

TEST(WireGoldenTest, ResponseV2) {
  EXPECT_EQ(Digest(service::wire::EncodeResponse(TinyResponse(), 2)),
            "190:9e08029b");
}

TEST(WireGoldenTest, Frame) {
  EXPECT_EQ(Hex(service::wire::EncodeFrame("hello")),
            "05000000" "4cbb719a" "68656c6c6f");
  EXPECT_EQ(Hex(service::wire::EncodeFrame("")), "0000000000000000");
}

}  // namespace
}  // namespace ppm
