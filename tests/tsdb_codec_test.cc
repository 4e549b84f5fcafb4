#include "tsdb/series_codec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "tsdb/series_source.h"
#include "util/random.h"

namespace ppm::tsdb {
namespace {

class CodecTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/ppm_codec_" + name;
  }

  TimeSeries MakeSampleSeries() {
    TimeSeries series;
    series.AppendNamed({"coffee", "newspaper"});
    series.AppendEmpty();
    series.AppendNamed({"newspaper"});
    series.AppendNamed({"coffee", "tea", "newspaper"});
    return series;
  }

  void ExpectSeriesEqual(const TimeSeries& a, const TimeSeries& b) {
    ASSERT_EQ(a.length(), b.length());
    ASSERT_EQ(a.symbols().size(), b.symbols().size());
    for (uint32_t id = 0; id < a.symbols().size(); ++id) {
      EXPECT_EQ(*a.symbols().Name(id), *b.symbols().Name(id));
    }
    for (uint64_t t = 0; t < a.length(); ++t) {
      EXPECT_EQ(a.at(t), b.at(t)) << "instant " << t;
    }
  }
};

TEST_F(CodecTest, BinaryRoundTrip) {
  const TimeSeries original = MakeSampleSeries();
  const std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(WriteBinarySeries(original, path).ok());
  auto loaded = ReadBinarySeries(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSeriesEqual(original, *loaded);
  std::remove(path.c_str());
}

TEST_F(CodecTest, BinaryRoundTripEmptySeries) {
  TimeSeries empty;
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(WriteBinarySeries(empty, path).ok());
  auto loaded = ReadBinarySeries(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->length(), 0u);
  std::remove(path.c_str());
}

TEST_F(CodecTest, BinaryRoundTripLargeRandom) {
  Rng rng(77);
  TimeSeries series;
  for (int f = 0; f < 20; ++f) {
    series.symbols().Intern("f" + std::to_string(f));
  }
  for (int t = 0; t < 5000; ++t) {
    FeatureSet instant;
    const int k = static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < k; ++i) {
      instant.Set(static_cast<uint32_t>(rng.NextBelow(20)));
    }
    series.Append(std::move(instant));
  }
  const std::string path = TempPath("large.bin");
  ASSERT_TRUE(WriteBinarySeries(series, path).ok());
  auto loaded = ReadBinarySeries(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSeriesEqual(series, *loaded);
  std::remove(path.c_str());
}

TEST_F(CodecTest, ReadMissingFileFails) {
  auto loaded = ReadBinarySeries("/nonexistent/dir/file.bin");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(CodecTest, ReadBadMagicFails) {
  const std::string path = TempPath("badmagic.bin");
  std::ofstream(path) << "NOTAPPM_anything";
  auto loaded = ReadBinarySeries(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(CodecTest, ReadTruncatedFails) {
  const TimeSeries original = MakeSampleSeries();
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(WriteBinarySeries(original, path).ok());
  // Chop the tail off.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 5));
  out.close();
  auto loaded = ReadBinarySeries(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST_F(CodecTest, TextRoundTrip) {
  const TimeSeries original = MakeSampleSeries();
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteTextSeries(original, path).ok());
  auto loaded = ReadTextSeries(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Text reload re-interns in first-seen order; compare by names per instant.
  ASSERT_EQ(original.length(), loaded->length());
  for (uint64_t t = 0; t < original.length(); ++t) {
    std::vector<std::string> expected, actual;
    original.at(t).ForEach([&](uint32_t id) {
      expected.push_back(original.symbols().NameOrPlaceholder(id));
    });
    loaded->at(t).ForEach([&](uint32_t id) {
      actual.push_back(loaded->symbols().NameOrPlaceholder(id));
    });
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(expected, actual) << "instant " << t;
  }
  std::remove(path.c_str());
}

TEST_F(CodecTest, TextReaderSkipsComments) {
  const std::string path = TempPath("comments.txt");
  std::ofstream(path) << "# header comment\na b\n\nb\n";
  auto loaded = ReadTextSeries(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->length(), 3u);  // Comment line dropped, empty kept.
  EXPECT_EQ(loaded->at(0).Count(), 2u);
  EXPECT_TRUE(loaded->at(1).Empty());
  std::remove(path.c_str());
}

TEST_F(CodecTest, TextWriterRejectsUnsafeNames) {
  TimeSeries series;
  series.AppendNamed({"has space"});
  // AppendNamed splits nothing -- the name literally contains a space, which
  // the text format cannot represent.
  const std::string path = TempPath("unsafe.txt");
  EXPECT_EQ(WriteTextSeries(series, path).code(), StatusCode::kInvalidArgument);

  TimeSeries hash_series;
  hash_series.AppendNamed({"#tag"});
  EXPECT_EQ(WriteTextSeries(hash_series, path).code(),
            StatusCode::kInvalidArgument);
}

// Hand-built v2 files holding byte patterns the writer never emits. Both
// readers -- the whole-file `ReadBinarySeries` and the streaming
// `FileSeriesSource` -- must refuse each one as corruption.
std::string V2File(const std::vector<std::string>& symbols,
                   const std::string& instant) {
  const auto u32 = [](uint32_t v) {
    return std::string{static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  };
  std::string bytes("PPMTS2\n\0", 8);
  bytes += u32(static_cast<uint32_t>(symbols.size()));
  for (const std::string& name : symbols) {
    bytes += u32(static_cast<uint32_t>(name.size()));
    bytes += name;
  }
  bytes += u32(1);  // One instant, as a u64.
  bytes += u32(0);
  bytes += instant;
  return bytes;
}

using NamedBytes = std::pair<const char*, std::string>;

class MalformedV2Test : public CodecTest,
                        public ::testing::WithParamInterface<NamedBytes> {};

TEST_P(MalformedV2Test, BothReadersRejectAsCorruption) {
  std::string name = GetParam().first;
  name += ".ppmts";
  const std::string path = TempPath(name);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << GetParam().second;
  }
  EXPECT_EQ(ReadBinarySeries(path).status().code(), StatusCode::kCorruption);

  auto source = FileSeriesSource::Open(path);
  if (source.ok()) {
    ASSERT_TRUE((*source)->StartScan().ok());
    FeatureSet instant;
    EXPECT_FALSE((*source)->Next(&instant));
    EXPECT_EQ((*source)->status().code(), StatusCode::kCorruption);
  } else {
    EXPECT_EQ(source.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, MalformedV2Test,
    ::testing::Values(
        // Symbols [a b a c]: on-disk id 2 is `a` again, not `c`.
        std::make_pair("duplicate_symbol", V2File({"a", "b", "a", "c"},
                                                  std::string("\x01\x02", 2))),
        // Ids {1, 1 + 0}: a zero gap repeats an id.
        std::make_pair("zero_gap",
                       V2File({"a", "b", "c"}, std::string("\x02\x01\x00", 3))),
        // Ids {1, 1 + 0xffffffff}: the gap wraps uint32 back to 0.
        std::make_pair("wrapping_gap",
                       V2File({"a", "b", "c"},
                              std::string("\x02\x01\xff\xff\xff\xff\x0f", 7)))),
    [](const auto& info) { return std::string(info.param.first); });

}  // namespace
}  // namespace ppm::tsdb
