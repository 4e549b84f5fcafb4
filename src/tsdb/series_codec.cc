#include "tsdb/series_codec.h"

#include <cctype>
#include <fstream>
#include <string_view>

#include "tsdb/binary_format.h"
#include "tsdb/fault_injection.h"
#include "tsdb/instant_codec.h"
#include "util/frame.h"
#include "util/string_util.h"

namespace ppm::tsdb {

namespace {

using frame::LenWidth;

/// Decodes a whole `.ppmts` file of any version. v3 blocks are verified
/// before a field of them is parsed.
Result<TimeSeries> DecodeSeries(std::string_view file) {
  constexpr size_t kMagicBytes = sizeof(internal::kMagic);
  const std::string_view magic = file.substr(0, kMagicBytes);
  bytes::ByteReader in(file.substr(magic.size()));
  TimeSeries series;
  uint64_t num_instants = 0;
  if (magic == std::string_view(internal::kMagicV3, kMagicBytes)) {
    std::string_view header;
    std::string_view payload;
    PPM_RETURN_IF_ERROR(frame::BlockStatus(
        frame::ReadBlock(&in, LenWidth::kU32, internal::kMaxBlockBytes,
                         &header),
        "v3 header"));
    bytes::ByteReader header_in(header);
    PPM_RETURN_IF_ERROR(
        ReadSeriesHeader(&header_in, &series.symbols(), &num_instants));
    PPM_RETURN_IF_ERROR(frame::BlockStatus(
        frame::ReadBlock(&in, LenWidth::kU64, internal::kMaxBlockBytes,
                         &payload),
        "v3 payload"));
    bytes::ByteReader payload_in(payload);
    PPM_RETURN_IF_ERROR(ReadInstants(&payload_in, InstantEncoding::kVarintDelta,
                                     num_instants, &series));
    return series;
  }
  InstantEncoding encoding;
  if (magic == std::string_view(internal::kMagic, kMagicBytes)) {
    encoding = InstantEncoding::kFixed32;
  } else if (magic == std::string_view(internal::kMagicV2, kMagicBytes)) {
    encoding = InstantEncoding::kVarintDelta;
  } else {
    return Status::Corruption("bad magic");
  }
  PPM_RETURN_IF_ERROR(ReadSeriesHeader(&in, &series.symbols(), &num_instants));
  PPM_RETURN_IF_ERROR(ReadInstants(&in, encoding, num_instants, &series));
  return series;
}

}  // namespace

Status WriteBinarySeries(const TimeSeries& series, const std::string& path,
                         BinaryFormatVersion version) {
  std::string file;
  if (version == BinaryFormatVersion::kV3) {
    // Each block's body is encoded in place and its length and CRC filled
    // in after; the lengths double as truncation checks on read.
    file.assign(internal::kMagicV3, sizeof(internal::kMagicV3));
    const size_t header_at = frame::BeginBlock(&file, LenWidth::kU32);
    PutSeriesHeader(&file, series.symbols(), series.length());
    frame::EndBlock(&file, header_at, LenWidth::kU32);
    const size_t payload_at = frame::BeginBlock(&file, LenWidth::kU64);
    PutInstants(&file, series, InstantEncoding::kVarintDelta);
    frame::EndBlock(&file, payload_at, LenWidth::kU64);
  } else {
    const bool v1 = version == BinaryFormatVersion::kV1;
    file.assign(v1 ? internal::kMagic : internal::kMagicV2,
                 sizeof(internal::kMagic));
    PutSeriesHeader(&file, series.symbols(), series.length());
    PutInstants(&file, series,
                v1 ? InstantEncoding::kFixed32 : InstantEncoding::kVarintDelta);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<TimeSeries> ReadBinarySeries(const std::string& path) {
  Result<std::string> file = ReadFileWithFaults(path);
  if (!file.ok()) {
    // A missing series is an I/O failure to this reader's callers.
    if (file.status().code() == StatusCode::kNotFound) {
      return Status::IoError("cannot open for read: " + path);
    }
    return file.status();
  }
  Result<TimeSeries> series = DecodeSeries(*file);
  if (!series.ok()) {
    return Status::Corruption(series.status().message() + " in " + path);
  }
  return series;
}

Status WriteTextSeries(const TimeSeries& series, const std::string& path) {
  for (const std::string& name : series.symbols().names()) {
    if (name.empty()) return Status::InvalidArgument("empty feature name");
    if (name.front() == '#') {
      return Status::InvalidArgument("feature name starts with '#': " + name);
    }
    for (char c : name) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        return Status::InvalidArgument("feature name has whitespace: " + name);
      }
    }
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  for (const FeatureSet& instant : series.instants()) {
    bool first = true;
    instant.ForEach([&](uint32_t id) {
      if (!first) out << ' ';
      first = false;
      out << series.symbols().NameOrPlaceholder(id);
    });
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<TimeSeries> ReadTextSeries(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);

  TimeSeries series;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view stripped = StripWhitespace(line);
    if (!stripped.empty() && stripped.front() == '#') continue;
    FeatureSet features;
    for (const std::string& token : SplitSkipEmpty(stripped, ' ')) {
      features.Set(series.symbols().Intern(token));
    }
    series.Append(std::move(features));
  }
  if (in.bad()) return Status::IoError("read failed: " + path);
  return series;
}

}  // namespace ppm::tsdb
