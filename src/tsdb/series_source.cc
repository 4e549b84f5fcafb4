#include "tsdb/series_source.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "tsdb/binary_format.h"
#include "tsdb/fault_injection.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/frame.h"

namespace ppm::tsdb {

namespace {
constexpr size_t kBufferBytes = 64 * 1024;
constexpr uint64_t kNoEnd = UINT64_MAX;
}  // namespace

SeriesSource::SeriesSource()
    : scans_counter_(obs::MetricsRegistry::Global().GetCounter("ppm.source.scans")),
      instants_counter_(
          obs::MetricsRegistry::Global().GetCounter("ppm.source.instants_read")),
      bytes_counter_(
          obs::MetricsRegistry::Global().GetCounter("ppm.source.bytes_read")) {}

InMemorySeriesSource::InMemorySeriesSource(const TimeSeries* series)
    : series_(series) {
  PPM_CHECK(series != nullptr);
}

Status InMemorySeriesSource::StartScan() {
  position_ = 0;
  ++stats_.scans;
  scans_counter_.Inc();
  return Status::OK();
}

bool InMemorySeriesSource::Next(FeatureSet* out) {
  if (position_ >= series_->length()) return false;
  *out = series_->at(position_++);
  ++stats_.instants_read;
  instants_counter_.Inc();
  return true;
}

uint64_t InMemorySeriesSource::length() const { return series_->length(); }

const SymbolTable& InMemorySeriesSource::symbols() const {
  return series_->symbols();
}

Result<std::unique_ptr<FileSeriesSource>> FileSeriesSource::Open(
    const std::string& path) {
  if (FaultInjector::Global().ConsumeTransientReadFailure()) {
    return Status::IoError("injected transient read failure: " + path);
  }
  std::unique_ptr<FileSeriesSource> source(new FileSeriesSource());
  source->path_ = path;
  source->file_.open(path, std::ios::binary);
  if (!source->file_) return Status::IoError("cannot open: " + path);
  source->fault_buf_ = FaultInjector::Global().MaybeWrap(source->file_.rdbuf());
  source->stream_.rdbuf(source->fault_buf_ != nullptr
                            ? source->fault_buf_.get()
                            : source->file_.rdbuf());
  const auto corrupt = [&path](const Status& status) {
    return Status::Corruption(status.message() + " in " + path);
  };
  PPM_RETURN_IF_ERROR(source->Seek(0, kNoEnd));

  int version = 0;
  Status status = source->DecodeBuffered([&version](bytes::ByteReader* in) {
    std::string_view magic;
    if (in->ReadBytes(sizeof(internal::kMagic), &magic)) {
      const auto is = [magic](const char* expected) {
        return magic == std::string_view(expected, sizeof(internal::kMagic));
      };
      version = is(internal::kMagic)     ? 1
                : is(internal::kMagicV2) ? 2
                : is(internal::kMagicV3) ? 3
                                         : 0;
    }
    return version != 0 ? Status::OK() : Status::Corruption("bad magic");
  });
  if (!status.ok()) return corrupt(status);
  source->encoding_ = version == 1 ? InstantEncoding::kFixed32
                                   : InstantEncoding::kVarintDelta;
  uint64_t used = 0;
  // The series header, straight after the magic (v1/v2) or as the body of
  // v3's first block, whose CRC is verified before any field is parsed.
  const auto read_header = [&source](bytes::ByteReader* in) {
    SymbolTable symbols;
    PPM_RETURN_IF_ERROR(ReadSeriesHeader(in, &symbols, &source->num_instants_));
    source->symbols_ = std::move(symbols);
    return Status::OK();
  };
  if (version != 3) {
    status = source->DecodeBuffered(read_header, &used);
    if (!status.ok()) return corrupt(status);
    source->data_offset_ = sizeof(internal::kMagic) + used;
    source->data_end_ = kNoEnd;
    return source;
  }

  frame::BlockHeader payload;
  status = source->DecodeBuffered(
      [&read_header, &payload](bytes::ByteReader* in) {
        std::string_view header;
        PPM_RETURN_IF_ERROR(frame::BlockStatus(
            frame::ReadBlock(in, frame::LenWidth::kU32,
                             internal::kMaxBlockBytes, &header),
            "v3 header"));
        bytes::ByteReader header_in(header);
        PPM_RETURN_IF_ERROR(read_header(&header_in));
        return frame::BlockStatus(
            frame::ReadHeader(in, frame::LenWidth::kU64,
                              internal::kMaxBlockBytes, &payload),
            "v3 payload");
      },
      &used);
  if (!status.ok()) return corrupt(status);
  source->data_offset_ = sizeof(internal::kMagic) + used;
  source->data_end_ = source->data_offset_ + payload.len;

  // One integrity pass over the payload now, so every later scan can
  // stream the verified bytes without recomputing the checksum.
  PPM_RETURN_IF_ERROR(source->Seek(source->data_offset_, source->data_end_));
  uint32_t crc = 0;
  char chunk[4096];
  for (uint64_t left = payload.len; left > 0;) {
    const auto want =
        static_cast<size_t>(std::min<uint64_t>(left, sizeof(chunk)));
    if (!source->stream_.read(chunk, static_cast<std::streamsize>(want))) {
      return corrupt(frame::BlockStatus(frame::BlockError::kTruncated,
                                        "v3 payload"));
    }
    crc = crc32c::Extend(crc, chunk, want);
    left -= want;
  }
  if (crc != payload.crc) {
    return corrupt(
        frame::BlockStatus(frame::BlockError::kChecksum, "v3 payload"));
  }
  return source;
}

Status FileSeriesSource::Seek(uint64_t offset, uint64_t end) {
  stream_.clear();
  stream_.seekg(static_cast<std::streamoff>(offset));
  if (!stream_) return Status::IoError("seek failed: " + path_);
  begin_ = 0;
  end_ = 0;
  read_pos_ = offset;
  region_end_ = end;
  drained_ = false;
  return Status::OK();
}

template <typename Decode>
Status FileSeriesSource::DecodeBuffered(const Decode& decode, uint64_t* used) {
  while (true) {
    bytes::ByteReader in(
        std::string_view(buffer_).substr(begin_, end_ - begin_));
    Status status = decode(&in);
    if (status.ok()) {
      begin_ += in.position();
      if (used != nullptr) *used = in.position();
      return status;
    }
    if (!in.short_read() || drained_) return status;
    // Keep the unread tail, grow only when one item fills the buffer, and
    // read as much of the region as fits.
    const size_t pending = end_ - begin_;
    if (buffer_.size() < kBufferBytes) {
      buffer_.resize(kBufferBytes);
    } else if (pending == buffer_.size()) {
      buffer_.resize(buffer_.size() * 2);
    }
    std::memmove(buffer_.data(), buffer_.data() + begin_, pending);
    begin_ = 0;
    end_ = pending;
    const uint64_t want =
        std::min<uint64_t>(buffer_.size() - end_, region_end_ - read_pos_);
    stream_.read(buffer_.data() + end_, static_cast<std::streamsize>(want));
    const auto got = static_cast<size_t>(stream_.gcount());
    end_ += got;
    read_pos_ += got;
    drained_ = got < want || read_pos_ == region_end_;
  }
}

Status FileSeriesSource::StartScan() {
  delivered_ = 0;
  status_ = Seek(data_offset_, data_end_);
  if (!status_.ok()) return status_;
  ++stats_.scans;
  scans_counter_.Inc();
  return Status::OK();
}

bool FileSeriesSource::Next(FeatureSet* out) {
  if (!status_.ok()) return false;
  if (delivered_ >= num_instants_) return false;
  const uint32_t id_limit = symbols_.size();
  uint64_t used = 0;
  const Status decoded = DecodeBuffered(
      [this, id_limit, out](bytes::ByteReader* in) {
        return ReadInstant(in, encoding_, id_limit, out);
      },
      &used);
  if (!decoded.ok()) {
    status_ = Status::Corruption(decoded.message() + " in " + path_);
    return false;
  }
  ++delivered_;
  ++stats_.instants_read;
  stats_.bytes_read += used;
  instants_counter_.Inc();
  bytes_counter_.Inc(used);
  return true;
}

}  // namespace ppm::tsdb
