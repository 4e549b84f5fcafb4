#include "tsdb/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>

#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "tsdb/fault_injection.h"
#include "tsdb/instant_codec.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/fs.h"

namespace ppm::tsdb {

namespace fs = std::filesystem;

namespace {

using bytes::LoadU32;
using bytes::LoadU64;

/// Encodes `instant` as a record payload: the v2 instant encoding.
Status EncodeWalPayload(const FeatureSet& instant, std::string* out) {
  uint32_t last = 0;
  instant.ForEach([&last](uint32_t feature) { last = feature; });
  if (last > kMaxWalFeatureId) {
    return Status::InvalidArgument("feature id beyond WAL cap: " +
                                   std::to_string(last));
  }
  PutInstant(out, instant, InstantEncoding::kVarintDelta);
  return Status::OK();
}

Result<FeatureSet> DecodeWalPayload(std::string_view payload) {
  bytes::ByteReader in(payload);
  FeatureSet instant;
  const Status status = ReadInstant(&in, InstantEncoding::kVarintDelta,
                                    kMaxWalFeatureId + 1, &instant);
  if (!status.ok()) {
    return Status::Corruption("WAL payload: " + status.message());
  }
  if (!in.exhausted()) {
    return Status::Corruption("WAL payload: trailing bytes");
  }
  return instant;
}

/// True when a structurally valid record (good header CRC, plausible
/// length and sequence, good payload CRC) starts at or after `from`. Used
/// to tell a torn tail (truncate and continue) from interior corruption
/// (later valid data would be silently dropped -- refuse instead).
bool HasLaterValidRecord(const std::string& bytes, size_t from,
                         uint64_t min_seq) {
  if (bytes.size() < kWalRecordHeaderBytes) return false;
  for (size_t offset = from;
       offset + kWalRecordHeaderBytes <= bytes.size(); ++offset) {
    const char* p = bytes.data() + offset;
    if (crc32c::Value(p, 12) != LoadU32(p + 12)) continue;
    const uint32_t len = LoadU32(p);
    const uint64_t seq = LoadU64(p + 4);
    if (len > kMaxWalRecordBytes) continue;
    if (seq < min_seq) continue;
    if (offset + kWalRecordHeaderBytes + len > bytes.size()) continue;
    if (crc32c::Value(p + kWalRecordHeaderBytes, len) != LoadU32(p + 16)) {
      continue;
    }
    return true;
  }
  return false;
}

Result<WalReplayInfo> ReplayWalImpl(
    const std::string& path, uint64_t start_seq, bool infer_base,
    const std::function<Status(uint64_t seq, const FeatureSet& instant)>& fn) {
  Result<std::string> read = ReadFileWithFaults(path);
  if (!read.ok()) return read.status();
  const std::string& bytes = *read;

  WalReplayInfo info;
  if (bytes.size() < sizeof(kWalMagic)) {
    // Crash during creation: nothing durable yet. The writer starts fresh.
    info.torn_tail = !bytes.empty();
    info.dropped_bytes = bytes.size();
    RecordDbPass("wal_replay", info.records_delivered, 0);
    return info;
  }
  if (bytes.compare(0, sizeof(kWalMagic), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Corruption("bad WAL magic: " + path);
  }

  size_t offset = sizeof(kWalMagic);
  info.valid_bytes = offset;
  uint64_t expected_seq = 0;
  bool base_known = !infer_base;
  bool torn = false;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kWalRecordHeaderBytes) {
      torn = true;  // Crash mid-header.
      break;
    }
    const char* p = bytes.data() + offset;
    const uint32_t len = LoadU32(p);
    const uint64_t seq = LoadU64(p + 4);
    const uint32_t header_crc = LoadU32(p + 12);
    const uint32_t payload_crc = LoadU32(p + 16);
    if (crc32c::Value(p, 12) != header_crc) {
      // A damaged header hiding valid later records is interior corruption;
      // garbage with nothing valid after it is a torn tail.
      if (HasLaterValidRecord(bytes, offset + 1, expected_seq)) {
        return Status::Corruption("WAL record header checksum mismatch at "
                                  "offset " + std::to_string(offset));
      }
      torn = true;
      break;
    }
    if (len > kMaxWalRecordBytes) {
      return Status::Corruption("WAL record length implausible at offset " +
                                std::to_string(offset));
    }
    if (bytes.size() - offset - kWalRecordHeaderBytes < len) {
      torn = true;  // Crash mid-payload.
      break;
    }
    const char* payload = p + kWalRecordHeaderBytes;
    if (crc32c::Value(payload, len) != payload_crc) {
      if (offset + kWalRecordHeaderBytes + len == bytes.size()) {
        torn = true;  // Tail record with a half-written payload.
        break;
      }
      return Status::Corruption("WAL payload checksum mismatch at offset " +
                                std::to_string(offset));
    }
    if (!base_known) {
      // Tail log: the first record fixes the base sequence.
      expected_seq = seq;
      base_known = true;
    }
    if (seq != expected_seq) {
      return Status::Corruption(
          "WAL sequence gap: expected " + std::to_string(expected_seq) +
          ", found " + std::to_string(seq));
    }
    PPM_ASSIGN_OR_RETURN(const FeatureSet instant,
                         DecodeWalPayload(std::string_view(payload, len)));
    if (seq >= start_seq) {
      PPM_RETURN_IF_ERROR(fn(seq, instant));
      ++info.records_delivered;
    } else {
      ++info.records_skipped;
    }
    ++expected_seq;
    offset += kWalRecordHeaderBytes + len;
    info.valid_bytes = offset;
  }
  info.next_seq = expected_seq;
  info.torn_tail = torn;
  info.dropped_bytes = bytes.size() - info.valid_bytes;
  // One logical pass per successful replay, sized by what it delivered --
  // the per-append cost a resumed stream pays instead of rescanning
  // history (`ppm.scan.passes.wal_replay`).
  RecordDbPass("wal_replay", info.records_delivered, 0);
  return info;
}

}  // namespace

Result<WalReplayInfo> ReplayWal(
    const std::string& path, uint64_t start_seq,
    const std::function<Status(uint64_t seq, const FeatureSet& instant)>& fn) {
  return ReplayWalImpl(path, start_seq, /*infer_base=*/false, fn);
}

Result<WalReplayInfo> ReplayWalTail(
    const std::string& path, uint64_t start_seq,
    const std::function<Status(uint64_t seq, const FeatureSet& instant)>& fn) {
  return ReplayWalImpl(path, start_seq, /*infer_base=*/true, fn);
}

WalWriter::WalWriter(std::string path, WalFsync fsync, uint64_t next_seq)
    : path_(std::move(path)), fsync_(fsync), next_seq_(next_seq) {}

WalWriter::~WalWriter() {
  if (sync_fd_ >= 0) ::close(sync_fd_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     WalFsync fsync) {
  return OpenImpl(path, fsync, 0, 0, /*fresh_seq=*/0);
}

Result<std::unique_ptr<WalWriter>> WalWriter::CreateAt(const std::string& path,
                                                       WalFsync fsync,
                                                       uint64_t first_seq) {
  return OpenImpl(path, fsync, first_seq, 0, /*fresh_seq=*/first_seq);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   WalFsync fsync,
                                                   uint64_t next_seq,
                                                   uint64_t valid_bytes) {
  return OpenImpl(path, fsync, next_seq, valid_bytes, /*fresh_seq=*/0);
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenImpl(const std::string& path,
                                                       WalFsync fsync,
                                                       uint64_t next_seq,
                                                       uint64_t valid_bytes,
                                                       uint64_t fresh_seq) {
  std::error_code ec;
  const bool fresh = valid_bytes < sizeof(kWalMagic) || !fs::exists(path, ec);
  if (fresh) {
    next_seq = fresh_seq;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot create WAL: " + path);
    out.write(kWalMagic, sizeof(kWalMagic));
    out.flush();
    if (!out) return Status::IoError("WAL create failed: " + path);
  } else {
    const uint64_t current = fs::file_size(path, ec);
    if (ec) return Status::IoError("cannot stat WAL: " + path);
    if (current < valid_bytes) {
      return Status::Corruption("WAL shorter than its valid prefix: " + path);
    }
    if (current > valid_bytes) {
      // Discard the torn tail found by replay before appending past it.
      fs::resize_file(path, valid_bytes, ec);
      if (ec) return Status::IoError("WAL truncate failed: " + path);
    }
  }

  std::unique_ptr<WalWriter> writer(new WalWriter(path, fsync, next_seq));
  writer->out_.open(path, std::ios::binary | std::ios::app);
  if (!writer->out_) return Status::IoError("cannot append to WAL: " + path);
  writer->sync_fd_ = ::open(path.c_str(), O_RDONLY);
  if (writer->sync_fd_ < 0) {
    return Status::IoError("cannot open WAL for fsync: " + path);
  }
  if (fresh) {
    // Make the file's existence durable: fsync it and its directory.
    PPM_RETURN_IF_ERROR(writer->Sync());
    std::string parent = fs::path(path).parent_path().string();
    if (parent.empty()) parent = ".";
    if (FaultInjector::Global().FsyncShouldFail()) {
      return Status::IoError("injected fsync failure: " + parent);
    }
    PPM_RETURN_IF_ERROR(fsutil::FsyncPath(parent));
  }
  return writer;
}

Status WalWriter::Append(const FeatureSet& instant) {
  // The payload is encoded in place after a reserved header, which is
  // filled in once the payload length and CRC are known.
  std::string frame(kWalRecordHeaderBytes, '\0');
  PPM_RETURN_IF_ERROR(EncodeWalPayload(instant, &frame));
  const size_t payload_len = frame.size() - kWalRecordHeaderBytes;
  char* header = frame.data();
  bytes::StoreU32(header, static_cast<uint32_t>(payload_len));
  bytes::StoreU64(header + 4, next_seq_);
  bytes::StoreU32(header + 12, crc32c::Value(header, 12));
  bytes::StoreU32(header + 16, crc32c::Value(header + kWalRecordHeaderBytes,
                                             payload_len));

  if (FaultInjector::Global().ConsumeWalAppendCrash()) {
    // Deterministic kill mid-write: half the frame reaches the file, no
    // fsync, and the process dies like a SIGKILL would leave it.
    out_.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
    out_.flush();
    std::_Exit(137);
  }

  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) return Status::IoError("WAL append failed: " + path_);
  ++next_seq_;
  obs::MetricsRegistry::Global().GetCounter("ppm.wal.appends").Inc();
  obs::MetricsRegistry::Global()
      .GetCounter("ppm.wal.append_bytes")
      .Inc(frame.size());
  if (fsync_ == WalFsync::kAlways) PPM_RETURN_IF_ERROR(Sync());
  return Status::OK();
}

Status WalWriter::Sync() {
  out_.flush();
  if (!out_) return Status::IoError("WAL flush failed: " + path_);
  if (FaultInjector::Global().FsyncShouldFail()) {
    return Status::IoError("injected fsync failure: " + path_);
  }
  if (::fsync(sync_fd_) != 0) {
    return Status::IoError("WAL fsync failed: " + path_);
  }
  obs::MetricsRegistry::Global().GetCounter("ppm.wal.fsyncs").Inc();
  return Status::OK();
}

}  // namespace ppm::tsdb
