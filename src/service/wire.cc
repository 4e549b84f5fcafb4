#include "service/wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "tsdb/instant_codec.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/frame.h"
#include "util/stopwatch.h"

namespace ppm::service::wire {

namespace {

using bytes::PutF64;
using bytes::PutString;
using bytes::PutU32;
using bytes::PutU64;
using bytes::PutU8;

Status Truncated() {
  return Status::InvalidArgument("truncated PPMRPC1 payload");
}

/// Reads a string; every PPMRPC1 read failure is a truncated payload.
Status ReadString(bytes::ByteReader* reader, std::string* value) {
  return reader->ReadString(value) ? Status::OK() : Truncated();
}

/// Reads the leading layout marker every payload starts with.
Status ReadMarker(bytes::ByteReader* reader) {
  uint8_t marker = 0;
  if (!reader->ReadU8(&marker)) return Truncated();
  if (marker != kV2Marker) {
    return Status::InvalidArgument(
        "PPMRPC1 payload without the v2 marker (the v1 layout is retired)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Series block: the series header, then every instant fixed-width (the
// .ppmts v1 body, docs/FILE_FORMATS.md), ids checked against the symbols.

void PutSeries(std::string* out, const tsdb::TimeSeries& series) {
  tsdb::PutSeriesHeader(out, series.symbols(), series.length());
  tsdb::PutInstants(out, series, tsdb::InstantEncoding::kFixed32);
}

Status ReadSeries(bytes::ByteReader* reader, tsdb::TimeSeries* series) {
  uint64_t num_instants = 0;
  Status status =
      tsdb::ReadSeriesHeader(reader, &series->symbols(), &num_instants);
  if (status.ok()) {
    status = tsdb::ReadInstants(reader, tsdb::InstantEncoding::kFixed32,
                                num_instants, series);
  }
  if (!status.ok()) {
    return Status::InvalidArgument("bad PPMRPC1 series: " + status.message());
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Request / Response payloads.

std::string ReadyStateName(uint8_t state) {
  switch (static_cast<ReadyState>(state)) {
    case ReadyState::kAccepting:
      return "accepting";
    case ReadyState::kDraining:
      return "draining";
    case ReadyState::kShedding:
      return "shedding";
  }
  return "unknown(" + std::to_string(state) + ")";
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  PutU8(&out, kV2Marker);
  PutU8(&out, static_cast<uint8_t>(request.op));
  PutU32(&out, request.deadline_ms);
  PutString(&out, request.tenant);
  PutString(&out, request.name);
  switch (request.op) {
    case Op::kPut:
      PutSeries(&out, request.series);
      break;
    case Op::kAppend:
      PutU64(&out, request.instants.size());
      for (const std::vector<std::string>& instant : request.instants) {
        PutU32(&out, static_cast<uint32_t>(instant.size()));
        for (const std::string& feature : instant) PutString(&out, feature);
      }
      break;
    case Op::kMine:
    case Op::kQuery:
      PutU32(&out, request.period);
      PutF64(&out, request.min_confidence);
      PutU64(&out, request.min_count);
      PutU32(&out, request.max_letters);
      PutU8(&out, request.algorithm);
      break;
    case Op::kGet:
    case Op::kStats:
    case Op::kShutdown:
    case Op::kHealth:
    case Op::kReady:
      break;
  }
  return out;
}

Result<Request> DecodeRequest(std::string_view payload) {
  bytes::ByteReader reader(payload);
  Request request;
  PPM_RETURN_IF_ERROR(ReadMarker(&reader));
  uint8_t op = 0;
  if (!reader.ReadU8(&op)) return Truncated();
  if (op < static_cast<uint8_t>(Op::kPut) ||
      op > static_cast<uint8_t>(Op::kReady)) {
    return Status::InvalidArgument("unknown PPMRPC1 op: " + std::to_string(op));
  }
  request.op = static_cast<Op>(op);
  if (!reader.ReadU32(&request.deadline_ms)) return Truncated();
  PPM_RETURN_IF_ERROR(ReadString(&reader, &request.tenant));
  PPM_RETURN_IF_ERROR(ReadString(&reader, &request.name));
  switch (request.op) {
    case Op::kPut:
      PPM_RETURN_IF_ERROR(ReadSeries(&reader, &request.series));
      break;
    case Op::kAppend: {
      uint64_t num_instants = 0;
      if (!reader.ReadU64(&num_instants)) return Truncated();
      if (num_instants > reader.remaining() / 4) return Truncated();
      request.instants.reserve(num_instants);
      for (uint64_t t = 0; t < num_instants; ++t) {
        uint32_t count = 0;
        if (!reader.ReadU32(&count)) return Truncated();
        std::vector<std::string> instant;
        instant.reserve(count < 64 ? count : 64);
        for (uint32_t i = 0; i < count; ++i) {
          std::string feature;
          PPM_RETURN_IF_ERROR(ReadString(&reader, &feature));
          instant.push_back(std::move(feature));
        }
        request.instants.push_back(std::move(instant));
      }
      break;
    }
    case Op::kMine:
    case Op::kQuery:
      if (!(reader.ReadU32(&request.period) &&
            reader.ReadF64(&request.min_confidence) &&
            reader.ReadU64(&request.min_count) &&
            reader.ReadU32(&request.max_letters) &&
            reader.ReadU8(&request.algorithm))) {
        return Truncated();
      }
      break;
    case Op::kGet:
    case Op::kStats:
    case Op::kShutdown:
    case Op::kHealth:
    case Op::kReady:
      break;
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes in PPMRPC1 request");
  }
  return request;
}

std::vector<WirePattern> ToWirePatterns(const MiningResult& result) {
  std::vector<WirePattern> patterns;
  patterns.reserve(result.size());
  for (const FrequentPattern& frequent : result.patterns()) {
    WirePattern& pattern = patterns.emplace_back();
    for (uint32_t position = 0; position < frequent.pattern.period();
         ++position) {
      frequent.pattern.at(position).ForEach(
          [&pattern, position](uint32_t feature) {
            pattern.letters.emplace_back(position, feature);
          });
    }
    pattern.count = frequent.count;
    pattern.confidence = frequent.confidence;
  }
  return patterns;
}

void PutResultSection(std::string* out, uint64_t num_periods, uint32_t period,
                      const std::vector<std::string>& symbols,
                      const std::vector<WirePattern>& patterns) {
  PutU64(out, num_periods);
  PutU32(out, period);
  PutU32(out, static_cast<uint32_t>(symbols.size()));
  for (const std::string& symbol : symbols) PutString(out, symbol);
  PutU64(out, patterns.size());
  for (const WirePattern& pattern : patterns) {
    PutU32(out, static_cast<uint32_t>(pattern.letters.size()));
    for (const auto& [position, feature] : pattern.letters) {
      PutU32(out, position);
      PutU32(out, feature);
    }
    PutU64(out, pattern.count);
    PutF64(out, pattern.confidence);
  }
}

std::string EncodeResponse(const Response& response, uint8_t version) {
  PPM_CHECK(version == 2);
  std::string out;
  PutU8(&out, kV2Marker);
  PutU8(&out, response.code);
  PutString(&out, response.message);
  PutU8(&out, response.cache_outcome);
  PutU64(&out, response.version);
  PutU64(&out, response.length);
  if (response.result_section != nullptr) {
    out += *response.result_section;
  } else {
    PutResultSection(&out, response.num_periods, response.period,
                     response.symbols, response.patterns);
  }
  PutU8(&out, response.has_series ? 1 : 0);
  if (response.has_series) PutSeries(&out, response.series);
  PutString(&out, response.stats_json);
  PutString(&out, response.metrics_prom);
  PutU32(&out, response.retry_after_ms);
  PutU8(&out, response.ready_state);
  PutString(&out, response.health_json);
  return out;
}

Result<Response> DecodeResponse(std::string_view payload) {
  bytes::ByteReader reader(payload);
  Response response;
  PPM_RETURN_IF_ERROR(ReadMarker(&reader));
  if (!reader.ReadU8(&response.code)) return Truncated();
  PPM_RETURN_IF_ERROR(ReadString(&reader, &response.message));
  uint32_t num_symbols = 0;
  if (!(reader.ReadU8(&response.cache_outcome) &&
        reader.ReadU64(&response.version) && reader.ReadU64(&response.length) &&
        reader.ReadU64(&response.num_periods) &&
        reader.ReadU32(&response.period) && reader.ReadU32(&num_symbols))) {
    return Truncated();
  }
  if (num_symbols > reader.remaining() / 4) return Truncated();
  response.symbols.reserve(num_symbols);
  for (uint32_t i = 0; i < num_symbols; ++i) {
    std::string symbol;
    PPM_RETURN_IF_ERROR(ReadString(&reader, &symbol));
    response.symbols.push_back(std::move(symbol));
  }
  uint64_t num_patterns = 0;
  if (!reader.ReadU64(&num_patterns)) return Truncated();
  if (num_patterns > reader.remaining() / 4) return Truncated();
  response.patterns.reserve(num_patterns);
  for (uint64_t i = 0; i < num_patterns; ++i) {
    WirePattern pattern;
    uint32_t num_letters = 0;
    if (!reader.ReadU32(&num_letters)) return Truncated();
    if (num_letters > reader.remaining() / 8) return Truncated();
    pattern.letters.reserve(num_letters);
    for (uint32_t j = 0; j < num_letters; ++j) {
      uint32_t position = 0;
      uint32_t feature = 0;
      if (!(reader.ReadU32(&position) && reader.ReadU32(&feature))) {
        return Truncated();
      }
      if (position >= response.period || feature >= num_symbols) {
        return Status::InvalidArgument(
            "letter outside the period or symbol list in PPMRPC1 response");
      }
      pattern.letters.emplace_back(position, feature);
    }
    if (!(reader.ReadU64(&pattern.count) &&
          reader.ReadF64(&pattern.confidence))) {
      return Truncated();
    }
    response.patterns.push_back(std::move(pattern));
  }
  uint8_t has_series = 0;
  if (!reader.ReadU8(&has_series)) return Truncated();
  response.has_series = has_series != 0;
  if (response.has_series) {
    PPM_RETURN_IF_ERROR(ReadSeries(&reader, &response.series));
  }
  PPM_RETURN_IF_ERROR(ReadString(&reader, &response.stats_json));
  PPM_RETURN_IF_ERROR(ReadString(&reader, &response.metrics_prom));
  if (!(reader.ReadU32(&response.retry_after_ms) &&
        reader.ReadU8(&response.ready_state))) {
    return Truncated();
  }
  PPM_RETURN_IF_ERROR(ReadString(&reader, &response.health_json));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes in PPMRPC1 response");
  }
  return response;
}

// ---------------------------------------------------------------------------
// Frame I/O.

namespace {

/// Writes exactly `n` bytes. Sends are issued with MSG_DONTWAIT so the same
/// path serves blocking and non-blocking fds: on a full socket buffer we
/// poll for writability -- forever when `timeout_ms` is 0, else until the
/// overall budget is spent, at which point the peer is declared slow and the
/// write fails with `kIoError` ("timed out") instead of pinning the caller.
Status WriteAll(int fd, const void* data, size_t n, uint64_t timeout_ms) {
  const char* p = static_cast<const char*>(data);
  const uint64_t start = SteadyNowMs();
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not process death.
    const ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (written > 0) {
      p += written;
      n -= static_cast<size_t>(written);
      continue;
    }
    if (written < 0 && errno == EINTR) continue;
    if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int wait_ms = -1;
      if (timeout_ms > 0) {
        const uint64_t elapsed = SteadyNowMs() - start;
        if (elapsed >= timeout_ms) {
          return Status::IoError("socket write timed out");
        }
        wait_ms = static_cast<int>(timeout_ms - elapsed);
      }
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0 && errno != EINTR) {
        return Status::IoError(std::string("socket poll failed: ") +
                               std::strerror(errno));
      }
      continue;
    }
    return Status::IoError(std::string("socket write failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// Reads exactly `n` bytes; polls in 50 ms ticks so `should_stop` can abort.
/// `*eof` is set when the peer closed cleanly before the first byte.
Status ReadAll(int fd, void* data, size_t n,
               const std::function<bool()>& should_stop, bool* eof) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < n) {
    if (should_stop && should_stop()) {
      return Status::Cancelled("server stopping");
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("socket poll failed: ") +
                             std::strerror(errno));
    }
    if (ready == 0) continue;
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::IoError(std::string("socket read failed: ") +
                             std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof != nullptr) {
        *eof = true;
        return Status::NotFound("connection closed");
      }
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status WriteMagic(int fd) {
  return WriteAll(fd, kMagic, sizeof(kMagic), /*timeout_ms=*/0);
}

Status ExpectMagic(int fd) {
  char magic[sizeof(kMagic)];
  bool eof = false;
  PPM_RETURN_IF_ERROR(ReadAll(fd, magic, sizeof(magic), {}, &eof));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad PPMRPC1 magic");
  }
  return Status::OK();
}

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  frame::PutBlock(&out, payload, frame::LenWidth::kU32);
  return out;
}

Status WriteFrame(int fd, std::string_view payload, uint64_t timeout_ms) {
  if (payload.size() > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("PPMRPC1 frame too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  const std::string frame = EncodeFrame(payload);
  return WriteAll(fd, frame.data(), frame.size(), timeout_ms);
}

Result<std::string> ReadFrame(int fd,
                              const std::function<bool()>& should_stop) {
  char header_bytes[frame::HeaderBytes(frame::LenWidth::kU32)];
  bool eof = false;
  PPM_RETURN_IF_ERROR(
      ReadAll(fd, header_bytes, sizeof(header_bytes), should_stop, &eof));
  bytes::ByteReader header_in(
      std::string_view(header_bytes, sizeof(header_bytes)));
  frame::BlockHeader header;
  if (frame::ReadHeader(&header_in, frame::LenWidth::kU32,
                        kMaxFramePayloadBytes,
                        &header) != frame::BlockError::kOk) {
    return Status::InvalidArgument("PPMRPC1 frame too large: " +
                                   std::to_string(header.len) + " bytes");
  }
  std::string payload(header.len, '\0');
  PPM_RETURN_IF_ERROR(
      ReadAll(fd, payload.data(), payload.size(), should_stop, nullptr));
  if (frame::VerifyBody(header, payload) != frame::BlockError::kOk) {
    return Status::Corruption("PPMRPC1 frame checksum mismatch");
  }
  return payload;
}

}  // namespace ppm::service::wire
