#ifndef PPM_SERVICE_WIRE_H_
#define PPM_SERVICE_WIRE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mining_result.h"
#include "tsdb/time_series.h"
#include "util/status.h"

namespace ppm::service::wire {

/// PPMRPC1: the length-prefixed binary protocol `ppmd` speaks over its unix
/// socket (docs/SERVING.md).
///
/// Connection: each side sends the 8-byte magic first; then the client sends
/// request frames and reads one response frame per request.
///
/// Frame:
///   payload_len   u32 LE   payload bytes (<= kMaxFramePayloadBytes)
///   payload_crc   u32 LE   CRC-32C of the payload
///   payload       bytes
///
/// Payload scalars are little-endian; strings are u32 length + bytes;
/// doubles travel as their IEEE-754 bit pattern in a u64. Decoders validate
/// every length against the remaining payload and every feature id against
/// the symbol table, so a malformed or truncated frame yields
/// `kInvalidArgument`/`kCorruption`, never out-of-bounds access.
///
/// Payload versioning: the original (v1) request payload starts with the
/// `op` byte. The multi-tenant revision (v2) starts with the marker byte
/// `kV2Marker` (0xFF, never a valid op or status code) and adds a tenant id
/// to requests plus retry-after / readiness fields to responses. Decoders
/// auto-detect the layout from the first byte, so a new server accepts old
/// clients (their requests map to the default tenant) and answers them in
/// the layout they spoke; an old server answers a v2 frame with a clean
/// "unknown op" error.
inline constexpr char kMagic[8] = {'P', 'P', 'M', 'R', 'P', 'C', '1', '\n'};
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 26;
inline constexpr uint8_t kV2Marker = 0xff;

enum class Op : uint8_t {
  kPut = 1,
  kAppend = 2,
  kGet = 3,
  kMine = 4,
  kQuery = 5,
  kStats = 6,
  kShutdown = 7,
  /// v2-only: liveness probe, always answered -- even while shedding.
  kHealth = 8,
  /// v2-only: readiness probe; non-OK while draining or shedding.
  kReady = 9,
};

/// Admission readiness, least to most degraded (docs/SERVING.md).
enum class ReadyState : uint8_t {
  kAccepting = 0,
  kDraining = 1,
  kShedding = 2,
};

/// Human-readable form of a wire `ready_state` byte ("accepting",
/// "draining", "shedding"; unknown bytes print as "unknown(N)").
std::string ReadyStateName(uint8_t state);

struct Request {
  Op op = Op::kQuery;
  /// Per-request deadline in milliseconds (0 = none); the server converts
  /// it to an absolute deadline *at admission*, so time spent queued is
  /// subtracted from the mining budget and an overdue request returns
  /// `kDeadlineExceeded` without disturbing other in-flight requests.
  uint32_t deadline_ms = 0;
  /// v2: tenant id the request is accounted and rate-limited under; empty
  /// (and every v1 request) maps to the default tenant.
  std::string tenant;
  std::string name;

  /// kPut payload.
  tsdb::TimeSeries series;
  /// kAppend payload: instants as feature-name lists.
  std::vector<std::vector<std::string>> instants;

  /// kMine / kQuery parameters (kMine forces a fresh re-mine; kQuery may
  /// serve from the pattern cache).
  uint32_t period = 0;
  double min_confidence = 0.8;
  uint64_t min_count = 0;
  uint32_t max_letters = 0;
  /// Cast of `ppm::Algorithm`.
  uint8_t algorithm = 1;

  /// Layout the request was decoded from (1 or 2); responses are encoded
  /// in the same layout so old clients never see fields they cannot parse.
  uint8_t wire_version = 1;
};

/// One mined pattern on the wire: its letters as (position, feature-id)
/// pairs against the response's symbol list.
struct WirePattern {
  std::vector<std::pair<uint32_t, uint32_t>> letters;
  uint64_t count = 0;
  double confidence = 0.0;
};

struct Response {
  /// Cast of `StatusCode`; nonzero means `message` explains the failure and
  /// the result fields are empty.
  uint8_t code = 0;
  std::string message;

  /// kMine / kQuery results.
  uint8_t cache_outcome = 0;  // PatternCache::Outcome
  uint64_t version = 0;
  uint64_t length = 0;
  uint64_t num_periods = 0;
  uint32_t period = 0;
  std::vector<std::string> symbols;
  std::vector<WirePattern> patterns;
  /// Encoder side only: the four fields above already written by
  /// `PutResultSection` (the pattern cache encodes each memo once). When
  /// set, `EncodeResponse` copies these bytes in their place and the four
  /// fields are ignored; decoders always fill the fields.
  std::shared_ptr<const std::string> result_section;

  /// kGet result.
  bool has_series = false;
  tsdb::TimeSeries series;

  /// kStats result.
  std::string stats_json;
  std::string metrics_prom;

  /// v2 only. On a `kResourceExhausted` rejection, a structured hint: the
  /// server's estimate of when a retry could be admitted (0 = no hint).
  uint32_t retry_after_ms = 0;
  /// v2 only: cast of `ReadyState`, stamped on every v2 response.
  uint8_t ready_state = 0;
  /// v2 only: kHealth/kReady detail (queue depth, tenants, cache pressure).
  std::string health_json;
};

/// Picks v2 when the request uses v2-only features (a tenant id or a
/// health/ready op), v1 otherwise -- so a plain `ppm client` exercises the
/// v1 compatibility path against a new server.
std::string EncodeRequest(const Request& request);
/// Encodes in an explicit layout (tests and version-pinned callers).
std::string EncodeRequest(const Request& request, uint8_t version);
Result<Request> DecodeRequest(std::string_view payload);

/// The patterns of `result` as wire letters, position-major with ascending
/// feature ids per position.
std::vector<WirePattern> ToWirePatterns(const MiningResult& result);

/// Appends the result section of a response payload: `num_periods u64,
/// period u32, symbols, patterns`. The only writer of those bytes, so a
/// pre-encoded `Response::result_section` is byte-identical to encoding the
/// fields.
void PutResultSection(std::string* out, uint64_t num_periods, uint32_t period,
                      const std::vector<std::string>& symbols,
                      const std::vector<WirePattern>& patterns);

std::string EncodeResponse(const Response& response);  // v1 layout
std::string EncodeResponse(const Response& response, uint8_t version);
Result<Response> DecodeResponse(std::string_view payload);

/// Writes the 8-byte magic / one CRC-framed payload to `fd`, retrying
/// partial writes. `kIoError` on a closed peer. `timeout_ms` bounds the
/// whole write (0 = no bound): a peer that stops reading mid-response
/// yields `kIoError` after `timeout_ms` instead of pinning the writer
/// forever. Works on blocking and non-blocking fds.
Status WriteMagic(int fd);
Status WriteFrame(int fd, std::string_view payload, uint64_t timeout_ms = 0);

/// Serializes the frame header (length + CRC) and payload into one buffer
/// for writers that flush asynchronously (the server's poller). Lengths are
/// NOT checked here -- tests use this to craft adversarial frames.
std::string EncodeFrame(std::string_view payload);

/// Reads and verifies the peer's magic.
Status ExpectMagic(int fd);

/// Reads one frame. Blocks in 50 ms poll ticks so `should_stop` (optional)
/// can abort a drain: returns `kCancelled` when it fires between ticks.
/// A clean close before any header byte returns `kNotFound` ("connection
/// closed"); truncation mid-frame or a CRC mismatch returns `kIoError` /
/// `kCorruption`.
Result<std::string> ReadFrame(int fd,
                              const std::function<bool()>& should_stop = {});

}  // namespace ppm::service::wire

#endif  // PPM_SERVICE_WIRE_H_
