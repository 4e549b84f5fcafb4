#ifndef PPM_PERFBENCH_LOADGEN_H_
#define PPM_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ppm::perfbench {

/// One request of a load schedule.
struct LoadOp {
  /// Intended send time (`NowNs` clock). Latency counts from here, so a
  /// stall also charges the requests it delayed.
  uint64_t due_ns = 0;
  uint32_t series = 0;
  bool append = false;
};

/// The benchmark's open-loop load generator: one thread multiplexing a few
/// PPMRPC1 connections to a `PatternServer`'s unix socket with non-blocking
/// I/O.
///
/// Requests of series `s` always travel on connection `s % connections`,
/// one outstanding request per connection, in FIFO order: a request that
/// falls due while its connection is busy waits, and that wait is part of
/// its latency. Pinning a series to one connection also fixes the order in
/// which its appends apply, so the benchmark can rebuild every snapshot.
class LoadGen {
 public:
  /// Encodes the request payload for `op`; called when `op` is sent.
  using EncodeFn = std::function<std::string(const LoadOp& op)>;
  /// Receives the response payload to `op`, with its latency from the
  /// intended send time.
  using ResponseFn = std::function<void(const LoadOp& op,
                                        std::string_view payload,
                                        uint64_t latency_ns)>;

  static Result<std::unique_ptr<LoadGen>> Connect(
      const std::string& socket_path, uint32_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Open loop: releases `ops` (sorted by `due_ns`) at their due times and
  /// returns once every response has arrived. `late_ms` receives, per op,
  /// how long after its due time the generator released it.
  Status RunOpenLoop(const std::vector<LoadOp>& ops, const EncodeFn& encode,
                     const ResponseFn& on_response,
                     std::vector<double>* late_ms);

 private:
  struct Conn {
    int fd = -1;
    std::deque<LoadOp> waiting;
    bool busy = false;
    LoadOp inflight;
    std::string out;
    size_t out_pos = 0;
    std::string in;
  };

  LoadGen() = default;

  Status Send(Conn* conn, const LoadOp& op, const EncodeFn& encode);
  Status Flush(Conn* conn);
  /// Reads what `conn` has; when a whole response frame is in, moves its
  /// payload to `*payload`, frees the connection and sets `*completed`.
  Status Receive(Conn* conn, std::string* payload, bool* completed);
  /// Waits up to `timeout_ns` for socket events and services them; the
  /// indices of connections that completed a request go to `completed`.
  Status Poll(uint64_t timeout_ns, const ResponseFn& on_response,
              std::vector<uint32_t>* completed);

  std::vector<Conn> conns_;
};

}  // namespace ppm::perfbench

#endif  // PPM_PERFBENCH_LOADGEN_H_
