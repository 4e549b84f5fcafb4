#ifndef PPM_SERVICE_SERVER_H_
#define PPM_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/mine_service.h"
#include "service/wire.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ppm::service {

struct ServerOptions {
  /// Unix-domain socket path the daemon listens on.
  std::string socket_path;
  /// Request-executing threads (mining, mutations). Connections are NOT
  /// pinned to workers: the poller owns every socket and only complete,
  /// admitted requests reach a worker.
  uint32_t num_workers = 4;
  /// Bounded admission-queue capacity (admitted requests waiting for a
  /// worker). 0 derives 2x workers.
  uint64_t queue_capacity = 0;
  /// Slow-client defense: a partially received frame must complete, and a
  /// response write must finish, within this budget; past it the
  /// connection is closed (it cost one fd, never a worker). 0 = no limit.
  uint64_t io_timeout_ms = 10'000;
  /// Per-tenant admission quotas (`ParseTenantQuotas`); the `default`
  /// entry governs tenants without one, including requests with no tenant.
  std::map<std::string, TenantQuota> tenant_quotas;
  /// The service layer's own configuration (budgets, fsync).
  MineServiceOptions service;
};

/// The `ppmd` daemon core: accepts PPMRPC1 connections on a unix socket and
/// serves them from a worker pool over one `MineService` (docs/SERVING.md).
///
/// Threading model (overload-safe by construction):
///
///   - One poller thread owns the listen socket and every connection fd
///     (non-blocking). It assembles frames incrementally, enforces the
///     per-connection io timeout, and answers health/ready probes,
///     shutdown, decode errors, and admission rejections inline -- so the
///     daemon stays observable and sheds load even with every worker busy.
///   - Complete requests pass through the `AdmissionController` (per-tenant
///     token buckets + in-flight caps, bounded queue, deadline-aware
///     shedding). Admitted requests join the worker queue with an absolute
///     deadline stamped at admission, so queue wait eats the mining budget.
///   - `num_workers` workers pop requests, execute them on `MineService`,
///     write the response (with the io timeout), and hand the connection
///     back to the poller for the next request.
///
/// Stop semantics (SIGTERM drain): `RequestStop()` is a single atomic store,
/// safe from a signal handler. The poller stops accepting, rejects new
/// frames as draining, and keeps probes answering; workers finish the
/// already-admitted queue -- in-flight mining is never cancelled by a drain
/// -- then exit. `Wait()` joins everything and removes the socket file.
class PatternServer {
 public:
  /// Opens the service at `root`, binds and listens on
  /// `options.socket_path`, and starts the poller + workers. A stale
  /// socket file from a SIGKILLed daemon (connect refused) is removed and
  /// rebound; a live daemon on the path fails with `kAlreadyExists`.
  static Result<std::unique_ptr<PatternServer>> Start(
      const std::string& root, const ServerOptions& options);

  ~PatternServer();

  PatternServer(const PatternServer&) = delete;
  PatternServer& operator=(const PatternServer&) = delete;

  /// Begins a graceful drain. Async-signal-safe; idempotent.
  void RequestStop() { stop_.Cancel(); }

  /// Blocks until the drain completes (call `RequestStop` first, or rely on
  /// a `shutdown` request from a client). Joins all threads.
  void Wait();

  MineService& service() { return *service_; }
  AdmissionController& admission() { return *admission_; }
  const std::string& socket_path() const { return options_.socket_path; }

 private:
  /// One connection, owned by the poller except while a worker executes
  /// its current request (`busy`).
  struct Conn {
    int fd = -1;
    /// Inbound bytes not yet consumed (partial magic / frames; may hold a
    /// pipelined next request while `busy`).
    std::string inbuf;
    /// Outbound bytes the poller still has to flush (greeting, inline
    /// responses); written on POLLOUT.
    std::string outbuf;
    size_t out_pos = 0;
    bool got_magic = false;
    bool busy = false;
    bool close_after_flush = false;
    /// Absolute ms deadlines for the current partial read / pending write;
    /// 0 = inactive. Enforced by the poller tick.
    uint64_t read_deadline_ms = 0;
    uint64_t write_deadline_ms = 0;
  };

  /// An admitted request on its way to a worker.
  struct Work {
    int fd = -1;
    wire::Request request;
    /// Absolute deadline computed at admission (0-deadline requests get a
    /// never-expiring one).
    Deadline deadline;
    bool has_deadline = false;
  };

  explicit PatternServer(const ServerOptions& options) : options_(options) {}

  void PollerLoop();
  void WorkerLoop();

  // Poller internals (poller thread only).
  void AcceptNew();
  void DrainReturns();
  bool ReadConn(Conn* conn);     // false = close
  bool ProcessInbuf(Conn* conn); // false = close (protocol violation)
  bool HandleFrame(Conn* conn, std::string_view payload);
  /// Queues an inline response on the connection and flushes what fits.
  /// Returns false when the connection should be closed (write error, or
  /// `close_after_flush` and the buffer drained) -- the caller closes.
  bool RespondInline(Conn* conn, const wire::Response& response);
  bool FlushConn(Conn* conn);    // false = close
  void CloseConn(int fd);
  void WakePoller();

  wire::Response Execute(const wire::Request& request, const Deadline& deadline,
                         bool has_deadline);
  std::string HealthJson() const;

  ServerOptions options_;
  std::unique_ptr<MineService> service_;
  std::unique_ptr<AdmissionController> admission_;
  int listen_fd_ = -1;
  /// Set once ListenOn bound our socket: a failed Start must never unlink
  /// a path it does not own (it may be a live daemon's socket).
  bool bound_socket_ = false;
  int wake_pipe_[2] = {-1, -1};

  CancelToken stop_;
  std::atomic<bool> poller_exit_{false};

  // Poller-owned; only the poller thread touches the map.
  std::map<int, Conn> conns_;

  // Worker queue.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queue_;

  // Connections coming back from workers: (fd, keep-open).
  std::mutex returns_mu_;
  std::vector<std::pair<int, bool>> returns_;

  std::thread poller_thread_;
  std::vector<std::thread> workers_;
  bool joined_ = false;
  std::mutex join_mu_;

  std::atomic<uint32_t> executing_{0};

  obs::Gauge inflight_gauge_;
  obs::Counter connections_;
  obs::Counter rejected_;
  obs::Counter io_timeouts_;
};

}  // namespace ppm::service

#endif  // PPM_SERVICE_SERVER_H_
