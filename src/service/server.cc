#include "service/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/miner.h"
#include "util/bytes.h"
#include "util/frame.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace ppm::service {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl(O_NONBLOCK) failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<int> ListenOn(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad socket path: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // Stale-socket handling: a SIGKILLed daemon leaves its socket file
  // behind. Probe before touching anything -- a live daemon accepts the
  // connect and we must NOT steal its socket; a dead one refuses, and only
  // then is the file safe to remove. Anything that isn't a socket at all
  // is someone else's file: fail instead of deleting it.
  struct stat st = {};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Status::InvalidArgument("socket path " + path +
                                     " exists and is not a socket");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
      return Status::IoError(std::string("socket() failed: ") +
                             std::strerror(errno));
    }
    if (::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::close(probe);
      return Status::AlreadyExists("ppmd already running on " + path);
    }
    const int err = errno;
    ::close(probe);
    if (err != ECONNREFUSED && err != ENOENT) {
      return Status::IoError("probe connect(" + path +
                             ") failed: " + std::strerror(err));
    }
    if (err == ECONNREFUSED) {
      PPM_LOG(kWarn) << "removing stale ppmd socket " << path;
      ::unlink(path.c_str());
    }
  } else if (errno != ENOENT) {
    return Status::IoError("lstat(" + path +
                           ") failed: " + std::strerror(errno));
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket() failed: ") +
                           std::strerror(errno));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind(" + path +
                           ") failed: " + std::strerror(err));
  }
  if (::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    return Status::IoError("listen(" + path +
                           ") failed: " + std::strerror(err));
  }
  PPM_RETURN_IF_ERROR(SetNonBlocking(fd));
  return fd;
}

}  // namespace

Result<std::unique_ptr<PatternServer>> PatternServer::Start(
    const std::string& root, const ServerOptions& options) {
  std::unique_ptr<PatternServer> server(new PatternServer(options));
  if (server->options_.num_workers == 0) server->options_.num_workers = 1;
  if (server->options_.queue_capacity == 0) {
    server->options_.queue_capacity = 2 * server->options_.num_workers;
  }
  PPM_ASSIGN_OR_RETURN(server->service_,
                       MineService::Open(root, options.service));

  AdmissionController::Options admission;
  admission.quotas = server->options_.tenant_quotas;
  admission.queue_capacity = server->options_.queue_capacity;
  admission.num_workers = server->options_.num_workers;
  admission.cache_pressure = [service = server->service_.get()] {
    return service->CachePressure();
  };
  server->admission_ =
      std::make_unique<AdmissionController>(std::move(admission));

  PPM_ASSIGN_OR_RETURN(server->listen_fd_, ListenOn(options.socket_path));
  server->bound_socket_ = true;
  if (::pipe(server->wake_pipe_) < 0) {
    return Status::IoError(std::string("pipe() failed: ") +
                           std::strerror(errno));
  }
  PPM_RETURN_IF_ERROR(SetNonBlocking(server->wake_pipe_[0]));
  PPM_RETURN_IF_ERROR(SetNonBlocking(server->wake_pipe_[1]));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  server->inflight_gauge_ = registry.GetGauge("ppm.server.inflight");
  server->connections_ = registry.GetCounter("ppm.server.connections");
  server->rejected_ = registry.GetCounter("ppm.server.rejected");
  server->io_timeouts_ = registry.GetCounter("ppm.server.io_timeouts");

  server->poller_thread_ = std::thread([s = server.get()] { s->PollerLoop(); });
  server->workers_.reserve(server->options_.num_workers);
  for (uint32_t i = 0; i < server->options_.num_workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  PPM_LOG(kInfo) << "ppmd listening on " << options.socket_path << " ("
                 << server->options_.num_workers << " workers, queue "
                 << server->options_.queue_capacity << ")";
  return server;
}

PatternServer::~PatternServer() {
  RequestStop();
  Wait();
}

void PatternServer::Wait() {
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) return;
  // Workers exit once the drain flag is up and the admitted queue is empty
  // (RequestStop is a precondition -- the destructor and ppmd both set it).
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // All connections are back with the poller now; let it flush pending
  // inline responses (bounded by the io deadline) and exit.
  poller_exit_.store(true);
  WakePoller();
  if (poller_thread_.joinable()) poller_thread_.join();
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(returns_mu_);
    returns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (bound_socket_) ::unlink(options_.socket_path.c_str());
  joined_ = true;
}

void PatternServer::WakePoller() {
  const char byte = 0;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t ignored =
      ::write(wake_pipe_[1], &byte, 1);
}

// ---------------------------------------------------------------------------
// Poller: owns every connection; workers only ever see admitted requests.

void PatternServer::PollerLoop() {
  bool drain_announced = false;
  std::vector<struct pollfd> pfds;
  std::vector<int> pfd_conns;
  while (true) {
    const bool stopping = stop_.cancelled();
    if (stopping && !drain_announced) {
      admission_->StartDrain();
      drain_announced = true;
    }
    DrainReturns();
    if (poller_exit_.load()) {
      bool flushing = false;
      for (const auto& [fd, conn] : conns_) {
        if (!conn.busy && conn.out_pos < conn.outbuf.size()) {
          flushing = true;
          break;
        }
      }
      if (!flushing) return;
    }

    pfds.clear();
    pfd_conns.clear();
    if (!stopping && !poller_exit_.load()) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conns.push_back(-1);
    }
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    pfd_conns.push_back(-2);
    for (const auto& [fd, conn] : conns_) {
      if (conn.busy) continue;
      short events = POLLIN;
      if (conn.out_pos < conn.outbuf.size()) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
      pfd_conns.push_back(fd);
    }

    const int ready = ::poll(pfds.data(), pfds.size(), 50);
    if (ready < 0 && errno != EINTR) {
      PPM_LOG(kError) << "ppmd poll failed: " << std::strerror(errno);
      return;
    }

    for (size_t i = 0; i < pfds.size() && ready > 0; ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfd_conns[i] == -1) {
        AcceptNew();
        continue;
      }
      if (pfd_conns[i] == -2) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(pfd_conns[i]);
      if (it == conns_.end() || it->second.busy) continue;
      Conn* conn = &it->second;
      bool keep = true;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) keep = false;
      if (keep && (pfds[i].revents & POLLOUT)) keep = FlushConn(conn);
      if (keep && (pfds[i].revents & (POLLIN | POLLHUP))) {
        keep = ReadConn(conn);
      }
      if (!keep) CloseConn(pfd_conns[i]);
    }

    // Slow-client defense: a frame that stalls mid-read, or a response the
    // peer will not drain, is cut off at the io deadline.
    if (options_.io_timeout_ms > 0) {
      const uint64_t now = SteadyNowMs();
      std::vector<int> expired;
      for (const auto& [fd, conn] : conns_) {
        if (conn.busy) continue;
        if ((conn.read_deadline_ms != 0 && now >= conn.read_deadline_ms) ||
            (conn.write_deadline_ms != 0 && now >= conn.write_deadline_ms)) {
          expired.push_back(fd);
        }
      }
      for (const int fd : expired) {
        io_timeouts_.Inc();
        PPM_LOG(kWarn) << "ppmd closing slow connection (io timeout)";
        CloseConn(fd);
      }
    }
  }
}

void PatternServer::AcceptNew() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
        return;
      }
      PPM_LOG(kError) << "ppmd accept failed: " << std::strerror(errno);
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    connections_.Inc();
    Conn conn;
    conn.fd = fd;
    // Greet eagerly; flushed by POLLOUT if the 8 bytes do not fit at once.
    conn.outbuf.assign(wire::kMagic, sizeof(wire::kMagic));
    Conn* inserted = &conns_.emplace(fd, std::move(conn)).first->second;
    if (!FlushConn(inserted)) CloseConn(fd);
  }
}

void PatternServer::DrainReturns() {
  std::vector<std::pair<int, bool>> returned;
  {
    std::lock_guard<std::mutex> lock(returns_mu_);
    returned.swap(returns_);
  }
  for (const auto& [fd, keep] : returned) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn* conn = &it->second;
    conn->busy = false;
    if (!keep || conn->close_after_flush) {
      CloseConn(fd);
      continue;
    }
    // A pipelined next request may already be buffered.
    if (!ProcessInbuf(conn)) CloseConn(fd);
  }
}

bool PatternServer::ReadConn(Conn* conn) {
  char buf[4096];
  while (true) {
    const ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(r));
      if (conn->inbuf.size() >
          static_cast<size_t>(wire::kMaxFramePayloadBytes) + 64) {
        return false;  // A frame may not legally be this large.
      }
      continue;
    }
    if (r == 0) return false;  // Peer closed.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  return ProcessInbuf(conn);
}

bool PatternServer::ProcessInbuf(Conn* conn) {
  while (!conn->busy) {
    if (!conn->got_magic) {
      if (conn->inbuf.size() < sizeof(wire::kMagic)) break;
      if (std::memcmp(conn->inbuf.data(), wire::kMagic,
                      sizeof(wire::kMagic)) != 0) {
        return false;  // Not a PPMRPC1 peer.
      }
      conn->inbuf.erase(0, sizeof(wire::kMagic));
      conn->got_magic = true;
      continue;
    }
    bytes::ByteReader in(conn->inbuf);
    std::string_view body;
    const frame::BlockError error = frame::ReadBlock(
        &in, frame::LenWidth::kU32, wire::kMaxFramePayloadBytes, &body);
    if (error == frame::BlockError::kTruncated) break;  // Wait for more.
    if (error == frame::BlockError::kTooLong) {
      PPM_LOG(kWarn) << "ppmd dropping connection: oversized frame";
      return false;
    }
    if (error == frame::BlockError::kChecksum) {
      PPM_LOG(kWarn) << "ppmd dropping connection: frame checksum mismatch";
      return false;
    }
    const std::string payload(body);
    conn->inbuf.erase(0, in.position());
    if (!HandleFrame(conn, payload)) return false;
  }
  // Arm the io deadline while a partial magic/frame is pending; disarm
  // once the buffer drained (an idle connection costs one fd, nothing
  // else, and may sit forever).
  if (options_.io_timeout_ms > 0) {
    if (conn->inbuf.empty() || conn->busy) {
      conn->read_deadline_ms = 0;
    } else if (conn->read_deadline_ms == 0) {
      conn->read_deadline_ms = SteadyNowMs() + options_.io_timeout_ms;
    }
  }
  return true;
}

bool PatternServer::HandleFrame(Conn* conn, std::string_view payload) {
  Result<wire::Request> request = wire::DecodeRequest(payload);
  if (!request.ok()) {
    wire::Response response;
    response.code = static_cast<uint8_t>(request.status().code());
    response.message = request.status().message();
    return RespondInline(conn, response);
  }
  switch (request->op) {
    case wire::Op::kHealth: {
      // Liveness must survive overload: answered here, never queued.
      wire::Response response;
      response.health_json = admission_->HealthJson();
      return RespondInline(conn, response);
    }
    case wire::Op::kReady: {
      const wire::ReadyState state = admission_->ready_state();
      wire::Response response;
      if (state != wire::ReadyState::kAccepting) {
        response.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
        response.message = state == wire::ReadyState::kDraining
                               ? "draining"
                               : "shedding";
      }
      response.health_json = admission_->HealthJson();
      return RespondInline(conn, response);
    }
    case wire::Op::kShutdown: {
      PPM_LOG(kInfo) << "ppmd shutdown requested over socket";
      wire::Response response;
      conn->close_after_flush = true;
      RequestStop();
      return RespondInline(conn, response);
    }
    default:
      break;
  }

  const AdmissionDecision decision =
      admission_->Admit(request->tenant, request->deadline_ms);
  if (!decision.admitted) {
    rejected_.Inc();
    wire::Response response;
    response.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
    response.message = decision.reason;
    response.retry_after_ms = decision.retry_after_ms;
    return RespondInline(conn, response);
  }

  Work work;
  work.fd = conn->fd;
  work.has_deadline = request->deadline_ms != 0;
  if (work.has_deadline) {
    // Absolute from this moment: queue wait consumes the budget.
    work.deadline = Deadline::After(request->deadline_ms);
  }
  work.request = std::move(*request);
  conn->busy = true;
  conn->read_deadline_ms = 0;
  conn->write_deadline_ms = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(work));
  }
  queue_cv_.notify_one();
  return true;
}

bool PatternServer::RespondInline(Conn* conn, const wire::Response& response) {
  wire::Response stamped = response;
  stamped.ready_state = static_cast<uint8_t>(admission_->ready_state());
  conn->outbuf.append(wire::EncodeFrame(wire::EncodeResponse(stamped)));
  return FlushConn(conn);
}

bool PatternServer::FlushConn(Conn* conn) {
  while (conn->out_pos < conn->outbuf.size()) {
    const ssize_t written =
        ::send(conn->fd, conn->outbuf.data() + conn->out_pos,
               conn->outbuf.size() - conn->out_pos,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (written > 0) {
      conn->out_pos += static_cast<size_t>(written);
      continue;
    }
    if (written < 0 && errno == EINTR) continue;
    if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (options_.io_timeout_ms > 0 && conn->write_deadline_ms == 0) {
        conn->write_deadline_ms = SteadyNowMs() + options_.io_timeout_ms;
      }
      return true;  // POLLOUT will resume the flush.
    }
    return false;
  }
  conn->outbuf.clear();
  conn->out_pos = 0;
  conn->write_deadline_ms = 0;
  return !conn->close_after_flush;
}

void PatternServer::CloseConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::close(fd);
  conns_.erase(it);
}

// ---------------------------------------------------------------------------
// Workers: execute admitted requests, write the response, hand the
// connection back.

void PatternServer::WorkerLoop() {
  while (true) {
    Work work;
    bool have_work = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
        return !queue_.empty() || stop_.cancelled();
      });
      if (!queue_.empty()) {
        work = std::move(queue_.front());
        queue_.pop_front();
        have_work = true;
      } else if (stop_.cancelled()) {
        // Drain complete: the admitted backlog is what we owe, and it is
        // empty.
        return;
      }
    }
    if (!have_work) continue;
    admission_->OnDequeued();

    inflight_gauge_.Set(executing_.fetch_add(1) + 1);
    const uint64_t started_ms = SteadyNowMs();
    wire::Response response;
    const bool deadline_op = work.request.op == wire::Op::kMine ||
                             work.request.op == wire::Op::kQuery;
    if (work.has_deadline && deadline_op && work.deadline.expired()) {
      // The queue wait consumed the whole budget; do not start mining.
      response.code = static_cast<uint8_t>(StatusCode::kDeadlineExceeded);
      response.message = "deadline expired in admission queue";
    } else {
      response = Execute(work.request, work.deadline, work.has_deadline);
    }
    admission_->OnExecuted(SteadyNowMs() - started_ms);
    inflight_gauge_.Set(executing_.fetch_sub(1) - 1);

    response.ready_state = static_cast<uint8_t>(admission_->ready_state());
    const std::string payload = wire::EncodeResponse(response);
    const bool keep =
        wire::WriteFrame(work.fd, payload, options_.io_timeout_ms).ok();
    if (!keep) io_timeouts_.Inc();
    admission_->OnCompleted(work.request.tenant);
    {
      std::lock_guard<std::mutex> lock(returns_mu_);
      returns_.emplace_back(work.fd, keep);
    }
    WakePoller();
  }
}

wire::Response PatternServer::Execute(const wire::Request& request,
                                      const Deadline& deadline,
                                      bool has_deadline) {
  wire::Response response;
  const auto fail = [&response](const Status& status) {
    response.code = static_cast<uint8_t>(status.code());
    response.message = status.message();
  };
  // Mutations answer with the catalog's new (version, length) so clients
  // can correlate later query responses with the snapshot they produced.
  const auto stamp = [this, &response, &fail](const std::string& name) {
    const auto stamped = service_->store().VersionAndLength(name);
    if (!stamped.ok()) {
      fail(stamped.status());
      return;
    }
    response.version = stamped->first;
    response.length = stamped->second;
  };
  switch (request.op) {
    case wire::Op::kPut: {
      const Status status = service_->Put(request.name, request.series);
      if (!status.ok()) {
        fail(status);
        break;
      }
      stamp(request.name);
      break;
    }
    case wire::Op::kAppend: {
      const Status status = service_->Append(request.name, request.instants);
      if (!status.ok()) {
        fail(status);
        break;
      }
      stamp(request.name);
      break;
    }
    case wire::Op::kGet: {
      Result<SeriesSnapshot> snapshot = service_->Get(request.name);
      if (!snapshot.ok()) {
        fail(snapshot.status());
        break;
      }
      response.has_series = true;
      response.series = std::move(snapshot->series);
      response.version = snapshot->version;
      response.length = response.series.length();
      break;
    }
    case wire::Op::kMine:
    case wire::Op::kQuery: {
      QueryRequest query;
      query.series = request.name;
      query.period = request.period;
      query.min_confidence = request.min_confidence;
      query.min_count = request.min_count;
      query.max_letters = request.max_letters;
      if (request.algorithm >
          static_cast<uint8_t>(Algorithm::kMaxSubpatternHitSet)) {
        fail(Status::InvalidArgument("unknown algorithm: " +
                                     std::to_string(request.algorithm)));
        break;
      }
      query.force_rebuild = request.op == wire::Op::kMine;
      if (has_deadline) query.deadline = deadline;
      Result<PatternCache::Response> served = service_->Query(query);
      if (!served.ok()) {
        fail(served.status());
        break;
      }
      response.cache_outcome = static_cast<uint8_t>(served->outcome);
      response.version = served->version;
      response.length = served->length;
      // The memo's result section was encoded once, when the memo was
      // built; the aliasing pointer keeps the memo alive until the
      // response is encoded, however the cache moves on meanwhile.
      response.result_section = std::shared_ptr<const std::string>(
          served->memo, &served->memo->section);
      break;
    }
    case wire::Op::kStats:
      response.stats_json = service_->StatsJson();
      response.metrics_prom = service_->MetricsProm();
      break;
    case wire::Op::kShutdown:
    case wire::Op::kHealth:
    case wire::Op::kReady:
      // Handled inline by the poller; unreachable here.
      break;
  }
  return response;
}

}  // namespace ppm::service
