#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "common.h"
#include "service/wire.h"
#include "util/crc32c.h"

namespace ppm::perfbench {

namespace {

/// A run whose outstanding requests see no response for this long fails
/// instead of hanging the benchmark.
constexpr uint64_t kStallNs = 60'000'000'000ull;

constexpr size_t kFrameHeaderBytes = 8;

uint32_t LoadU32(const char* bytes) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  return value;
}

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect " + path + ": " + std::strerror(err));
  }
  return fd;
}

}  // namespace

Result<std::unique_ptr<LoadGen>> LoadGen::Connect(
    const std::string& socket_path, uint32_t connections) {
  std::unique_ptr<LoadGen> gen(new LoadGen());
  gen->conns_.resize(connections);
  for (Conn& conn : gen->conns_) {
    PPM_ASSIGN_OR_RETURN(conn.fd, ConnectUnix(socket_path));
    PPM_RETURN_IF_ERROR(service::wire::WriteMagic(conn.fd));
    PPM_RETURN_IF_ERROR(service::wire::ExpectMagic(conn.fd));
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      return Status::IoError(std::string("fcntl: ") + std::strerror(errno));
    }
  }
  return gen;
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

Status LoadGen::Send(Conn* conn, const LoadOp& op, const EncodeFn& encode) {
  conn->busy = true;
  conn->inflight = op;
  conn->out = service::wire::EncodeFrame(encode(op));
  conn->out_pos = 0;
  return Flush(conn);
}

Status LoadGen::Flush(Conn* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_pos,
               conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    conn->out_pos += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status LoadGen::Receive(Conn* conn, std::string* payload, bool* completed) {
  *completed = false;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("server closed a connection");
    conn->in.append(buffer, static_cast<size_t>(n));
  }
  if (conn->in.size() < kFrameHeaderBytes) return Status::OK();
  const uint32_t length = LoadU32(conn->in.data());
  const uint32_t crc = LoadU32(conn->in.data() + 4);
  if (length > service::wire::kMaxFramePayloadBytes) {
    return Status::Corruption("oversized response frame");
  }
  if (conn->in.size() < kFrameHeaderBytes + length) return Status::OK();
  if (!conn->busy) return Status::Corruption("response without a request");
  payload->assign(conn->in, kFrameHeaderBytes, length);
  if (crc32c::Value(*payload) != crc) {
    return Status::Corruption("response frame CRC mismatch");
  }
  conn->in.erase(0, kFrameHeaderBytes + length);
  conn->busy = false;
  *completed = true;
  return Status::OK();
}

Status LoadGen::Poll(uint64_t timeout_ns, const ResponseFn& on_response,
                     std::vector<uint32_t>* completed) {
  completed->clear();
  std::vector<pollfd> fds;
  std::vector<uint32_t> index;
  for (uint32_t c = 0; c < conns_.size(); ++c) {
    const Conn& conn = conns_[c];
    if (!conn.busy) continue;
    short events = POLLIN;
    if (conn.out_pos < conn.out.size()) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd, events, 0});
    index.push_back(c);
  }
  timespec timeout;
  timeout.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
  timeout.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::IoError(std::string("ppoll: ") + std::strerror(errno));
  }
  // Take in every ready response before handing any to `on_response`, so
  // the time spent handling one is not charged to the others.
  struct Done {
    LoadOp op;
    std::string payload;
    uint64_t done_ns;
  };
  std::vector<Done> done;
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    Conn* conn = &conns_[index[i]];
    if (fds[i].revents & POLLOUT) PPM_RETURN_IF_ERROR(Flush(conn));
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      Done response{conn->inflight, std::string(), 0};
      bool complete = false;
      PPM_RETURN_IF_ERROR(Receive(conn, &response.payload, &complete));
      if (complete) {
        response.done_ns = NowNs();
        done.push_back(std::move(response));
        completed->push_back(index[i]);
      }
    }
  }
  for (const Done& response : done) {
    on_response(response.op, response.payload,
                response.done_ns - response.op.due_ns);
  }
  return Status::OK();
}

Status LoadGen::RunOpenLoop(const std::vector<LoadOp>& ops,
                            const EncodeFn& encode,
                            const ResponseFn& on_response,
                            std::vector<double>* late_ms) {
  const size_t n_conns = conns_.size();
  size_t next = 0;
  size_t done = 0;
  uint64_t last_progress = NowNs();
  std::vector<uint32_t> completed;
  while (done < ops.size()) {
    const uint64_t now = NowNs();
    while (next < ops.size() && ops[next].due_ns <= now) {
      late_ms->push_back(static_cast<double>(now - ops[next].due_ns) / 1e6);
      conns_[ops[next].series % n_conns].waiting.push_back(ops[next]);
      ++next;
    }
    for (Conn& conn : conns_) {
      if (!conn.busy && !conn.waiting.empty()) {
        PPM_RETURN_IF_ERROR(Send(&conn, conn.waiting.front(), encode));
        conn.waiting.pop_front();
      }
    }
    uint64_t timeout_ns = 100'000'000;
    if (next < ops.size()) {
      const uint64_t after = NowNs();
      timeout_ns = ops[next].due_ns > after ? ops[next].due_ns - after : 0;
    }
    PPM_RETURN_IF_ERROR(Poll(timeout_ns, on_response, &completed));
    done += completed.size();
    if (!completed.empty()) last_progress = NowNs();
    if (NowNs() - last_progress > kStallNs) {
      return Status::DeadlineExceeded("open loop stalled");
    }
  }
  return Status::OK();
}

}  // namespace ppm::perfbench
