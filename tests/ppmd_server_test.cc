#include "service/server.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.h"
#include "service/client.h"
#include "service/wire.h"
#include "tsdb/time_series.h"
#include "util/crc32c.h"

namespace ppm::service {
namespace {

namespace fs = std::filesystem;

class PatternServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unix socket paths are length-limited (~108 bytes), so keep them short.
    dir_ = testing::TempDir() + "/ppmd_" + std::to_string(::getpid()) + "_" +
           std::to_string(instance_++);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    socket_ = dir_ + "/s.sock";
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<PatternServer> StartServer(ServerOptions options = {}) {
    options.socket_path = socket_;
    auto server = PatternServer::Start(dir_ + "/db", options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(*server);
  }

  static tsdb::TimeSeries PeriodicSeries(uint32_t period, uint32_t segments) {
    tsdb::TimeSeries series;
    for (uint32_t s = 0; s < segments; ++s) {
      for (uint32_t p = 0; p < period; ++p) {
        if (p == 0) {
          series.AppendNamed({"tick"});
        } else {
          series.AppendNamed({});
        }
      }
    }
    return series;
  }

  static wire::Request QueryRequest(const std::string& name, uint32_t period) {
    wire::Request request;
    request.op = wire::Op::kQuery;
    request.name = name;
    request.period = period;
    request.min_confidence = 0.8;
    return request;
  }

  std::string dir_;
  std::string socket_;
  inline static int instance_ = 0;
};

TEST_F(PatternServerTest, PutQueryAppendGetOverSocket) {
  auto server = StartServer();
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  wire::Request put;
  put.op = wire::Op::kPut;
  put.name = "s";
  put.series = PeriodicSeries(4, 10);
  auto put_response = (*client)->Call(put);
  ASSERT_TRUE(put_response.ok()) << put_response.status().ToString();
  EXPECT_EQ(put_response->code, 0) << put_response->message;
  EXPECT_EQ(put_response->length, 40u);

  auto mined = (*client)->Call(QueryRequest("s", 4));
  ASSERT_TRUE(mined.ok());
  ASSERT_EQ(mined->code, 0) << mined->message;
  EXPECT_EQ(mined->num_periods, 10u);
  ASSERT_EQ(mined->patterns.size(), 1u);
  ASSERT_EQ(mined->patterns[0].letters.size(), 1u);
  EXPECT_EQ(mined->patterns[0].letters[0].first, 0u);  // position
  EXPECT_EQ(mined->patterns[0].count, 10u);
  ASSERT_EQ(mined->symbols.size(), 1u);
  EXPECT_EQ(mined->symbols[0], "tick");

  // Same query again: served from cache, identical payload.
  auto cached = (*client)->Call(QueryRequest("s", 4));
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->cache_outcome, 1);  // hit
  EXPECT_EQ(cached->version, mined->version);

  wire::Request append;
  append.op = wire::Op::kAppend;
  append.name = "s";
  append.instants = {{"tick"}, {}, {}, {}};
  auto appended = (*client)->Call(append);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->code, 0) << appended->message;
  EXPECT_EQ(appended->length, 44u);

  auto refreshed = (*client)->Call(QueryRequest("s", 4));
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->cache_outcome, 2);  // refresh
  EXPECT_EQ(refreshed->num_periods, 11u);
  ASSERT_EQ(refreshed->patterns.size(), 1u);
  EXPECT_EQ(refreshed->patterns[0].count, 11u);

  wire::Request get;
  get.op = wire::Op::kGet;
  get.name = "s";
  auto got = (*client)->Call(get);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->code, 0) << got->message;
  ASSERT_TRUE(got->has_series);
  EXPECT_EQ(got->series.length(), 44u);

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, ErrorsTravelAsStatusCodes) {
  auto server = StartServer();
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());

  auto missing = (*client)->Call(QueryRequest("ghost", 4));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, static_cast<uint8_t>(StatusCode::kNotFound));

  wire::Request bad = QueryRequest("ghost", 4);
  bad.algorithm = 99;
  auto rejected = (*client)->Call(bad);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->code,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, DeadlineExceededDoesNotDisturbOtherRequests) {
  auto server = StartServer();
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());

  wire::Request put;
  put.op = wire::Op::kPut;
  put.name = "s";
  put.series = PeriodicSeries(50, 4000);  // Big enough to out-run 0 ms.
  ASSERT_TRUE((*client)->Call(put).ok());

  // An already-expired deadline (mapped from deadline_ms) must reject this
  // request only; a concurrent normal query on another connection succeeds.
  std::thread other([this] {
    auto peer = Client::Connect(socket_);
    ASSERT_TRUE(peer.ok());
    auto response = (*peer)->Call(QueryRequest("s", 50));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, 0) << response->message;
  });
  wire::Request rushed = QueryRequest("s", 50);
  rushed.op = wire::Op::kMine;  // Bypass the cache so mining actually runs.
  rushed.deadline_ms = 1;
  auto response = (*client)->Call(rushed);
  other.join();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code,
            static_cast<uint8_t>(StatusCode::kDeadlineExceeded))
      << response->message;

  // The connection survives a failed request.
  auto after = (*client)->Call(QueryRequest("s", 50));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->code, 0) << after->message;

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, ShutdownRequestDrainsServer) {
  auto server = StartServer();
  {
    auto client = Client::Connect(socket_);
    ASSERT_TRUE(client.ok());
    wire::Request shutdown;
    shutdown.op = wire::Op::kShutdown;
    auto response = (*client)->Call(shutdown);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, 0);
  }
  server->Wait();  // Returns because the shutdown request stopped it.
  EXPECT_FALSE(fs::exists(socket_));
}

TEST_F(PatternServerTest, ConcurrentClientsAreServedCorrectly) {
  ServerOptions options;
  options.num_workers = 4;
  auto server = StartServer(options);
  {
    auto seed = Client::Connect(socket_);
    ASSERT_TRUE(seed.ok());
    wire::Request put;
    put.op = wire::Op::kPut;
    put.name = "s";
    put.series = PeriodicSeries(4, 25);
    ASSERT_TRUE((*seed)->Call(put).ok());
  }
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([this, &failures] {
      auto client = Client::Connect(socket_);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < 5; ++round) {
        auto response = (*client)->Call(QueryRequest("s", 4));
        if (!response.ok() || response->code != 0 ||
            response->patterns.size() != 1) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  server->RequestStop();
  server->Wait();
}

// ---------------------------------------------------------------------------
// Startup: stale sockets are reclaimed, live ones are respected.

TEST_F(PatternServerTest, StaleSocketFileIsReclaimedOnStartup) {
  // A SIGKILLed daemon leaves its bound socket file behind with nobody
  // listening. Simulate it: bind + listen, then close the fd without
  // unlinking.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(stale, 1), 0);
  ::close(stale);
  ASSERT_TRUE(fs::exists(socket_));

  // Startup must detect the dead socket, unlink it, and serve normally.
  auto server = StartServer();
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  wire::Request stats;
  stats.op = wire::Op::kStats;
  auto response = (*client)->Call(stats);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 0);

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, LiveDaemonSocketIsNotStolen) {
  auto server = StartServer();
  // A second daemon on the same socket must refuse to start -- and must
  // not unlink the live daemon's socket on the way out.
  ServerOptions options;
  options.socket_path = socket_;
  auto second = PatternServer::Start(dir_ + "/db2", options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, NonSocketFileAtSocketPathIsRejected) {
  { std::ofstream(socket_) << "precious data"; }
  ServerOptions options;
  options.socket_path = socket_;
  auto server = PatternServer::Start(dir_ + "/db", options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(fs::exists(socket_));  // The file must survive.
}

// ---------------------------------------------------------------------------
// Health, readiness, quotas, and retry.

TEST_F(PatternServerTest, HealthAndReadyAnswerInline) {
  auto server = StartServer();
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());

  wire::Request health;
  health.op = wire::Op::kHealth;
  auto health_response = (*client)->Call(health);
  ASSERT_TRUE(health_response.ok()) << health_response.status().ToString();
  EXPECT_EQ(health_response->code, 0);
  EXPECT_NE(health_response->health_json.find("\"accepting\""),
            std::string::npos)
      << health_response->health_json;
  EXPECT_NE(health_response->health_json.find("\"queue_depth\""),
            std::string::npos);

  wire::Request ready;
  ready.op = wire::Op::kReady;
  auto ready_response = (*client)->Call(ready);
  ASSERT_TRUE(ready_response.ok());
  EXPECT_EQ(ready_response->code, 0);
  EXPECT_EQ(ready_response->ready_state,
            static_cast<uint8_t>(wire::ReadyState::kAccepting));

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, TenantRateQuotaRejectsOnlyTheOffender) {
  ServerOptions options;
  options.tenant_quotas["greedy"] = TenantQuota{1.0, 1.0, 0};
  auto server = StartServer(options);

  auto greedy = Client::Connect(socket_);
  auto polite = Client::Connect(socket_);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(polite.ok());

  wire::Request stats;
  stats.op = wire::Op::kStats;
  stats.tenant = "greedy";
  auto first = (*greedy)->Call(stats);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, 0) << first->message;
  // The burst of one is spent: the immediate second call is shed with a
  // structured retry hint, and the connection survives.
  auto second = (*greedy)->Call(stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code,
            static_cast<uint8_t>(StatusCode::kResourceExhausted));
  EXPECT_GT(second->retry_after_ms, 0u);

  // An unquota'd tenant is untouched by the greedy tenant's rejections.
  wire::Request polite_stats;
  polite_stats.op = wire::Op::kStats;
  polite_stats.tenant = "polite";
  for (int i = 0; i < 3; ++i) {
    auto response = (*polite)->Call(polite_stats);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, 0) << response->message;
  }

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, ShedRequestSucceedsWithinRetryBudget) {
  ServerOptions options;
  options.tenant_quotas["bursty"] = TenantQuota{5.0, 1.0, 0};
  auto server = StartServer(options);
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());

  wire::Request stats;
  stats.op = wire::Op::kStats;
  stats.tenant = "bursty";
  ASSERT_TRUE((*client)->Call(stats).ok());  // Spend the burst.

  // Immediately shed without retry...
  auto shed = (*client)->Call(stats);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, static_cast<uint8_t>(StatusCode::kResourceExhausted));

  // ...but admitted within a retry budget that covers the refill (200 ms
  // at 5 rps).
  auto retried = (*client)->CallWithRetry(stats, /*retry_budget_ms=*/5000);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->code, 0) << retried->message;

  server->RequestStop();
  server->Wait();
}

// ---------------------------------------------------------------------------
// Adversarial frames: a hostile or broken peer costs one connection,
// never the server.

/// A raw PPMRPC1 peer that speaks bytes, not wire::Client -- for framing
/// attacks the real client cannot express.
class RawPeer {
 public:
  explicit RawPeer(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool Handshake() {
    std::string greeting(sizeof(wire::kMagic), '\0');
    if (!ReadExactly(greeting.data(), greeting.size())) return false;
    if (std::memcmp(greeting.data(), wire::kMagic, sizeof(wire::kMagic)) !=
        0) {
      return false;
    }
    return Send(std::string(wire::kMagic, sizeof(wire::kMagic)));
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  bool SendByteByByte(std::string_view bytes) {
    for (const char c : bytes) {
      if (!Send(std::string_view(&c, 1))) return false;
    }
    return true;
  }

  /// Reads one response frame; empty on EOF/error.
  std::string ReadResponsePayload() {
    char header[8];
    if (!ReadExactly(header, sizeof(header))) return "";
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<uint32_t>(static_cast<uint8_t>(header[i]))
                << (8 * i);
    }
    std::string payload(length, '\0');
    if (length > 0 && !ReadExactly(payload.data(), payload.size())) return "";
    return payload;
  }

  /// True when the server has closed our connection (EOF within 5 s).
  bool WaitForEof() {
    char byte = 0;
    struct pollfd pfd = {fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 5000);
    if (ready <= 0) return false;
    return ::read(fd_, &byte, 1) == 0;
  }

 private:
  bool ReadExactly(char* out, size_t n) {
    size_t got = 0;
    while (got < n) {
      struct pollfd pfd = {fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) return false;
      const ssize_t r = ::read(fd_, out + got, n - got);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

std::string LittleEndian32(uint32_t value) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return out;
}

/// The wire form of a served result built field by field, the way a
/// response looked before the cache encoded its memos once.
wire::Response StructuredResponse(const PatternCache::Response& served,
                                  uint8_t outcome, uint32_t period) {
  wire::Response response;
  response.cache_outcome = outcome;
  response.version = served.version;
  response.length = served.length;
  response.num_periods = served.result.stats().num_periods;
  response.period = period;
  response.symbols = served.symbols.names();
  for (const FrequentPattern& frequent : served.result.patterns()) {
    wire::WirePattern& pattern = response.patterns.emplace_back();
    for (uint32_t position = 0; position < period; ++position) {
      frequent.pattern.at(position).ForEach([&](uint32_t feature) {
        pattern.letters.emplace_back(position, feature);
      });
    }
    pattern.count = frequent.count;
    pattern.confidence = frequent.confidence;
  }
  return response;
}

TEST_F(PatternServerTest, CachedPayloadsAreByteIdenticalToStructuredEncode) {
  auto server = StartServer();
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());
  wire::Request put;
  put.op = wire::Op::kPut;
  put.name = "s";
  for (uint32_t s = 0; s < 30; ++s) {
    put.series.AppendNamed({"a"});
    if (s % 3 != 0) {
      put.series.AppendNamed({"b", "c"});
    } else {
      put.series.AppendNamed({});
    }
    put.series.AppendNamed({});
    if (s % 2 == 0) {
      put.series.AppendNamed({"d"});
    } else {
      put.series.AppendNamed({});
    }
  }
  ASSERT_EQ((*client)->Call(put)->code, 0);

  wire::Request query = QueryRequest("s", 4);
  query.min_confidence = 0.3;
  query.tenant = "t";
  ::ppm::service::QueryRequest local;
  local.series = "s";
  local.period = 4;
  local.min_confidence = 0.3;

  RawPeer peer(socket_);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(peer.Handshake());
  const auto served_payload = [&]() {
    EXPECT_TRUE(peer.Send(wire::EncodeFrame(wire::EncodeRequest(query))));
    return peer.ReadResponsePayload();
  };
  // Each socket answer is compared with the same memo re-read in process
  // (a hit at the same version) and encoded field by field.
  const auto expected_payload = [&](PatternCache::Outcome outcome) {
    auto served = server->service().Query(local);
    EXPECT_TRUE(served.ok());
    return wire::EncodeResponse(
        StructuredResponse(*served, static_cast<uint8_t>(outcome), 4));
  };

  const std::string miss = served_payload();
  EXPECT_EQ(miss, expected_payload(PatternCache::Outcome::kMiss));
  const std::string hit = served_payload();
  EXPECT_EQ(hit, expected_payload(PatternCache::Outcome::kHit));

  wire::Request append;
  append.op = wire::Op::kAppend;
  append.name = "s";
  append.instants = {{"a"}, {"b", "c"}, {}, {"d"}};
  ASSERT_EQ((*client)->Call(append)->code, 0);
  const std::string refresh = served_payload();
  EXPECT_EQ(refresh, expected_payload(PatternCache::Outcome::kRefresh));

  auto decoded = wire::DecodeResponse(refresh);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->cache_outcome,
            static_cast<uint8_t>(PatternCache::Outcome::kRefresh));
  EXPECT_EQ(decoded->num_periods, 31u);
  EXPECT_GT(decoded->patterns.size(), 4u);

  // Consecutive hits share one memo.
  auto first = server->service().Query(local);
  auto second = server->service().Query(local);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->memo.get(), second->memo.get());

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, AlgorithmByteDoesNotSplitTheCache) {
  // Every query is served by the hit-set miner, so two queries that differ
  // only in the algorithm byte share one cache entry.
  auto server = StartServer();
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());
  wire::Request put;
  put.op = wire::Op::kPut;
  put.name = "s";
  put.series = PeriodicSeries(4, 10);
  ASSERT_EQ((*client)->Call(put)->code, 0);

  wire::Request hitset = QueryRequest("s", 4);
  hitset.algorithm = 1;
  auto first = (*client)->Call(hitset);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->code, 0) << first->message;
  EXPECT_EQ(first->cache_outcome, 0);  // miss

  wire::Request apriori = QueryRequest("s", 4);
  apriori.algorithm = 0;
  auto second = (*client)->Call(apriori);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->code, 0) << second->message;
  EXPECT_EQ(second->cache_outcome, 1);  // hit
  EXPECT_EQ(second->patterns.size(), first->patterns.size());

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, FormerV1RequestIsRejectedInV2AndConnectionSurvives) {
  auto server = StartServer();
  {
    auto client = Client::Connect(socket_);
    ASSERT_TRUE(client.ok());
    wire::Request put;
    put.op = wire::Op::kPut;
    put.name = "s";
    put.series = PeriodicSeries(4, 10);
    ASSERT_EQ((*client)->Call(put)->code, 0);
  }
  RawPeer peer(socket_);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(peer.Handshake());

  // The retired v1 query layout, by hand: op, deadline_ms, name, then the
  // query parameters -- no marker byte and no tenant.
  std::string v1;
  v1 += static_cast<char>(wire::Op::kQuery);
  v1 += LittleEndian32(0);  // deadline_ms
  v1 += LittleEndian32(1) + "s";
  v1 += LittleEndian32(4);                                  // period
  v1 += std::string("\x9a\x99\x99\x99\x99\x99\xe9\x3f", 8);  // 0.8
  v1 += std::string(8, '\0');                              // min_count
  v1 += LittleEndian32(0);                                  // max_letters
  v1 += static_cast<char>(1);                               // algorithm
  ASSERT_TRUE(peer.Send(wire::EncodeFrame(v1)));
  const std::string rejected_payload = peer.ReadResponsePayload();
  ASSERT_FALSE(rejected_payload.empty());
  EXPECT_EQ(static_cast<uint8_t>(rejected_payload[0]), wire::kV2Marker);
  auto rejected = wire::DecodeResponse(rejected_payload);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->code,
            static_cast<uint8_t>(StatusCode::kInvalidArgument));

  ASSERT_TRUE(peer.Send(
      wire::EncodeFrame(wire::EncodeRequest(QueryRequest("s", 4)))));
  auto served = wire::DecodeResponse(peer.ReadResponsePayload());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->code, 0) << served->message;
  EXPECT_EQ(served->num_periods, 10u);
  EXPECT_EQ(served->patterns.size(), 1u);

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, OversizedDeclaredFrameLengthClosesConnection) {
  auto server = StartServer();
  RawPeer peer(socket_);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(peer.Handshake());
  // Declared length one past the cap: the server must drop us without
  // trying to buffer 64 MiB.
  ASSERT_TRUE(peer.Send(LittleEndian32(wire::kMaxFramePayloadBytes + 1)));
  ASSERT_TRUE(peer.Send(LittleEndian32(0)));  // crc (never checked)
  EXPECT_TRUE(peer.WaitForEof());

  // The server survives to serve a well-formed peer.
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());
  wire::Request stats;
  stats.op = wire::Op::kStats;
  auto response = (*client)->Call(stats);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 0);

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, MaximumDeclaredFrameLengthIsNotRejectedOutright) {
  // Exactly at the cap the header is legal; the connection must stay open
  // waiting for the payload (cut off later by the io timeout, not the
  // length check).
  ServerOptions options;
  options.io_timeout_ms = 200;
  auto server = StartServer(options);
  RawPeer peer(socket_);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(peer.Handshake());
  ASSERT_TRUE(peer.Send(LittleEndian32(wire::kMaxFramePayloadBytes)));
  ASSERT_TRUE(peer.Send(LittleEndian32(0)));
  // We never send the payload: the slow-client deadline reaps us.
  EXPECT_TRUE(peer.WaitForEof());

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, ZeroLengthFrameIsAnsweredAsDecodeError) {
  auto server = StartServer();
  RawPeer peer(socket_);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(peer.Handshake());
  // length 0, crc of the empty payload (0): a legal frame whose payload
  // fails request decoding -- the server must answer, not hang or die.
  ASSERT_TRUE(peer.Send(LittleEndian32(0)));
  ASSERT_TRUE(peer.Send(LittleEndian32(crc32c::Value(nullptr, 0))));
  const std::string payload = peer.ReadResponsePayload();
  ASSERT_FALSE(payload.empty());
  auto response = wire::DecodeResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->code, 0);

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, HeaderDribbledOneByteAtATimeStillServes) {
  auto server = StartServer();
  RawPeer peer(socket_);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(peer.Handshake());

  wire::Request stats;
  stats.op = wire::Op::kStats;
  const std::string request_payload = wire::EncodeRequest(stats);
  const std::string frame = wire::EncodeFrame(request_payload);
  ASSERT_TRUE(peer.SendByteByByte(frame));

  const std::string payload = peer.ReadResponsePayload();
  ASSERT_FALSE(payload.empty());
  auto response = wire::DecodeResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 0) << response->message;

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, ValidFrameFollowedByGarbageAnswersThenCloses) {
  auto server = StartServer();
  RawPeer peer(socket_);
  ASSERT_TRUE(peer.ok());
  ASSERT_TRUE(peer.Handshake());

  wire::Request stats;
  stats.op = wire::Op::kStats;
  std::string bytes = wire::EncodeFrame(wire::EncodeRequest(stats));
  bytes.append(16, '\xAB');  // Parsed as an oversized next header.
  ASSERT_TRUE(peer.Send(bytes));

  const std::string payload = peer.ReadResponsePayload();
  ASSERT_FALSE(payload.empty());
  auto response = wire::DecodeResponse(payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 0) << response->message;
  EXPECT_TRUE(peer.WaitForEof());

  server->RequestStop();
  server->Wait();
}

TEST_F(PatternServerTest, SlowClientCostsOneFdNotAWorker) {
  ServerOptions options;
  options.io_timeout_ms = 150;
  options.num_workers = 1;
  auto server = StartServer(options);

  // A slowloris peer: sends half a header, then stalls.
  RawPeer slow(socket_);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(slow.Handshake());
  ASSERT_TRUE(slow.Send(LittleEndian32(64)));  // Header half; no payload.

  // The single worker must stay available to a well-behaved client while
  // the slow peer stalls.
  auto client = Client::Connect(socket_);
  ASSERT_TRUE(client.ok());
  wire::Request stats;
  stats.op = wire::Op::kStats;
  auto response = (*client)->Call(stats);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 0);

  // And the stalled connection is reaped at the io deadline.
  EXPECT_TRUE(slow.WaitForEof());

  server->RequestStop();
  server->Wait();
}

}  // namespace
}  // namespace ppm::service
