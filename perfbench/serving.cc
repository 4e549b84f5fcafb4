#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "common.h"
#include "core/hitset_miner.h"
#include "obs/metrics.h"
#include "service/wire.h"
#include "stream/continuous_miner.h"
#include "tsdb/series_source.h"

namespace ppm::perfbench {

namespace {

namespace fs = std::filesystem;
namespace wire = service::wire;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

/// The wire form of a served result, built the way the server builds it.
wire::Response ToWire(const service::PatternCache::Response& served,
                      uint32_t period) {
  wire::Response response;
  response.cache_outcome = static_cast<uint8_t>(served.outcome);
  response.version = served.version;
  response.length = served.length;
  response.num_periods = served.result.stats().num_periods;
  response.period = period;
  response.symbols = served.symbols.names();
  response.patterns.reserve(served.result.size());
  for (const FrequentPattern& frequent : served.result.patterns()) {
    wire::WirePattern pattern;
    for (uint32_t position = 0; position < frequent.pattern.period();
         ++position) {
      frequent.pattern.at(position).ForEach([&pattern, position](uint32_t f) {
        pattern.letters.emplace_back(position, f);
      });
    }
    pattern.count = frequent.count;
    pattern.confidence = frequent.confidence;
    response.patterns.push_back(std::move(pattern));
  }
  return response;
}

/// `SerializePatterns` of a wire response, against the response's symbols.
std::string SerializeWire(const wire::Response& response) {
  tsdb::SymbolTable symbols;
  for (const std::string& name : response.symbols) symbols.Intern(name);
  MiningResult result;
  for (const wire::WirePattern& wp : response.patterns) {
    FrequentPattern& frequent = result.patterns().emplace_back();
    frequent.pattern = Pattern(response.period);
    for (const auto& [position, feature] : wp.letters) {
      frequent.pattern.AddLetter(position, feature);
    }
    frequent.count = wp.count;
    frequent.confidence = wp.confidence;
  }
  return SerializePatterns(result, symbols);
}

}  // namespace

ServingHarness::ServingHarness(const std::vector<SeriesInput>* inputs,
                               const MiningOptions& query,
                               const ServeProfile& profile,
                               std::string workdir, uint64_t seed)
    : inputs_(inputs),
      query_(query),
      profile_(profile),
      workdir_(std::move(workdir)),
      seed_(seed),
      rng_(seed ^ 0x5e7e5e7eull) {}

ServingHarness::~ServingHarness() { StopServer(); }

void ServingHarness::StopServer() {
  if (server_ == nullptr) return;
  server_->RequestStop();
  server_->Wait();
  server_.reset();
  std::error_code ignored;
  fs::remove_all(root_, ignored);
}

double ServingHarness::SetUp() {
  StopServer();
  root_ = workdir_ + "/serve" + std::to_string(setups_++);
  fs::remove_all(root_);
  fs::create_directories(root_);

  const uint64_t begin = NowNs();
  service::ServerOptions options;
  options.socket_path = root_ + "/s.sock";
  options.num_workers = kWorkers;
  options.service.wal_fsync = tsdb::WalFsync::kNever;
  options.service.cache_memory_budget_bytes = profile_.cache_budget_bytes;
  server_ = DieOr(service::PatternServer::Start(root_ + "/db", options),
                  "start server");
  service::MineService& service = server_->service();
  for (const SeriesInput& input : *inputs_) {
    DieIf(service.Put(input.name, input.initial), "put series");
  }
  warmup_miss_ns_.clear();
  for (const SeriesInput& input : *inputs_) {
    service::QueryRequest request;
    request.series = input.name;
    request.period = query_.period;
    request.min_confidence = query_.min_confidence;
    request.max_letters = query_.max_letters;
    const uint64_t query_begin = NowNs();
    DieOr(service.Query(request), "warm-up query");
    warmup_miss_ns_.push_back(static_cast<double>(NowNs() - query_begin));
  }
  const double elapsed_s = static_cast<double>(NowNs() - begin) / 1e9;

  base_version_.clear();
  for (const SeriesInput& input : *inputs_) {
    base_version_.push_back(
        DieOr(service.store().VersionAndLength(input.name), "version").first);
  }
  appends_sent_.assign(inputs_->size(), 0);
  queries_seen_ = 0;
  samples_.clear();
  return elapsed_s;
}

LoadOp ServingHarness::NextOp(Rng* rng) const {
  LoadOp op;
  op.series = static_cast<uint32_t>(rng->NextBelow(inputs_->size()));
  op.append = rng->NextBool(profile_.append_share);
  return op;
}

wire::Request ServingHarness::MakeRequest(const LoadOp& op) {
  const SeriesInput& input = (*inputs_)[op.series];
  wire::Request request;
  request.tenant = op.series % 2 == 0 ? "tenant-a" : "tenant-b";
  request.name = input.name;
  if (op.append) {
    request.op = wire::Op::kAppend;
    const uint64_t k = appends_sent_[op.series]++;
    request.instants = input.pool_names[k % input.pool_names.size()];
  } else {
    request.op = wire::Op::kQuery;
    request.period = query_.period;
    request.min_confidence = query_.min_confidence;
    request.max_letters = query_.max_letters;
  }
  return request;
}

bool ServingHarness::CheckStamp(uint32_t series, uint64_t version,
                                uint64_t length) const {
  if (version < base_version_[series]) return false;
  const uint64_t appended = version - base_version_[series];
  return appended <= appends_sent_[series] &&
         length == (*inputs_)[series].initial.length() +
                       appended * query_.period;
}

bool ServingHarness::TakeSample() {
  return queries_seen_++ % kSampleEvery == seed_ % kSampleEvery;
}

SocketRun ServingHarness::RunSocket(double seconds) {
  SocketRun run;
  const uint32_t connections = static_cast<uint32_t>(
      std::min<size_t>(kMaxConnections, inputs_->size()));
  std::unique_ptr<LoadGen> gen = DieOr(
      LoadGen::Connect(server_->socket_path(), connections), "connect");

  const LoadGen::EncodeFn encode = [this](const LoadOp& op) {
    return wire::EncodeRequest(MakeRequest(op));
  };
  const LoadGen::ResponseFn on_response = [&](const LoadOp& op,
                                              std::string_view payload,
                                              uint64_t latency_ns) {
    const uint64_t done_ns = op.due_ns + latency_ns;
    ++run.attempted;
    Result<wire::Response> response = wire::DecodeResponse(payload);
    if (!response.ok() || response->code != 0) {
      ++run.failed;
      if (response.ok() &&
          response->code ==
              static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
        ++run.shed;
      }
      return;
    }
    if (!CheckStamp(op.series, response->version, response->length)) {
      ++run.failed;
      return;
    }
    run.completions.push_back(Completion{
        op.due_ns, done_ns, op.append,
        response->cache_outcome ==
            static_cast<uint8_t>(service::PatternCache::Outcome::kHit)});
    if (!op.append && TakeSample()) {
      samples_.push_back(Sample{op.series, response->version,
                                response->length, SerializeWire(*response)});
    }
  };

  std::vector<LoadOp> schedule;
  double t = rng_.NextExponential(1.0 / profile_.rate_rps);
  while (t < seconds) {
    LoadOp op = NextOp(&rng_);
    op.due_ns = static_cast<uint64_t>(t * 1e9);
    schedule.push_back(op);
    t += rng_.NextExponential(1.0 / profile_.rate_rps);
  }
  const uint64_t start = NowNs() + 1'000'000;
  for (LoadOp& op : schedule) op.due_ns += start;
  DieIf(gen->RunOpenLoop(schedule, encode, on_response, &run.late_ms),
        "open loop");
  return run;
}

ReplayRun ServingHarness::ReplayInProcess(double seconds,
                                           obs::Tracer* tracer) {
  ReplayRun run;
  service::MineService& service = server_->service();
  const uint64_t evictions_before = CounterValue("ppm.server.cache.evictions");
  const uint64_t wal_bytes_before = CounterValue("ppm.wal.append_bytes");
  const uint64_t instants_before =
      CounterValue("ppm.server.store.appended_instants");

  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t n = 0; NowNs() < deadline; ++n) {
    obs::Tracer* const op_tracer = n < kTracedOps ? tracer : nullptr;
    const LoadOp op = NextOp(&rng_);
    TimedSpan op_span(op_tracer, op.append ? "replay.append" : "replay.query");
    const wire::Request request = MakeRequest(op);
    wire::Request decoded;
    {
      TimedSpan codec(op_tracer, "wire.request_codec");
      decoded = DieOr(wire::DecodeRequest(wire::EncodeRequest(request)),
                      "request codec");
      run.request_codec_ns.push_back(static_cast<double>(codec.End()));
    }
    if (op.append) {
      TimedSpan append(op_tracer, "service.append");
      const Status status = service.Append(decoded.name, decoded.instants);
      run.append_ns.push_back(static_cast<double>(append.End()));
      if (!status.ok()) ++run.failed;
      continue;
    }
    service::QueryRequest query;
    query.series = decoded.name;
    query.period = decoded.period;
    query.min_confidence = decoded.min_confidence;
    query.max_letters = decoded.max_letters;
    TimedSpan query_span(op_tracer, "service.query");
    Result<service::PatternCache::Response> served = service.Query(query);
    const double query_ns = static_cast<double>(query_span.End());
    if (!served.ok() ||
        !CheckStamp(op.series, served->version, served->length)) {
      ++run.failed;
      continue;
    }
    ++run.queries;
    switch (served->outcome) {
      case service::PatternCache::Outcome::kHit:
        ++run.hits;
        run.hit_ns.push_back(query_ns);
        break;
      case service::PatternCache::Outcome::kRefresh:
        ++run.refreshes;
        run.refresh_ns.push_back(query_ns);
        break;
      case service::PatternCache::Outcome::kMiss:
        ++run.misses;
        run.miss_ns.push_back(query_ns);
        break;
    }
    {
      TimedSpan codec(op_tracer, "wire.response_codec");
      const std::string payload =
          wire::EncodeResponse(ToWire(*served, query.period), 2);
      DieOr(wire::DecodeResponse(payload), "response codec");
      run.response_codec_ns.push_back(static_cast<double>(codec.End()));
    }
    if (TakeSample()) {
      samples_.push_back(Sample{op.series, served->version, served->length,
                                SerializePatterns(served->result,
                                                  served->symbols)});
    }
  }
  run.evictions = CounterValue("ppm.server.cache.evictions") - evictions_before;
  run.wal_bytes = CounterValue("ppm.wal.append_bytes") - wal_bytes_before;
  run.appended_instants =
      CounterValue("ppm.server.store.appended_instants") - instants_before;
  return run;
}

tsdb::TimeSeries ServingHarness::Snapshot(uint32_t series,
                                          uint64_t length) const {
  const SeriesInput& input = (*inputs_)[series];
  tsdb::TimeSeries snapshot = input.initial;
  for (uint64_t k = 0; snapshot.length() < length; ++k) {
    for (const tsdb::FeatureSet& instant : input.pool[k % input.pool.size()]) {
      snapshot.Append(instant);
    }
  }
  return snapshot;
}

Verification ServingHarness::Verify() const {
  Verification verification;
  verification.sampled = samples_.size();
  std::map<std::pair<uint32_t, uint64_t>, std::vector<const Sample*>> groups;
  for (const Sample& sample : samples_) {
    groups[{sample.series, sample.length}].push_back(&sample);
  }
  // Re-mine an evenly spaced, deterministic subset of distinct snapshots.
  const size_t stride = (groups.size() + kMaxChecks - 1) / kMaxChecks;
  size_t index = 0;
  for (const auto& [key, samples] : groups) {
    if (index++ % std::max<size_t>(stride, 1) != 0) continue;
    const tsdb::TimeSeries snapshot = Snapshot(key.first, key.second);
    tsdb::InMemorySeriesSource source(&snapshot);
    const MiningResult batch = DieOr(MineHitSet(source, query_), "batch mine");
    const std::string expected = SerializePatterns(batch, snapshot.symbols());
    for (const Sample* sample : samples) {
      ++verification.checked;
      if (sample->patterns != expected) {
        ++verification.mismatches;
        std::fprintf(stderr,
                     "mismatch: series %s version %llu length %llu\n",
                     (*inputs_)[key.first].name.c_str(),
                     static_cast<unsigned long long>(sample->version),
                     static_cast<unsigned long long>(key.second));
      }
    }
  }
  return verification;
}

StreamProbe ProbeContinuousMiner(const SeriesInput& input,
                                 const MiningOptions& options, double seconds,
                                 obs::Tracer* tracer) {
  std::unique_ptr<stream::ContinuousMiner> miner =
      DieOr(stream::ContinuousMiner::SeedFromPrefix(options, input.initial),
            "seed continuous miner");
  uint64_t append_ns = 0;
  uint64_t instants = 0;
  std::vector<double> snapshot_ns;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (size_t k = 0; snapshot_ns.empty() || NowNs() < deadline; ++k) {
    const std::vector<tsdb::FeatureSet>& segment =
        input.pool[k % input.pool.size()];
    {
      TimedSpan append(tracer, "stream.append_segment");
      for (const tsdb::FeatureSet& instant : segment) miner->Append(instant);
      append_ns += append.End();
      instants += segment.size();
    }
    TimedSpan snapshot(tracer, "stream.snapshot");
    miner->Snapshot();
    snapshot_ns.push_back(static_cast<double>(snapshot.End()));
  }
  StreamProbe probe;
  probe.append_ns_per_instant =
      static_cast<double>(append_ns) / static_cast<double>(instants);
  probe.snapshot_us = Median(snapshot_ns) / 1e3;
  return probe;
}

}  // namespace ppm::perfbench
