#ifndef PPM_PERFBENCH_SERVING_H_
#define PPM_PERFBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mining_options.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "service/server.h"
#include "tsdb/time_series.h"
#include "util/random.h"

namespace ppm::perfbench {

/// One series of a workload's input: the instants loaded at set-up, and a
/// pool of whole segments (generated as the series' continuation) that its
/// appends cycle through.
struct SeriesInput {
  std::string name;
  tsdb::TimeSeries initial;
  /// Pool segments as feature sets (to rebuild snapshots) and as the
  /// feature-name lists an append request carries.
  std::vector<std::vector<tsdb::FeatureSet>> pool;
  std::vector<std::vector<std::vector<std::string>>> pool_names;
};

/// How a workload is served: its traffic mix, rate and cache budget.
struct ServeProfile {
  /// Nominal open-loop rate, requests per second.
  double rate_rps = 0;
  /// Share of requests that append one whole segment; the rest query.
  double append_share = 0;
  /// Pattern-cache budget in bytes (0 = unbounded).
  uint64_t cache_budget_bytes = 0;
};

/// One successfully answered request of a socket run.
struct Completion {
  uint64_t due_ns = 0;
  uint64_t done_ns = 0;
  bool append = false;
  bool hit = false;
};

/// Results of one open-loop socket run at the nominal rate.
struct SocketRun {
  /// In completion order.
  std::vector<Completion> completions;
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
};

/// Per-layer timings of the in-process replay (nanoseconds per call).
struct ReplayRun {
  std::vector<double> request_codec_ns;
  std::vector<double> response_codec_ns;
  std::vector<double> hit_ns;
  std::vector<double> refresh_ns;
  std::vector<double> miss_ns;
  std::vector<double> append_ns;
  uint64_t queries = 0;
  uint64_t hits = 0;
  uint64_t refreshes = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t wal_bytes = 0;
  uint64_t appended_instants = 0;
  uint64_t failed = 0;
};

/// Outcome of checking sampled responses against batch mines.
struct Verification {
  uint64_t sampled = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
};

/// Hosts a workload's series in a `PatternServer` (1 poller, 2 workers,
/// WAL fsync off) and drives it: over the unix socket with `LoadGen`, or
/// in-process through `MineService` for the traced per-layer run. Keeps a
/// shadow of every append so any served (version, length) snapshot can be
/// rebuilt and re-mined in batch.
class ServingHarness {
 public:
  static constexpr uint32_t kWorkers = 2;
  static constexpr uint32_t kMaxConnections = 4;
  /// Deterministic 1-in-N sample of query responses is checked.
  static constexpr uint64_t kSampleEvery = 50;
  /// Distinct snapshots re-mined per run, at most.
  static constexpr size_t kMaxChecks = 48;
  /// Replayed requests whose spans the trace keeps; later ones are timed
  /// alike. Every request's spans would make a trace of about 100 MB.
  static constexpr uint64_t kTracedOps = 2000;

  ServingHarness(const std::vector<SeriesInput>* inputs,
                 const MiningOptions& query, const ServeProfile& profile,
                 std::string workdir, uint64_t seed);
  ~ServingHarness();
  ServingHarness(const ServingHarness&) = delete;
  ServingHarness& operator=(const ServingHarness&) = delete;

  /// Stops any running server, then starts one in a fresh directory, loads
  /// every series into it and warms the cache with one query per series.
  /// Returns the elapsed seconds. The warm-up queries' times count as
  /// cache misses in `warmup_miss_ns()`.
  double SetUp();

  /// Socket run: `seconds` of Poisson arrivals at the nominal rate.
  SocketRun RunSocket(double seconds);

  /// In-process closed-loop replay of the same traffic mix for `seconds`,
  /// timing each layer call; the first `kTracedOps` requests also leave
  /// their spans in `tracer`.
  ReplayRun ReplayInProcess(double seconds, obs::Tracer* tracer);

  /// Re-mines (batch `MineHitSet`) the snapshots of the sampled responses
  /// and compares them field by field.
  Verification Verify() const;

  const std::vector<double>& warmup_miss_ns() const { return warmup_miss_ns_; }
  service::PatternServer& server() { return *server_; }

 private:
  struct Sample {
    uint32_t series = 0;
    uint64_t version = 0;
    uint64_t length = 0;
    std::string patterns;
  };

  LoadOp NextOp(Rng* rng) const;
  service::wire::Request MakeRequest(const LoadOp& op);
  /// True when a served (version, length) stamp is a snapshot the shadow
  /// knows: no more appends than were sent, each one segment long.
  bool CheckStamp(uint32_t series, uint64_t version, uint64_t length) const;
  /// Counts a query response; true for the deterministic 1-in-N sample.
  bool TakeSample();
  void StopServer();
  tsdb::TimeSeries Snapshot(uint32_t series, uint64_t length) const;

  const std::vector<SeriesInput>* inputs_;
  MiningOptions query_;
  ServeProfile profile_;
  std::string workdir_;
  uint64_t seed_;
  Rng rng_;

  int setups_ = 0;
  std::string root_;
  std::unique_ptr<service::PatternServer> server_;
  /// Store version of each series right after set-up, and appends sent to
  /// it since (append k carries pool segment k mod pool size).
  std::vector<uint64_t> base_version_;
  std::vector<uint64_t> appends_sent_;
  uint64_t queries_seen_ = 0;
  std::vector<Sample> samples_;
  std::vector<double> warmup_miss_ns_;
};

/// The stream layer alone: a standalone `ContinuousMiner` seeded from one
/// series, fed its pool segments instant by instant with a `Snapshot`
/// after each segment, for `seconds`.
struct StreamProbe {
  double append_ns_per_instant = 0;
  double snapshot_us = 0;
};
StreamProbe ProbeContinuousMiner(const SeriesInput& input,
                                 const MiningOptions& options, double seconds,
                                 obs::Tracer* tracer);

}  // namespace ppm::perfbench

#endif  // PPM_PERFBENCH_SERVING_H_
