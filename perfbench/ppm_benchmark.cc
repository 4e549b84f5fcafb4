// The repository benchmark (perfbench/README.md): four workloads -- the
// paper's Figure 2 scale, a derivation-bound dense mine, and two open-loop
// `ppmd` traffic mixes -- each run from a seed for a fixed time.
//
//   ppm_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--workdir DIR] [--trace-out FILE]
//   ppm_benchmark --build-info
//
// `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
// runs the traced per-layer breakdown instead. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Progress
// and sample counts go to stderr. Every output is checked: mined pattern
// sets against an Apriori mine of the same series, served ones against a
// batch mine of the snapshot they claim.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "core/apriori_miner.h"
#include "core/hitset_miner.h"
#include "core_layers.h"
#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "service/series_store.h"
#include "serving.h"
#include "synth/generator.h"
#include "tsdb/series_source.h"

namespace ppm::perfbench {
namespace {

/// Whole segments of continuation generated per series for appends.
constexpr uint32_t kPoolSegments = 64;
/// Set-ups per end-to-end run; `setup_s` is their median.
constexpr int kSetups = 5;
/// An open-loop run whose generator released requests later than this at
/// p99 did not offer the load it claims.
constexpr double kMaxLateP99Ms = 5.0;

struct Workload {
  const char* name;
  /// serve_*: end-to-end load goes over the socket; mine_*: closed-loop
  /// `MineHitSet` calls on an in-memory series.
  bool serve;
  uint32_t num_series;
  synth::GeneratorOptions generator;
  MiningOptions mining;
  /// Traffic of the socket run (serve_*) and of the traced serving probe
  /// every workload gets.
  ServeProfile profile;
};

/// The paper's Figure 2 generator: p = 50, |F_1| = 12.
synth::GeneratorOptions Figure2(uint64_t length, uint32_t max_pat_length) {
  synth::GeneratorOptions options;
  options.length = length;
  options.period = 50;
  options.max_pat_length = max_pat_length;
  options.num_f1 = 12;
  options.num_features = 100;
  options.anchor_confidence = 0.9;
  options.independent_confidence = 0.85;
  options.noise_mean = 1.0;
  return options;
}

MiningOptions Mining(double min_confidence) {
  MiningOptions options;
  options.period = 50;
  options.min_confidence = min_confidence;
  options.num_threads = 1;
  return options;
}

std::vector<Workload> Workloads() {
  // Dense: 40 frequent letters, 36 of them independent at 0.6, so every
  // anchor subset joined with one independent letter is frequent at 0.5 and
  // nearly every segment is a distinct hit -- derivation dominates.
  synth::GeneratorOptions dense = Figure2(50'000, 4);
  dense.num_f1 = 40;
  dense.independent_confidence = 0.6;
  // Every rate is at most a quarter of the closed-loop capacity measured
  // for its traffic (README, "Rates"), so latency is the request path's and
  // not a queue's on the edge of overload. In serve_churn appends are 65%
  // of requests, so its median request is an append and its 90th
  // percentile a cache miss, each well inside its own mode.
  return {
      {"mine_paper", false, 1, Figure2(500'000, 8), Mining(0.8),
       ServeProfile{100, 0.05, 0}},
      {"mine_dense", false, 1, dense, Mining(0.5),
       ServeProfile{20, 0.05, 0}},
      {"serve_read_mostly", true, 8, Figure2(50'000, 8), Mining(0.8),
       ServeProfile{1000, 0.05, 0}},
      {"serve_churn", true, 32, Figure2(50'000, 8), Mining(0.8),
       ServeProfile{100, 0.65, 1 << 20}},
  };
}

/// A small version of every workload, for `--smoke`.
Workload Smoke(Workload workload) {
  workload.num_series = std::min<uint32_t>(workload.num_series, 2);
  workload.generator.length = std::min<uint64_t>(workload.generator.length,
                                                 5'000);
  workload.profile.rate_rps = std::min(workload.profile.rate_rps, 100.0);
  return workload;
}

uint64_t SeriesSeed(uint64_t seed, uint32_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<SeriesInput> MakeInputs(const Workload& workload, uint64_t seed) {
  std::vector<SeriesInput> inputs(workload.num_series);
  const uint32_t period = workload.generator.period;
  for (uint32_t i = 0; i < workload.num_series; ++i) {
    synth::GeneratorOptions options = workload.generator;
    options.length += uint64_t{kPoolSegments} * period;
    options.seed = SeriesSeed(seed, i);
    const synth::GeneratedSeries generated =
        DieOr(synth::GenerateSeries(options), "generate series");
    const tsdb::TimeSeries& series = generated.series;
    SeriesInput& input = inputs[i];
    input.name = "series-" + std::to_string(i);
    input.initial.symbols() = series.symbols();
    for (uint64_t t = 0; t < workload.generator.length; ++t) {
      input.initial.Append(series.at(t));
    }
    for (uint32_t k = 0; k < kPoolSegments; ++k) {
      std::vector<tsdb::FeatureSet> segment;
      std::vector<std::vector<std::string>> names;
      for (uint32_t p = 0; p < period; ++p) {
        const tsdb::FeatureSet& instant =
            series.at(workload.generator.length + uint64_t{k} * period + p);
        segment.push_back(instant);
        std::vector<std::string>& instant_names = names.emplace_back();
        instant.ForEach([&](uint32_t id) {
          instant_names.push_back(series.symbols().NameOrPlaceholder(id));
        });
      }
      input.pool.push_back(std::move(segment));
      input.pool_names.push_back(std::move(names));
    }
  }
  return inputs;
}

/// Reference pattern set of `series`: Algorithm 3.1, an independent miner.
std::string Reference(const tsdb::TimeSeries& series,
                      const MiningOptions& options) {
  tsdb::InMemorySeriesSource source(&series);
  return SerializePatterns(DieOr(MineApriori(source, options), "apriori"),
                           series.symbols());
}

double PeakRssMb() {
  return static_cast<double>(obs::ReadResourceUsage().rss_hwm_bytes) /
         (1024.0 * 1024.0);
}

/// Metric values of one run, printed in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, value, unit);
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  std::string ToJson() const {
    obs::JsonWriter out;
    out.BeginObject()
        .Key("correct").Bool(correct)
        .Key("attempted").Uint(attempted)
        .Key("failed").Uint(failed)
        .Key("metrics").BeginObject();
    for (const auto& [name, value, unit] : metrics_) {
      out.Key(name).BeginObject().Key("value").Double(value).Key("unit")
          .String(unit).EndObject();
    }
    out.EndObject().EndObject();
    return out.str();
  }

 private:
  std::vector<std::tuple<std::string, double, const char*>> metrics_;
};

double Ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// ---------------------------------------------------------------------------
// End-to-end runs (--trace 0).

void RunMineEndToEnd(const Workload& workload, uint64_t seed, double seconds,
                     const std::string& workdir, Report* report) {
  const std::vector<SeriesInput> inputs = MakeInputs(workload, seed);
  const std::string expected = Reference(inputs[0].initial, workload.mining);
  const std::string path = workdir + "/series.ppmts";
  DieIf(service::SaveSeriesFile(inputs[0].initial, path), "save series");

  // Set-up: load the series file and run one warm-up mine.
  std::vector<double> setup_s;
  tsdb::TimeSeries series;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t begin = NowNs();
    series = DieOr(service::LoadSeriesFile(path), "load series");
    tsdb::InMemorySeriesSource source(&series);
    const MiningResult warm =
        DieOr(MineHitSet(source, workload.mining), "warm-up mine");
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
    if (SerializePatterns(warm, series.symbols()) != expected) {
      report->correct = false;
    }
  }

  std::vector<double> mine_ms;
  double cpu_ms = 0;
  uint64_t mismatches = 0;
  const uint64_t loop_end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (mine_ms.empty() || NowNs() < loop_end) {
    tsdb::InMemorySeriesSource source(&series);
    const double cpu_before = ProcessCpuMs();
    const uint64_t begin = NowNs();
    Result<MiningResult> result = MineHitSet(source, workload.mining);
    mine_ms.push_back(static_cast<double>(NowNs() - begin) / 1e6);
    cpu_ms += ProcessCpuMs() - cpu_before;
    ++report->attempted;
    if (!result.ok()) {
      ++report->failed;
    } else if (SerializePatterns(*result, series.symbols()) != expected) {
      ++mismatches;
    }
  }
  report->failed += mismatches;
  report->correct = report->correct && mismatches == 0;
  std::fprintf(stderr, "%s: %zu mines, %llu mismatches\n", workload.name,
               mine_ms.size(), static_cast<unsigned long long>(mismatches));

  report->Set("setup_s", Median(setup_s), "s");
  report->Set("op_p50_ms", Quantile(mine_ms, 0.5), "ms");
  report->Set("op_p90_ms", Quantile(mine_ms, 0.9), "ms");
  report->Set("cpu_ms_per_op",
              cpu_ms / static_cast<double>(mine_ms.size()), "ms");
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

void RunServeEndToEnd(const Workload& workload, uint64_t seed, double seconds,
                      const std::string& workdir, Report* report) {
  const std::vector<SeriesInput> inputs = MakeInputs(workload, seed);
  ServingHarness harness(&inputs, workload.mining, workload.profile, workdir,
                         seed);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) setup_s.push_back(harness.SetUp());

  const double cpu_before = ProcessCpuMs();
  const SocketRun run = harness.RunSocket(seconds);
  const double cpu_ms = ProcessCpuMs() - cpu_before;
  if (run.completions.empty()) Die("no request of the socket run succeeded");
  const Verification verification = harness.Verify();
  report->attempted = run.attempted;
  report->failed = run.failed + verification.mismatches;
  report->correct = verification.mismatches == 0 && verification.checked > 0;

  std::vector<double> latency_ms;
  size_t appends = 0;
  for (const Completion& c : run.completions) {
    latency_ms.push_back(static_cast<double>(c.done_ns - c.due_ns) / 1e6);
    appends += c.append;
  }
  std::fprintf(stderr,
               "%s: %zu queries, %zu appends at %.0f rps (late p99 %.3f ms); "
               "%llu sampled, %llu checked, %llu mismatches\n",
               workload.name, run.completions.size() - appends, appends,
               workload.profile.rate_rps, Quantile(run.late_ms, 0.99),
               static_cast<unsigned long long>(verification.sampled),
               static_cast<unsigned long long>(verification.checked),
               static_cast<unsigned long long>(verification.mismatches));
  if (Quantile(run.late_ms, 0.99) > kMaxLateP99Ms) {
    std::fprintf(stderr,
                 "WARNING: the load generator ran late (p99 above %.0f ms); "
                 "this run is not a valid measurement\n",
                 kMaxLateP99Ms);
  }

  report->Set("setup_s", Median(setup_s), "s");
  report->Set("op_p50_ms", Quantile(latency_ms, 0.5), "ms");
  report->Set("op_p90_ms", Quantile(latency_ms, 0.9), "ms");
  report->Set("cpu_ms_per_op",
              cpu_ms / static_cast<double>(run.completions.size()), "ms");
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

// ---------------------------------------------------------------------------
// Traced per-layer run (--trace 1), the same for every workload: the core
// layers over the workload's first series, then its serving path.

void RunTraced(const Workload& workload, uint64_t seed, double seconds,
               const std::string& workdir, const std::string& trace_out,
               Report* report) {
  const std::vector<SeriesInput> inputs = MakeInputs(workload, seed);
  const tsdb::TimeSeries& series = inputs[0].initial;
  const std::string expected = Reference(series, workload.mining);
  obs::Tracer tracer;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter db_passes = registry.GetCounter("ppm.scan.db_passes");
  uint64_t mismatches = 0;

  // Core: untraced `MineHitSet` and its traced decomposition, alternating
  // so both see the same machine state; their ratio is the tracing cost.
  CoreLayerTotals core;
  std::vector<double> untraced_ns;
  std::vector<double> traced_ns;
  MiningStats untraced_stats;
  uint64_t patterns = 0;
  uint64_t passes = 0;
  uint64_t hit_store_bytes = 0;
  const uint64_t core_deadline =
      NowNs() + static_cast<uint64_t>(0.4 * seconds * 1e9);
  while (traced_ns.size() < 3 || NowNs() < core_deadline) {
    tsdb::InMemorySeriesSource source(&series);
    const uint64_t passes_before = db_passes.value();
    const uint64_t begin = NowNs();
    const MiningResult plain =
        DieOr(MineHitSet(source, workload.mining), "mine");
    untraced_ns.push_back(static_cast<double>(NowNs() - begin));
    passes += db_passes.value() - passes_before;
    untraced_stats = plain.stats();
    patterns = plain.size();
    hit_store_bytes =
        registry.GetGauge("ppm.resource.hit_store_bytes").value();

    const uint64_t traced_before = core.mine_ns;
    const MiningResult traced =
        TracedMineHitSet(series, workload.mining, &tracer, &core);
    traced_ns.push_back(static_cast<double>(core.mine_ns - traced_before));
    report->attempted += 2;
    if (SerializePatterns(plain, series.symbols()) != expected) ++mismatches;
    if (SerializePatterns(traced, series.symbols()) != expected) ++mismatches;
  }

  // Serving: socket probe at the workload's rate, then the in-process
  // replay and the standalone stream layer.
  ServingHarness harness(&inputs, workload.mining, workload.profile, workdir,
                         seed);
  harness.SetUp();
  // Set-up's puts create each series' tail WAL, durably; from here on an
  // fsync would come from the append path, which runs with WalFsync::kNever.
  const obs::Counter fsyncs = registry.GetCounter("ppm.wal.fsyncs");
  const uint64_t fsyncs_before = fsyncs.value();
  const SocketRun socket = harness.RunSocket(0.25 * seconds);
  const ReplayRun replay = harness.ReplayInProcess(0.25 * seconds, &tracer);
  const StreamProbe stream =
      ProbeContinuousMiner(inputs[0], workload.mining, 0.1 * seconds, &tracer);
  const Verification verification = harness.Verify();
  const uint64_t resident_bytes =
      harness.server().service().cache().resident_bytes();
  const uint64_t run_fsyncs = fsyncs.value() - fsyncs_before;

  // Socket latency of the queries the cache answered as hits (all queries
  // when none hit), against the in-process hit path.
  std::vector<double> socket_hit_ms;
  std::vector<double> socket_query_ms;
  for (const Completion& c : socket.completions) {
    if (c.append) continue;
    const double ms = static_cast<double>(c.done_ns - c.due_ns) / 1e6;
    socket_query_ms.push_back(ms);
    if (c.hit) socket_hit_ms.push_back(ms);
  }
  if (socket_hit_ms.empty()) socket_hit_ms = socket_query_ms;

  report->attempted += socket.attempted + replay.queries +
                       replay.append_ns.size();
  mismatches += verification.mismatches;
  report->failed = socket.failed + replay.failed + mismatches;
  const double db_passes_per_mine =
      static_cast<double>(passes) / static_cast<double>(untraced_ns.size());
  report->correct = mismatches == 0 && verification.checked > 0 &&
                    db_passes_per_mine == 2.0 && run_fsyncs == 0;

  if (!trace_out.empty()) DieIf(tracer.WriteChromeTrace(trace_out), "trace");
  std::fprintf(stderr,
               "%s traced: %llu core mines, %zu socket queries (%zu hits), "
               "%llu replay queries, %zu appends; %llu sampled, %llu "
               "checked, %llu mismatches; %zu spans\n",
               workload.name, static_cast<unsigned long long>(core.mines),
               socket_query_ms.size(), socket_hit_ms.size(),
               static_cast<unsigned long long>(replay.queries),
               replay.append_ns.size(),
               static_cast<unsigned long long>(verification.sampled),
               static_cast<unsigned long long>(verification.checked),
               static_cast<unsigned long long>(verification.mismatches),
               tracer.events().size());

  const double mines = static_cast<double>(core.mines);
  const double segments = static_cast<double>(core.segments);
  const double queries = static_cast<double>(core.count_queries);
  const double mine_ns = static_cast<double>(core.mine_ns);
  report->Set("core.f1_scan.ns_per_segment",
              Ratio(static_cast<double>(core.f1_scan_ns), segments), "ns");
  report->Set("core.second_scan.ns_per_segment",
              Ratio(static_cast<double>(core.second_scan_ns), segments), "ns");
  report->Set("core.derive.ns_per_candidate",
              Ratio(static_cast<double>(core.derive_ns),
                    static_cast<double>(core.candidates)),
              "ns");
  report->Set("core.count.us_per_query",
              Ratio(static_cast<double>(core.count_ns), queries) / 1e3, "us");
  report->Set("core.count.nodes_per_query",
              Ratio(static_cast<double>(core.node_visits), queries), "count");
  report->Set("core.derive.gen_ms",
              static_cast<double>(core.derive_ns - core.count_ns) / mines / 1e6,
              "ms");
  report->Set("core.share.f1_scan",
              static_cast<double>(core.f1_scan_ns) / mine_ns, "ratio");
  report->Set("core.share.second_scan",
              static_cast<double>(core.second_scan_ns) / mine_ns, "ratio");
  report->Set("core.share.derive",
              static_cast<double>(core.derive_ns) / mine_ns, "ratio");
  report->Set("core.db_passes", db_passes_per_mine, "count");
  const double candidates =
      static_cast<double>(untraced_stats.candidates_evaluated);
  report->Set("core.candidates", candidates, "count");
  report->Set("core.patterns", static_cast<double>(patterns), "count");
  // Counted candidates that turned out frequent (level-1 patterns come
  // from the F1 scan and are never counted).
  report->Set("core.useful_ratio",
              Ratio(static_cast<double>(patterns -
                                        untraced_stats.num_f1_letters),
                    candidates),
              "ratio");
  report->Set("core.distinct_hits",
              static_cast<double>(untraced_stats.hit_store_entries), "count");
  report->Set("core.tree_nodes",
              static_cast<double>(untraced_stats.tree_nodes), "count");
  report->Set("core.hit_store_bytes", static_cast<double>(hit_store_bytes),
              "bytes");

  report->Set("service.wire.request_codec_us",
              Median(replay.request_codec_ns) / 1e3, "us");
  report->Set("service.wire.response_codec_us",
              Median(replay.response_codec_ns) / 1e3, "us");
  const double hit_us = Median(replay.hit_ns) / 1e3;
  report->Set("service.cache.hit_us", hit_us, "us");
  report->Set("service.cache.refresh_us", Median(replay.refresh_ns) / 1e3,
              "us");
  std::vector<double> miss_ns = replay.miss_ns;
  miss_ns.insert(miss_ns.end(), harness.warmup_miss_ns().begin(),
                 harness.warmup_miss_ns().end());
  report->Set("service.cache.miss_ms", Median(miss_ns) / 1e6, "ms");
  const double replay_queries = static_cast<double>(replay.queries);
  report->Set("service.cache.hit_ratio",
              Ratio(static_cast<double>(replay.hits), replay_queries),
              "ratio");
  report->Set("service.cache.refresh_ratio",
              Ratio(static_cast<double>(replay.refreshes), replay_queries),
              "ratio");
  report->Set("service.cache.miss_ratio",
              Ratio(static_cast<double>(replay.misses), replay_queries),
              "ratio");
  report->Set("service.cache.evictions",
              static_cast<double>(replay.evictions), "count");
  report->Set("service.cache.resident_bytes",
              static_cast<double>(resident_bytes), "bytes");
  report->Set("service.store.append_us", Median(replay.append_ns) / 1e3,
              "us");
  report->Set("service.admission.shed_ratio",
              Ratio(static_cast<double>(socket.shed),
                    static_cast<double>(socket.attempted)),
              "ratio");
  report->Set("server.residual_us", Median(socket_hit_ms) * 1e3 - hit_us,
              "us");
  report->Set("stream.append_ns_per_instant", stream.append_ns_per_instant,
              "ns");
  report->Set("stream.snapshot_us", stream.snapshot_us, "us");
  report->Set("tsdb.wal.bytes_per_instant",
              Ratio(static_cast<double>(replay.wal_bytes),
                    static_cast<double>(replay.appended_instants)),
              "bytes");
  report->Set("tsdb.wal.fsyncs", static_cast<double>(run_fsyncs), "count");
  report->Set("loadgen.late_p99_ms", Quantile(socket.late_ms, 0.99), "ms");
  report->Set("obs.tracer_events",
              static_cast<double>(obs::Tracer::Global().events().size()),
              "count");
  report->Set("trace.overhead_ratio",
              Median(traced_ns) / Median(untraced_ns) - 1.0, "ratio");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string workdir = ".bench_build/work";
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Die("--trace must be 0 or 1");
  return args;
}

void PrintBuildInfo() {
  const obs::BuildInfo& info = obs::GetBuildInfo();
  obs::JsonWriter out;
  out.BeginObject()
      .Key("git_sha").String(info.git_sha)
      .Key("compiler").String(info.compiler)
      .Key("build_type").String(info.build_type)
      .Key("cxx_flags").String(info.cxx_flags)
      .Key("sanitizer").String(info.sanitizer)
      .Key("assertions").Bool(info.assertions)
      .Key("cores").Uint(info.num_cores)
      .EndObject();
  std::printf("%s\n", out.str().c_str());
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--build-info") == 0) {
    PrintBuildInfo();
    return 0;
  }
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  const std::vector<Workload> workloads = Workloads();
  for (const Workload& workload : workloads) {
    if (args.workload == workload.name) found = &workload;
  }
  if (found == nullptr) Die("unknown workload '" + args.workload + "'");
  const Workload workload = args.smoke ? Smoke(*found) : *found;

  const std::string workdir =
      args.workdir + "/" + std::to_string(::getpid());
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  Report report;
  if (args.trace == 1) {
    RunTraced(workload, args.seed, args.seconds, workdir, args.trace_out,
              &report);
  } else if (workload.serve) {
    RunServeEndToEnd(workload, args.seed, args.seconds, workdir, &report);
  } else {
    RunMineEndToEnd(workload, args.seed, args.seconds, workdir, &report);
  }
  std::filesystem::remove_all(workdir);
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ppm::perfbench

int main(int argc, char** argv) { return ppm::perfbench::Main(argc, argv); }
