// Streaming miner bench: append throughput and snapshot latency of the
// whole-history incremental hit-set miner (`ContinuousMiner` with no
// pattern window) vs re-running the batch miner from scratch at
// each checkpoint. The streaming state never re-reads history, so its
// per-checkpoint cost is flat while batch re-mining grows linearly with the
// stream so far.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/hitset_miner.h"
#include "obs/json_writer.h"
#include "stream/continuous_miner.h"
#include "tsdb/series_source.h"
#include "util/stopwatch.h"

namespace ppm::bench {
namespace {

void Run(obs::JsonWriter* rows) {
  const uint64_t length = Pick<uint64_t>(500000, 20000);
  const uint64_t seed_prefix = Pick<uint64_t>(10000, 2500);
  const std::vector<uint64_t> checkpoints =
      Pick(std::vector<uint64_t>{50000, 100000, 200000, 350000, 500000},
           std::vector<uint64_t>{5000, 10000, 20000});
  const synth::GeneratedSeries data =
      DieOr(synth::GenerateSeries(Figure2Options(length, 6)));
  MiningOptions options;
  options.period = 50;
  options.min_confidence = 0.8;

  // Seed from an initial prefix.
  tsdb::TimeSeries prefix;
  prefix.symbols() = data.series.symbols();
  for (uint64_t t = 0; t < seed_prefix; ++t) prefix.Append(data.series.at(t));
  auto miner =
      DieOr(stream::ContinuousMiner::SeedFromPrefix(options, prefix));

  std::printf("%12s %14s %16s %16s %10s\n", "instants", "append(Mi/s)",
              "snapshot(ms)", "batch_remine(ms)", "patterns");
  uint64_t consumed = seed_prefix;
  for (const uint64_t checkpoint : checkpoints) {
    Stopwatch append_watch;
    for (uint64_t t = consumed; t < checkpoint; ++t) {
      miner->Append(data.series.at(t));
    }
    const double append_seconds = append_watch.ElapsedSeconds();
    const double rate =
        static_cast<double>(checkpoint - consumed) / append_seconds / 1e6;
    consumed = checkpoint;

    Stopwatch snapshot_watch;
    const MiningResult snapshot = miner->Snapshot().value();
    const double snapshot_ms = snapshot_watch.ElapsedMillis();

    // Batch equivalent: mine the prefix seen so far from scratch.
    tsdb::TimeSeries so_far;
    so_far.symbols() = data.series.symbols();
    for (uint64_t t = 0; t < checkpoint; ++t) so_far.Append(data.series.at(t));
    tsdb::InMemorySeriesSource source(&so_far);
    Stopwatch batch_watch;
    const MiningResult batch = DieOr(MineHitSet(source, options));
    const double batch_ms = batch_watch.ElapsedMillis();

    if (batch.size() != snapshot.size()) {
      std::fprintf(stderr, "stream/batch disagreement: %zu vs %zu\n",
                   snapshot.size(), batch.size());
      std::exit(1);
    }
    std::printf("%12llu %14.1f %16.2f %16.1f %10zu\n",
                static_cast<unsigned long long>(checkpoint), rate, snapshot_ms,
                batch_ms, snapshot.size());
    rows->BeginObject()
        .Key("instants").Uint(checkpoint)
        .Key("append_mi_per_s").Double(rate)
        .Key("snapshot_ms").Double(snapshot_ms)
        .Key("batch_remine_ms").Double(batch_ms)
        .Key("patterns").Uint(snapshot.size());
    rows->EndObject();
  }
}

}  // namespace
}  // namespace ppm::bench

int main(int argc, char** argv) {
  ppm::bench::PrintHeader(
      "Streaming (incremental) mining vs batch re-mining at checkpoints");
  ppm::bench::BenchReport report("stream", argc, argv);
  ppm::bench::Run(&report.rows());
  std::printf(
      "\nSnapshot cost is flat (touches only the hit store); batch re-mining\n"
      "re-reads the whole stream each time.\n");
  report.Write();
  return 0;
}
