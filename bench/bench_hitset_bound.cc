// Validates Property 3.2 empirically: the hit-set size |H| is bounded by
// min(m, 2^n_d - n_d - 1), and reports how tight the bound is (live tree
// size and node count) as |F_1| and the series length vary. This reproduces
// the buffer-size discussion of Section 3.1.2 (yearly vs weekly example).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/hitset_miner.h"
#include "obs/json_writer.h"
#include "tsdb/series_source.h"

namespace ppm::bench {
namespace {

void Report(uint32_t num_f1, uint64_t length, obs::JsonWriter* rows) {
  synth::GeneratorOptions generator = Figure2Options(length, 4);
  generator.num_f1 = num_f1;
  generator.independent_confidence = 0.85;
  const synth::GeneratedSeries data = DieOr(synth::GenerateSeries(generator));

  MiningOptions options;
  options.period = generator.period;
  options.min_confidence = 0.8;
  // The node-count column describes the paper's tree.
  options.hit_store = HitStoreKind::kMaxSubpatternTree;
  tsdb::InMemorySeriesSource source(&data.series);
  const MiningResult result = DieOr(MineHitSet(source, options));

  const uint64_t m = result.stats().num_periods;
  const uint64_t n_d = result.stats().num_f1_letters;
  const uint64_t subset_bound =
      n_d < 63 ? (uint64_t{1} << n_d) - n_d - 1 : UINT64_MAX;
  const uint64_t bound = std::min(m, subset_bound);
  std::printf("%6u %10llu %8llu %6llu %12llu %12llu %12llu %10llu\n", num_f1,
              static_cast<unsigned long long>(length),
              static_cast<unsigned long long>(m),
              static_cast<unsigned long long>(n_d),
              static_cast<unsigned long long>(subset_bound),
              static_cast<unsigned long long>(bound),
              static_cast<unsigned long long>(result.stats().hit_store_entries),
              static_cast<unsigned long long>(result.stats().tree_nodes));
  if (result.stats().hit_store_entries > bound) {
    std::fprintf(stderr, "BOUND VIOLATED\n");
    std::exit(1);
  }
  rows->BeginObject()
      .Key("num_f1").Uint(num_f1)
      .Key("length").Uint(length)
      .Key("num_periods").Uint(m)
      .Key("n_d").Uint(n_d)
      .Key("bound").Uint(bound)
      .Key("hit_store_entries").Uint(result.stats().hit_store_entries)
      .Key("time_ms").Double(result.stats().elapsed_seconds * 1e3);
  rows->EndObject();
}

}  // namespace
}  // namespace ppm::bench

int main(int argc, char** argv) {
  using ppm::bench::Pick;
  ppm::bench::PrintHeader(
      "Property 3.2: |H| <= min(m, 2^n_d - n_d - 1) (hit-set buffer bound)");
  std::printf("%6s %10s %8s %6s %12s %12s %12s %10s\n", "|F1|", "LENGTH", "m",
              "n_d", "2^n-n-1", "bound", "|H|", "tree_nodes");
  ppm::bench::BenchReport report("hitset_bound", argc, argv);
  const uint64_t base_length = Pick<uint64_t>(100000, 5000);
  for (const uint32_t num_f1 :
       Pick(std::vector<uint32_t>{4, 6, 8, 10, 12, 16},
            std::vector<uint32_t>{4, 8, 12})) {
    ppm::bench::Report(num_f1, base_length, &report.rows());
  }
  // Few periods: the m term of the bound dominates (the paper's "yearly
  // patterns over 100 years need at most 100 buffer slots").
  for (const uint64_t length :
       Pick(std::vector<uint64_t>{5000, 10000, 50000},
            std::vector<uint64_t>{1000, 2500})) {
    ppm::bench::Report(12, length, &report.rows());
  }
  std::printf("\nAll configurations satisfied the bound.\n");
  report.Write();
  return 0;
}
