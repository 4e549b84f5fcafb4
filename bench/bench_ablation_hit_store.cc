// Ablation 1 (DESIGN.md): the paper's max-subpattern tree vs the vertical
// bitmap store as the hit store of Algorithm 3.2. Both give identical
// results; the tree walks the reachable ancestors of each candidate, while
// the vertical store ANDs the candidate's letter columns and sums the
// counts of the surviving slots. The gap widens with the number of distinct
// hits and the number of candidates evaluated.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/hitset_miner.h"
#include "obs/json_writer.h"
#include "tsdb/series_source.h"

namespace ppm::bench {
namespace {

void Run(uint32_t max_pat_length, uint32_t num_f1, double independent_conf,
         double min_conf, obs::JsonWriter* rows) {
  synth::GeneratorOptions generator =
      Figure2Options(Pick<uint64_t>(100000, 5000), max_pat_length);
  generator.num_f1 = num_f1;
  generator.independent_confidence = independent_conf;
  const synth::GeneratedSeries data = DieOr(synth::GenerateSeries(generator));

  MiningOptions options;
  options.period = generator.period;
  options.min_confidence = min_conf;

  options.hit_store = HitStoreKind::kMaxSubpatternTree;
  tsdb::InMemorySeriesSource tree_source(&data.series);
  const MiningResult tree = DieOr(MineHitSet(tree_source, options));

  options.hit_store = HitStoreKind::kVertical;
  tsdb::InMemorySeriesSource vertical_source(&data.series);
  const MiningResult vertical = DieOr(MineHitSet(vertical_source, options));

  if (tree.size() != vertical.size()) {
    std::fprintf(stderr, "store disagreement: %zu vs %zu\n", tree.size(),
                 vertical.size());
    std::exit(1);
  }
  std::printf("%8u %6u %12llu %12llu %12llu %12.1f %12.1f\n", max_pat_length,
              num_f1,
              static_cast<unsigned long long>(tree.stats().hit_store_entries),
              static_cast<unsigned long long>(tree.stats().tree_nodes),
              static_cast<unsigned long long>(tree.stats().candidates_evaluated),
              tree.stats().elapsed_seconds * 1e3,
              vertical.stats().elapsed_seconds * 1e3);
  rows->BeginObject()
      .Key("mpl").Uint(max_pat_length)
      .Key("num_f1").Uint(num_f1)
      .Key("hit_store_entries").Uint(tree.stats().hit_store_entries)
      .Key("candidates").Uint(tree.stats().candidates_evaluated)
      .Key("tree_ms").Double(tree.stats().elapsed_seconds * 1e3)
      .Key("vertical_ms").Double(vertical.stats().elapsed_seconds * 1e3);
  rows->EndObject();
}

}  // namespace
}  // namespace ppm::bench

int main(int argc, char** argv) {
  ppm::bench::PrintHeader(
      "Ablation: max-subpattern tree vs vertical bitmap hit store");
  std::printf("%8s %6s %12s %12s %12s %12s %12s\n", "MPL", "|F1|", "|H|",
              "tree_nodes", "candidates", "tree(ms)", "vertical(ms)");
  ppm::bench::BenchReport report("ablation_hit_store", argc, argv);
  ppm::obs::JsonWriter& rows = report.rows();
  ppm::bench::Run(4, 12, 0.85, 0.8, &rows);
  ppm::bench::Run(6, 12, 0.85, 0.8, &rows);
  if (!ppm::bench::CiProfile()) {
    ppm::bench::Run(8, 12, 0.85, 0.8, &rows);
    ppm::bench::Run(10, 12, 0.85, 0.8, &rows);
  }
  // More independent letters -> many distinct hit masks -> bigger store.
  ppm::bench::Run(4, 20, 0.6, 0.5, &rows);
  if (!ppm::bench::CiProfile()) {
    ppm::bench::Run(4, 30, 0.6, 0.5, &rows);
    ppm::bench::Run(4, 40, 0.6, 0.5, &rows);
  }
  report.Write();
  return 0;
}
