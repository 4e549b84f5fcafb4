// Ablation 2 (DESIGN.md): isolates the *derivation* step of Algorithm 3.2
// (no series scans involved) and compares three counting strategies for the
// level-wise candidate evaluation of Algorithm 4.2:
//   A. per-candidate pruned traversal of the max-subpattern tree
//      (`CountSuperpatterns`, the paper's method);
//   B. hit-major flat counting: one pass over the distinct hits per level,
//      incrementing every candidate that is a subset of the hit;
//   C. per-candidate AND + weighted popcount over the vertical store's
//      letter columns (the default hit store).
// All must find the identical frequent set; only the derivation time and
// the work model differ.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/candidate_gen.h"
#include "obs/json_writer.h"
#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "tsdb/series_source.h"
#include "util/stopwatch.h"

namespace ppm::bench {
namespace {

struct Derived {
  uint64_t frequent = 0;
  uint64_t candidates = 0;
  double ms = 0;
};

/// Level-wise derivation from F_1; `count_level` fills in the counts of one
/// level's candidates.
template <typename CountLevel>
Derived DeriveLevelwise(const F1ScanResult& f1, CountLevel&& count_level) {
  Derived out;
  Stopwatch watch;
  std::vector<LevelEntry> frequent = MakeLevelOne(f1.letter_counts);
  out.frequent += frequent.size();
  while (!frequent.empty()) {
    std::vector<LevelEntry> candidates = GenerateCandidates(frequent);
    if (candidates.empty()) break;
    out.candidates += candidates.size();
    count_level(&candidates);
    std::vector<LevelEntry> next;
    for (LevelEntry& candidate : candidates) {
      if (candidate.count >= f1.min_count) next.push_back(std::move(candidate));
    }
    out.frequent += next.size();
    frequent = std::move(next);
  }
  out.ms = watch.ElapsedMillis();
  return out;
}

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

  // Shared setup: F_1 and the hit multiset (every strategy starts here).
  tsdb::InMemorySeriesSource source(&data.series);
  const F1ScanResult f1 = DieOr(ScanForF1(source, options));
  TreeHitStore tree(f1.space.full_mask(), f1.space.size());
  VerticalHitStore vertical(f1.space.size());
  {
    Bitset mask(f1.space.size());
    for (uint64_t segment = 0; segment < f1.num_periods; ++segment) {
      f1.space.SegmentMask(
          &data.series.instants()[segment * options.period], &mask);
      if (mask.Count() >= 2) {
        tree.AddHit(mask);
        vertical.AddHit(mask);
      }
    }
  }
  std::vector<std::pair<Bitset, uint64_t>> hits;
  vertical.ForEachHit([&hits](const Bitset& mask, uint64_t count) {
    hits.emplace_back(mask, count);
  });

  const Derived a =
      DeriveLevelwise(f1, [&tree](std::vector<LevelEntry>* level) {
        for (LevelEntry& candidate : *level) {
          candidate.count = tree.CountSuperpatterns(candidate.mask);
        }
      });
  const Derived b =
      DeriveLevelwise(f1, [&hits](std::vector<LevelEntry>* level) {
        for (const auto& [mask, count] : hits) {
          for (LevelEntry& candidate : *level) {
            if (candidate.mask.IsSubsetOf(mask)) candidate.count += count;
          }
        }
      });
  const Derived c =
      DeriveLevelwise(f1, [&vertical](std::vector<LevelEntry>* level) {
        for (LevelEntry& candidate : *level) {
          candidate.count = vertical.CountSuperpatterns(candidate.mask);
        }
      });

  for (const Derived* other : {&b, &c}) {
    if (other->frequent != a.frequent || other->candidates != a.candidates) {
      std::fprintf(stderr, "strategy disagreement: %llu/%llu vs %llu/%llu\n",
                   static_cast<unsigned long long>(a.frequent),
                   static_cast<unsigned long long>(a.candidates),
                   static_cast<unsigned long long>(other->frequent),
                   static_cast<unsigned long long>(other->candidates));
      std::exit(1);
    }
  }
  std::printf("%8u %6u %10zu %12llu %12llu %14.2f %14.2f %14.2f\n",
              max_pat_length, num_f1, hits.size(),
              static_cast<unsigned long long>(a.candidates),
              static_cast<unsigned long long>(a.frequent), a.ms, b.ms, c.ms);
  rows->BeginObject()
      .Key("mpl").Uint(max_pat_length)
      .Key("num_f1").Uint(num_f1)
      .Key("distinct_hits").Uint(hits.size())
      .Key("candidates").Uint(a.candidates)
      .Key("frequent").Uint(a.frequent)
      .Key("tree_ms").Double(a.ms)
      .Key("flat_ms").Double(b.ms)
      .Key("vertical_ms").Double(c.ms);
  rows->EndObject();
}

}  // namespace
}  // namespace ppm::bench

int main(int argc, char** argv) {
  ppm::bench::PrintHeader(
      "Ablation: derivation counting -- tree traversal (A) vs hit-major flat "
      "(B) vs vertical bitmaps (C)");
  std::printf("%8s %6s %10s %12s %12s %14s %14s %14s\n", "MPL", "|F1|", "|H|",
              "candidates", "frequent", "tree(ms)", "flat(ms)",
              "vertical(ms)");
  ppm::bench::BenchReport report("ablation_derivation", argc, argv);
  ppm::obs::JsonWriter& rows = report.rows();
  ppm::bench::Run(4, 12, 0.85, 0.8, &rows);
  ppm::bench::Run(6, 12, 0.85, 0.8, &rows);
  if (!ppm::bench::CiProfile()) {
    ppm::bench::Run(8, 12, 0.85, 0.8, &rows);
    ppm::bench::Run(10, 12, 0.85, 0.8, &rows);
    ppm::bench::Run(4, 24, 0.6, 0.5, &rows);
    ppm::bench::Run(4, 40, 0.6, 0.5, &rows);
  }
  report.Write();
  return 0;
}
