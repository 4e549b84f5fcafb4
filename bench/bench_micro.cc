// Micro-benchmarks (google-benchmark) for the hot primitives of the mining
// pipeline: bitset subset tests, segment-mask accumulation, tree insertion,
// superpattern counting, and candidate generation.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/pattern.h"
#include "core/f1_scan.h"
#include "core/letter_space.h"
#include "core/max_subpattern_tree.h"
#include "synth/generator.h"
#include "tsdb/series_source.h"
#include "util/bytes.h"
#include "util/random.h"

namespace ppm {
namespace {

Bitset RandomMask(Rng& rng, uint32_t bits, double density) {
  Bitset mask(bits);
  for (uint32_t bit = 0; bit < bits; ++bit) {
    if (rng.NextBool(density)) mask.Set(bit);
  }
  return mask;
}

void BM_BitsetIsSubsetOf(benchmark::State& state) {
  Rng rng(1);
  const uint32_t bits = static_cast<uint32_t>(state.range(0));
  const Bitset a = RandomMask(rng, bits, 0.3);
  const Bitset b = RandomMask(rng, bits, 0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IsSubsetOf(b));
  }
}
BENCHMARK(BM_BitsetIsSubsetOf)->Arg(16)->Arg(64)->Arg(256);

void BM_SegmentMask(benchmark::State& state) {
  const uint32_t period = static_cast<uint32_t>(state.range(0));
  std::vector<Letter> letters;
  for (uint32_t p = 0; p < period; ++p) letters.push_back({p, p % 8});
  const LetterSpace space(period, letters);

  Rng rng(2);
  std::vector<tsdb::FeatureSet> segment(period);
  for (auto& instant : segment) {
    for (int i = 0; i < 3; ++i) {
      instant.Set(static_cast<uint32_t>(rng.NextBelow(8)));
    }
  }
  Bitset mask(space.size());
  for (auto _ : state) {
    space.SegmentMask(segment.data(), &mask);
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * period);
}
BENCHMARK(BM_SegmentMask)->Arg(10)->Arg(50)->Arg(200);

void BM_TreeInsert(benchmark::State& state) {
  Rng rng(3);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Bitset full(n);
  for (uint32_t bit = 0; bit < n; ++bit) full.Set(bit);
  std::vector<Bitset> hits;
  for (int i = 0; i < 1024; ++i) {
    Bitset mask = RandomMask(rng, n, 0.6);
    if (mask.Count() >= 2) hits.push_back(std::move(mask));
  }
  for (auto _ : state) {
    MaxSubpatternTree tree(full, n);
    for (const Bitset& hit : hits) tree.Insert(hit);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(hits.size()));
}
BENCHMARK(BM_TreeInsert)->Arg(8)->Arg(12)->Arg(16);

void BM_TreeCountSuperpatterns(benchmark::State& state) {
  Rng rng(4);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Bitset full(n);
  for (uint32_t bit = 0; bit < n; ++bit) full.Set(bit);
  MaxSubpatternTree tree(full, n);
  for (int i = 0; i < 2048; ++i) {
    Bitset mask = RandomMask(rng, n, 0.6);
    if (mask.Count() >= 2) tree.Insert(mask);
  }
  std::vector<Bitset> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(RandomMask(rng, n, 0.2));
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.CountSuperpatterns(queries[next++ % queries.size()]));
  }
}
BENCHMARK(BM_TreeCountSuperpatterns)->Arg(8)->Arg(12)->Arg(16);

void BM_GenerateCandidates(benchmark::State& state) {
  // All pairs over n letters as the frequent level-2 set.
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<LevelEntry> level2;
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) {
      LevelEntry entry;
      entry.items = {a, b};
      entry.mask.Set(a);
      entry.mask.Set(b);
      level2.push_back(std::move(entry));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(level2));
  }
}
BENCHMARK(BM_GenerateCandidates)->Arg(8)->Arg(16)->Arg(24);

void BM_VarintRoundTrip(benchmark::State& state) {
  // Encode+decode a block of delta-encoded ids with the shared byte codec.
  Rng rng(5);
  std::vector<uint32_t> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(static_cast<uint32_t>(rng.NextBelow(1u << state.range(0))));
  }
  for (auto _ : state) {
    std::string buffer;
    for (uint32_t v : values) bytes::PutVarint32(&buffer, v);
    bytes::ByteReader reader(buffer);
    uint32_t out = 0;
    for (size_t i = 0; i < values.size(); ++i) reader.ReadVarint32(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VarintRoundTrip)->Arg(7)->Arg(14)->Arg(28);

void BM_PatternMatchesSegment(benchmark::State& state) {
  Rng rng(6);
  tsdb::TimeSeries series;
  const uint32_t period = static_cast<uint32_t>(state.range(0));
  for (uint32_t t = 0; t < period; ++t) {
    tsdb::FeatureSet instant;
    for (int i = 0; i < 4; ++i) {
      instant.Set(static_cast<uint32_t>(rng.NextBelow(16)));
    }
    series.Append(std::move(instant));
  }
  Pattern pattern(period);
  for (uint32_t p = 0; p < period; p += 3) {
    pattern.AddLetter(p, static_cast<uint32_t>(rng.NextBelow(16)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern.MatchesSegment(series, 0));
  }
}
BENCHMARK(BM_PatternMatchesSegment)->Arg(10)->Arg(50)->Arg(200);

void BM_F1Scan(benchmark::State& state) {
  synth::GeneratorOptions options;
  options.length = static_cast<uint64_t>(state.range(0));
  options.period = 50;
  options.max_pat_length = 6;
  options.num_f1 = 12;
  auto generated = synth::GenerateSeries(options);
  if (!generated.ok()) {
    state.SkipWithError(generated.status().ToString().c_str());
    return;
  }
  MiningOptions mining;
  mining.period = 50;
  mining.min_confidence = 0.8;
  for (auto _ : state) {
    tsdb::InMemorySeriesSource source(&generated->series);
    auto f1 = ScanForF1(source, mining);
    benchmark::DoNotOptimize(f1);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_F1Scan)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace ppm

BENCHMARK_MAIN();
