#include "core_layers.h"

#include <memory>

#include "common.h"
#include "core/derivation.h"
#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "obs/metrics.h"
#include "tsdb/series_source.h"

namespace ppm::perfbench {

MiningResult TracedMineHitSet(const tsdb::TimeSeries& series,
                              const MiningOptions& options,
                              obs::Tracer* tracer,
                              CoreLayerTotals* totals) {
  const obs::Counter node_visits =
      obs::MetricsRegistry::Global().GetCounter("ppm.tree.query_node_visits");
  TimedSpan mine(tracer, "core.mine");
  tsdb::InMemorySeriesSource source(&series);

  TimedSpan f1_span(tracer, "core.f1_scan");
  F1ScanResult f1 = DieOr(ScanForF1(source, options), "ScanForF1");
  totals->f1_scan_ns += f1_span.End();

  TimedSpan scan_span(tracer, "core.second_scan");
  std::unique_ptr<HitStore> store =
      MakeHitStore(options.hit_store, f1.space.full_mask(), f1.space.size());
  DieIf(source.StartScan(), "second scan");
  const uint32_t period = options.period;
  const uint64_t covered = f1.num_periods * period;
  Bitset segment_mask(f1.space.size());
  tsdb::FeatureSet instant;
  for (uint64_t t = 0; t < covered && source.Next(&instant); ++t) {
    const uint32_t position = static_cast<uint32_t>(t % period);
    if (position == 0) segment_mask.Reset();
    f1.space.AccumulatePosition(position, instant, &segment_mask);
    if (position == period - 1 && segment_mask.Count() >= 2) {
      store->AddHit(segment_mask);
    }
  }
  totals->second_scan_ns += scan_span.End();
  totals->segments += f1.num_periods;

  TimedSpan derive_span(tracer, "core.derive");
  MiningResult result;
  uint64_t count_ns = 0;
  uint64_t count_queries = 0;
  const uint64_t visits_before = node_visits.value();
  const DerivationStats derivation = DeriveFrequentPatterns(
      f1, options.max_letters,
      [&](const Bitset& mask) {
        const uint64_t begin = NowNs();
        const uint64_t count = store->CountSuperpatterns(mask);
        count_ns += NowNs() - begin;
        ++count_queries;
        return count;
      },
      &result);
  DieIf(derivation.status, "derivation");
  totals->derive_ns += derive_span.End();
  result.Canonicalize();
  totals->count_ns += count_ns;
  totals->count_queries += count_queries;
  totals->node_visits += node_visits.value() - visits_before;
  totals->candidates += derivation.candidates_evaluated;

  result.stats().candidates_evaluated = derivation.candidates_evaluated;
  result.stats().hit_store_entries = store->num_entries();
  result.stats().num_periods = f1.num_periods;
  totals->mine_ns += mine.End();
  ++totals->mines;
  return result;
}

}  // namespace ppm::perfbench
