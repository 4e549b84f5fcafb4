#include "core/f1_scan.h"

#include <algorithm>
#include <utility>

#include "core/budget.h"
#include "core/fault_metrics.h"
#include "core/scan_accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/materialize.h"
#include "parallel/shard.h"
#include "util/log.h"

namespace ppm {

namespace {

/// Counts the letters of segments `[seg_begin, seg_end)` into `*counts`,
/// stopping early (with a partial table) once `interrupt` fires. Callers
/// re-check the interrupt and discard partial tables.
void CountSegments(const std::vector<tsdb::FeatureSet>& instants,
                   uint32_t period, uint64_t seg_begin, uint64_t seg_end,
                   const Interrupt& interrupt, LetterCounts* counts) {
  for (uint64_t segment = seg_begin; segment < seg_end; ++segment) {
    if ((segment - seg_begin) % kScanCheckStride == 0 &&
        interrupt.ShouldStop()) {
      return;
    }
    const uint64_t base = segment * period;
    for (uint32_t position = 0; position < period; ++position) {
      counts->Add(position, instants[base + position]);
    }
  }
}

}  // namespace

F1ScanResult FinishF1(const LetterCounts& counts, const MiningOptions& options,
                      uint64_t num_periods) {
  F1ScanResult result;
  result.num_periods = num_periods;
  result.min_count = options.EffectiveMinCount(num_periods);

  std::vector<Letter> letters;
  std::vector<uint64_t> letter_counts;
  uint64_t letters_seen = 0;
  counts.ForEachNonZero([&](const Letter& letter, uint64_t count) {
    ++letters_seen;
    if (count < result.min_count) return;
    if (options.letter_filter &&
        !options.letter_filter(letter.position, letter.feature)) {
      return;
    }
    letters.push_back(letter);
    letter_counts.push_back(count);
  });
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("ppm.f1.letters_seen").Set(letters_seen);
  registry.GetGauge("ppm.f1.letters_frequent").Set(letters.size());
  PPM_LOG(kDebug) << "f1 scan: " << letters.size() << " frequent of "
                  << letters_seen << " seen letters, m=" << num_periods
                  << ", min_count=" << result.min_count;
  result.space = LetterSpace(options.period, std::move(letters));
  result.letter_counts = std::move(letter_counts);
  return result;
}

F1ScanResult BuildF1FromInstants(const std::vector<tsdb::FeatureSet>& instants,
                                 const MiningOptions& options,
                                 ThreadPool* pool) {
  const obs::TraceSpan span = obs::Tracer::Global().StartSpan("f1_scan");
  const uint64_t num_periods = instants.size() / options.period;
  const Interrupt interrupt = options.interrupt();
  // One pass over the materialized segments, however it is sharded.
  RecordDbPass("f1_scan", num_periods * options.period, num_periods);

  if (pool == nullptr || pool->size() <= 1 || num_periods <= 1) {
    LetterCounts counts(options.period);
    CountSegments(instants, options.period, 0, num_periods, interrupt,
                  &counts);
    return FinishF1(counts, options, num_periods);
  }

  // Sharded count: one private table per chunk of whole segments, summed in
  // chunk order afterwards. Letter counts are additive over disjoint
  // segments, so the merged table equals the sequential one exactly.
  std::vector<LetterCounts> shard_counts(pool->size(),
                                         LetterCounts(options.period));
  parallel::ShardTimings timings = parallel::ShardedRun(
      *pool, num_periods, "f1_scan",
      [&instants, &options, &shard_counts,
       &interrupt](const ThreadPool::Chunk& chunk) {
        CountSegments(instants, options.period, chunk.begin, chunk.end,
                      interrupt, &shard_counts[chunk.index]);
      },
      interrupt);

  obs::TraceSpan merge_span = obs::Tracer::Global().StartSpan("f1_scan.merge");
  LetterCounts& merged = shard_counts[0];
  for (uint32_t c = 1; c < shard_counts.size(); ++c) {
    merged.Merge(shard_counts[c]);
  }
  merge_span.End();
  timings.merge_seconds = merge_span.ElapsedSeconds();
  parallel::RecordShardMetrics(timings);
  return FinishF1(merged, options, num_periods);
}

Result<F1Scans> ScanPeriodsForF1(tsdb::SeriesSource& source,
                                 const std::vector<MiningOptions>& per_period) {
  const MiningOptions& options = per_period.front();
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
  const size_t num_ranges = per_period.size();
  const bool shared = num_ranges > 1;
  const uint32_t threads = ResolveThreadCount(options.num_threads);

  uint64_t walk = 0;
  uint64_t all_tables = 0;
  uint64_t largest_table = 0;
  for (const MiningOptions& one : per_period) {
    walk = std::max(walk, source.length() / one.period * one.period);
    const uint64_t table =
        LetterCounts::BoundBytes(one.period, source.symbols().size());
    all_tables += table;
    largest_table = std::max(largest_table, table);
  }
  // Streamed, every period's table is alive at once. Sharded, the periods
  // are counted in turn, each with one table per worker until they are
  // summed.
  PPM_RETURN_IF_ERROR(CheckLetterCountsBudget(
      options, threads > 1 ? threads * largest_table : all_tables));

  F1Scans scans;
  if (threads > 1) {
    PPM_ASSIGN_OR_RETURN(scans.instants,
                         parallel::MaterializePrefix(source, walk));
    scans.pool = std::make_unique<ThreadPool>(threads);
    obs::MetricsRegistry::Global().GetGauge("ppm.parallel.threads")
        .Set(scans.pool->size());
    obs::TraceSpan span;
    if (shared) span = obs::Tracer::Global().StartSpan("shared_scan1");
    for (const MiningOptions& one : per_period) {
      scans.f1.push_back(
          BuildF1FromInstants(scans.instants, one, scans.pool.get()));
      // Workers bail on interruption, leaving a partial count table;
      // discard it rather than report letters with understated counts.
      PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    }
    return scans;
  }

  const obs::TraceSpan span =
      obs::Tracer::Global().StartSpan(shared ? "shared_scan1" : "f1_scan");
  // One counter per period: its table and its whole-segment prefix.
  struct PeriodCount {
    LetterCounts counts;
    uint64_t covered;
    uint32_t period;
  };
  std::vector<PeriodCount> ranges;
  for (const MiningOptions& one : per_period) {
    ranges.push_back(PeriodCount{LetterCounts(one.period),
                                 source.length() / one.period * one.period,
                                 one.period});
  }

  PPM_RETURN_IF_ERROR(source.StartScan());
  // Poll the interrupt once per stride of the shortest period's segments,
  // not per instant.
  const uint64_t check_stride = kScanCheckStride * options.period;
  tsdb::FeatureSet instant;
  uint64_t t = 0;
  while (t < walk && source.Next(&instant)) {
    if (t % check_stride == 0) PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    for (PeriodCount& range : ranges) {
      if (t >= range.covered) continue;
      range.counts.Add(static_cast<uint32_t>(t % range.period), instant);
    }
    ++t;
  }
  PPM_RETURN_IF_ERROR(source.status());
  if (t < walk) {
    return Status::Internal("source ended before its declared length");
  }
  // One traversal serves every period: a streamed shared run is 2 db
  // passes in total, however many periods it mines.
  RecordDbPass(shared ? "shared_scan1" : "f1_scan", walk,
               shared ? 0 : walk / options.period);
  for (size_t r = 0; r < num_ranges; ++r) {
    scans.f1.push_back(FinishF1(ranges[r].counts, per_period[r],
                                ranges[r].covered / ranges[r].period));
  }
  return scans;
}

Result<F1ScanResult> ScanForF1(tsdb::SeriesSource& source,
                               const MiningOptions& options) {
  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  PPM_ASSIGN_OR_RETURN(F1Scans scans, ScanPeriodsForF1(source, {options}));
  return std::move(scans.f1.front());
}

}  // namespace ppm
