#include "core/f1_scan.h"

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

/// Segments counted between interrupt polls (never per instant).
constexpr uint64_t kSegmentCheckStride = 1024;

/// Counts the letters of segments `[seg_begin, seg_end)` into `*counts`,
/// stopping early (with a partial table) once `interrupt` fires. Callers
/// re-check the interrupt and discard partial tables.
void CountSegments(const std::vector<tsdb::FeatureSet>& instants,
                   uint32_t period, uint64_t seg_begin, uint64_t seg_end,
                   const Interrupt& interrupt, LetterCounts* counts) {
  for (uint64_t segment = seg_begin; segment < seg_end; ++segment) {
    if ((segment - seg_begin) % kSegmentCheckStride == 0 &&
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

Result<F1ScanResult> ScanForF1(tsdb::SeriesSource& source,
                               const MiningOptions& options) {
  PPM_RETURN_IF_ERROR(options.Validate(source.length()));
  const Interrupt interrupt = options.interrupt();
  PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);

  const uint32_t threads = ResolveThreadCount(options.num_threads);
  const uint64_t num_periods = source.length() / options.period;
  const bool sharded = threads > 1 && num_periods > 1;
  // A sharded count holds one table per worker until they are summed.
  PPM_RETURN_IF_ERROR(CheckLetterCountsBudget(
      options, (sharded ? threads : 1) *
                   LetterCounts::BoundBytes(options.period,
                                            source.symbols().size())));
  if (sharded) {
    PPM_ASSIGN_OR_RETURN(
        const std::vector<tsdb::FeatureSet> instants,
        parallel::MaterializePrefix(source, num_periods * options.period));
    ThreadPool pool(threads);
    F1ScanResult f1 = BuildF1FromInstants(instants, options, &pool);
    // Workers bail on interruption, leaving a partial count table; discard
    // it rather than report letters with understated counts.
    PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    return f1;
  }

  const obs::TraceSpan span = obs::Tracer::Global().StartSpan("f1_scan");
  LetterCounts counts(options.period);

  PPM_RETURN_IF_ERROR(source.StartScan());
  const uint64_t covered = num_periods * options.period;
  // Poll the interrupt once per stride of instants, not per instant.
  const uint64_t check_stride = kSegmentCheckStride * options.period;
  tsdb::FeatureSet instant;
  uint64_t t = 0;
  while (t < covered && source.Next(&instant)) {
    if (t % check_stride == 0) PPM_RETURN_IF_INTERRUPTED_RECORDED(interrupt);
    counts.Add(static_cast<uint32_t>(t % options.period), instant);
    ++t;
  }
  PPM_RETURN_IF_ERROR(source.status());
  if (t < covered) {
    return Status::Internal("source ended before its declared length");
  }
  RecordDbPass("f1_scan", covered, num_periods);
  return FinishF1(counts, options, num_periods);
}

}  // namespace ppm
