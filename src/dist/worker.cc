#include "dist/worker.h"

#include <map>
#include <utility>
#include <vector>

#include "core/letter_counts.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppm::dist {

Result<ShardResult> MineShardCounts(const tsdb::TimeSeries& series,
                                    const ShardPlan& plan, uint32_t shard_id,
                                    const SegmentHook& on_segment) {
  if (shard_id >= plan.shards.size()) {
    return Status::InvalidArgument("shard id " + std::to_string(shard_id) +
                                   " outside the plan (" +
                                   std::to_string(plan.shards.size()) +
                                   " shards)");
  }
  const ShardSpec& spec = plan.shards[shard_id];
  const PlanInput& input = plan.inputs[spec.input_index];
  if (series.length() != input.length) {
    return Status::InvalidArgument(
        "input '" + input.path + "' has " + std::to_string(series.length()) +
        " instants but the plan recorded " + std::to_string(input.length) +
        "; re-plan before mining");
  }

  obs::TraceSpan span = obs::Tracer::Global().StartSpan("dist.worker");
  obs::Counter segments_counter =
      obs::MetricsRegistry::Global().GetCounter("ppm.dist.worker.segments");

  ShardResult result;
  result.plan_fingerprint = plan.fingerprint;
  result.shard_id = shard_id;
  result.input_index = spec.input_index;
  result.segment_begin = spec.segment_begin;
  result.segment_end = spec.segment_end;
  result.symbols = series.symbols().names();

  // One pass over the range. `LetterCounts` and the ordered map both
  // iterate in the canonical ordering the result format requires; the
  // number of distinct hits is the same order as |H|, so the map's log
  // factor is noise next to the scan itself.
  const uint32_t period = plan.period;
  LetterCounts letter_counts(period);
  std::map<std::vector<Letter>, uint64_t> hits;
  std::vector<Letter> segment_letters;
  for (uint64_t segment = spec.segment_begin; segment < spec.segment_end;
       ++segment) {
    segment_letters.clear();
    const uint64_t base = segment * period;
    for (uint32_t position = 0; position < period; ++position) {
      const tsdb::FeatureSet& instant = series.at(base + position);
      letter_counts.Add(position, instant);
      instant.ForEach([&](uint32_t feature) {
        // Ascending feature order within ascending positions: the
        // letter list is born canonically sorted.
        segment_letters.push_back(Letter{position, feature});
      });
    }
    if (!segment_letters.empty()) ++hits[segment_letters];
    segments_counter.Inc();
    if (on_segment != nullptr) {
      on_segment(segment - spec.segment_begin + 1);
    }
  }

  letter_counts.ForEachNonZero([&result](const Letter& letter, uint64_t count) {
    result.letter_counts.push_back(LetterCount{letter, count});
  });
  result.hits.reserve(hits.size());
  for (auto& [letters, count] : hits) {
    result.hits.push_back(RawHit{letters, count});
  }
  span.End();
  return result;
}

}  // namespace ppm::dist
