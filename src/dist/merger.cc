#include "dist/merger.h"

#include <memory>
#include <utility>

#include "core/derivation.h"
#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/letter_counts.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppm::dist {

namespace {

/// Merges the shards of one input. `results` are that input's present
/// shard results, already validated and sorted by segment_begin.
Result<MergedInput> MergeOneInput(const ShardPlan& plan, uint32_t input_index,
                                  const std::vector<const ShardResult*>& results,
                                  const std::vector<ShardSpec>& missing) {
  const PlanInput& input = plan.inputs[input_index];
  MergedInput merged;
  merged.input_index = input_index;
  merged.path = input.path;
  merged.missing = missing;

  // All shards of an input mined the same file, so they must agree on
  // the symbol table byte-for-byte; a disagreement means the input
  // changed between workers and the merge would be meaningless.
  for (const ShardResult* result : results) {
    if (result->symbols != results.front()->symbols) {
      return Status::Corruption(
          "shard " + std::to_string(result->shard_id) +
          " disagrees with shard " +
          std::to_string(results.front()->shard_id) +
          " on the symbol table of '" + input.path + "'");
    }
  }
  if (!results.empty()) {
    for (const std::string& name : results.front()->symbols) {
      merged.symbols.Intern(name);
    }
  }

  // Step 2: sum the raw letter counts and re-derive the global F_1 over
  // the full covered segment count.
  uint64_t covered = 0;
  for (const ShardResult* result : results) covered += result->num_segments();
  merged.segments_covered = covered;
  if (covered == 0) {
    return Status::Corruption("input '" + input.path +
                              "' has no merged shard");
  }
  LetterCounts letter_totals(plan.period);
  for (const ShardResult* result : results) {
    for (const LetterCount& entry : result->letter_counts) {
      letter_totals.Add(entry.letter, entry.count);
    }
  }
  const F1ScanResult f1 =
      FinishF1(letter_totals, plan.ToMiningOptions(), covered);

  // Step 3: project raw segment patterns onto the global F_1 and rebuild
  // the hit store. Projections with < 2 letters carry no information
  // beyond F_1's exact counts -- the same skip rule as scan 2 of the
  // one-shot miner, which is what makes the rebuilt store answer
  // `CountSuperpatterns` identically.
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter hits_merged = registry.GetCounter("ppm.dist.merge.hits");
  obs::Counter segments_skipped =
      registry.GetCounter("ppm.hitset.segments_skipped");
  std::unique_ptr<HitStore> store = MakeHitStore(
      HitStoreKind::kVertical, f1.space.full_mask(), f1.space.size());
  Bitset mask(f1.space.size());
  for (const ShardResult* shard : results) {
    for (const RawHit& hit : shard->hits) {
      mask.Reset();
      for (const Letter& letter : hit.letters) {
        const uint32_t index =
            f1.space.IndexOf(letter.position, letter.feature);
        if (index != Bitset::kNoBit) mask.Set(index);
      }
      if (mask.Count() >= 2) {
        store->AddHits(mask, hit.count);
        hits_merged.Inc(hit.count);
      } else {
        segments_skipped.Inc(hit.count);
      }
    }
  }

  // Step 4: the one-shot derivation over the merged counts.
  PPM_RETURN_IF_ERROR(DeriveFromHitStore(f1, *store, HitStoreKind::kVertical,
                                         plan.max_letters, nullptr,
                                         Interrupt(), nullptr,
                                         &merged.result));
  // The distributed pipeline reads the series exactly once (each worker
  // scans its own range once; the merge touches no series data).
  merged.result.stats().scans = 1;
  return merged;
}

}  // namespace

Result<MergeOutcome> MergeShardResults(const ShardPlan& plan,
                                       const std::vector<ShardResult>& results,
                                       bool allow_partial) {
  obs::TraceSpan span = obs::Tracer::Global().StartSpan("dist.merge");
  // Index the present results by shard id, validating each against the
  // plan (fingerprint, identity, range bookkeeping, canonical order).
  std::vector<const ShardResult*> by_shard(plan.shards.size(), nullptr);
  for (const ShardResult& result : results) {
    PPM_RETURN_IF_ERROR(ValidateShardResult(plan, result.shard_id, result));
    if (by_shard[result.shard_id] != nullptr) {
      return Status::Corruption("duplicate result for shard " +
                                std::to_string(result.shard_id));
    }
    by_shard[result.shard_id] = &result;
  }

  MergeOutcome outcome;
  for (uint32_t input_index = 0; input_index < plan.inputs.size();
       ++input_index) {
    std::vector<const ShardResult*> present;
    std::vector<ShardSpec> missing;
    // Plan shards are ordered by (input, segment_begin), so walking them
    // yields each input's results already sorted by range.
    for (const ShardSpec& spec : plan.shards) {
      if (spec.input_index != input_index) continue;
      if (by_shard[spec.shard_id] != nullptr) {
        present.push_back(by_shard[spec.shard_id]);
      } else {
        missing.push_back(spec);
      }
    }
    if (!missing.empty() && !allow_partial) {
      return Status::NotFound(
          "missing result for shard " +
          std::to_string(missing.front().shard_id) + " of '" +
          plan.inputs[input_index].path +
          "' (re-run, or merge with --partial ok)");
    }
    if (present.empty()) {
      if (!allow_partial) {
        return Status::NotFound("no results for input '" +
                                plan.inputs[input_index].path + "'");
      }
      // Every shard of this input failed; report it as all-missing
      // rather than invent an empty pattern set.
      MergedInput empty;
      empty.input_index = input_index;
      empty.path = plan.inputs[input_index].path;
      empty.missing = missing;
      outcome.inputs.push_back(std::move(empty));
      outcome.shards_missing += static_cast<uint32_t>(missing.size());
      continue;
    }
    PPM_ASSIGN_OR_RETURN(
        MergedInput merged,
        MergeOneInput(plan, input_index, present, missing));
    outcome.inputs.push_back(std::move(merged));
    outcome.shards_merged += static_cast<uint32_t>(present.size());
    outcome.shards_missing += static_cast<uint32_t>(missing.size());
  }
  obs::MetricsRegistry::Global()
      .GetCounter("ppm.dist.merge.shards")
      .Inc(outcome.shards_merged);
  span.End();
  return outcome;
}

Result<MergeOutcome> MergeFromDir(const ShardPlan& plan,
                                  const std::string& results_dir,
                                  bool allow_partial) {
  std::vector<ShardResult> results;
  results.reserve(plan.shards.size());
  for (const ShardSpec& spec : plan.shards) {
    Result<ShardResult> read =
        ReadShardResultFile(ShardResultPath(results_dir, spec.shard_id));
    if (read.ok()) {
      results.push_back(std::move(*read));
      continue;
    }
    // A corrupt result file is always a refusal -- merging around silent
    // damage is exactly the failure mode this subsystem exists to
    // prevent. Only a cleanly absent file can be skipped, and only under
    // --partial ok.
    if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
    if (!allow_partial) {
      return Status::NotFound("missing result for shard " +
                              std::to_string(spec.shard_id) +
                              " (re-run, or merge with --partial ok)");
    }
  }
  return MergeShardResults(plan, results, allow_partial);
}

}  // namespace ppm::dist
