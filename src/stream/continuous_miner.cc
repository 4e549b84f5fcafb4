#include "stream/continuous_miner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "core/derivation.h"
#include "obs/trace.h"
#include "tsdb/series_source.h"
#include "util/check.h"

namespace ppm::stream {

Result<std::unique_ptr<ContinuousMiner>> ContinuousMiner::Create(
    const MiningOptions& options, std::vector<Letter> seed_letters,
    const ContinuousOptions& continuous) {
  // Period-vs-length is meaningless for an unbounded stream; validate the
  // thresholds only.
  PPM_RETURN_IF_ERROR(
      options.Validate(std::numeric_limits<uint64_t>::max()));
  for (const Letter& letter : seed_letters) {
    if (letter.position >= options.period) {
      return Status::InvalidArgument("seed letter position beyond period");
    }
  }
  std::sort(seed_letters.begin(), seed_letters.end());
  seed_letters.erase(std::unique(seed_letters.begin(), seed_letters.end()),
                     seed_letters.end());
  LetterSpace space(options.period, std::move(seed_letters));
  return std::unique_ptr<ContinuousMiner>(
      new ContinuousMiner(options, std::move(space), continuous));
}

Result<std::unique_ptr<ContinuousMiner>> ContinuousMiner::SeedFromPrefix(
    const MiningOptions& options, const tsdb::TimeSeries& prefix,
    const ContinuousOptions& continuous) {
  tsdb::InMemorySeriesSource source(&prefix);
  PPM_ASSIGN_OR_RETURN(const F1ScanResult f1, ScanForF1(source, options));
  PPM_ASSIGN_OR_RETURN(std::unique_ptr<ContinuousMiner> miner,
                       Create(options, f1.space.letters(), continuous));
  for (const tsdb::FeatureSet& instant : prefix.instants()) {
    miner->Append(instant);
  }
  return miner;
}

ContinuousMinerState ContinuousMiner::ExportState() const {
  ContinuousMinerState state;
  state.drift_window = drift_window_;
  state.window_segments = window_segments_;
  state.letters = space_.letters();
  state.seeded_counts = seeded_counts_;
  state.other_counts.resize(options_.period);
  other_counts_.ForEachNonZero([&state](const Letter& letter, uint64_t count) {
    state.other_counts[letter.position].emplace_back(letter.feature, count);
  });
  state.window_history.assign(window_history_.begin(), window_history_.end());
  state.pending_other = pending_other_;
  state.segment_mask = segment_mask_.ToVector();
  state.segment_position = segment_position_;
  state.instants_seen = instants_seen_;
  state.segments_committed = segments_committed_;
  store_->ForEachHit([&state](const Bitset& mask, uint64_t count) {
    state.hits.emplace_back(mask.ToVector(), count);
  });
  std::sort(state.hits.begin(), state.hits.end());
  state.window_masks.assign(window_masks_.begin(), window_masks_.end());
  return state;
}

Result<std::unique_ptr<ContinuousMiner>> ContinuousMiner::Restore(
    const MiningOptions& options, const ContinuousMinerState& state,
    uint32_t compact_every) {
  // `Create` re-validates the letters; a rejection here means the state
  // bytes are bad, not that the caller misconfigured anything.
  ContinuousOptions continuous;
  continuous.drift_window = state.drift_window;
  continuous.window_segments = state.window_segments;
  continuous.compact_every = compact_every;
  auto created = Create(options, state.letters, continuous);
  if (!created.ok()) {
    return Status::Corruption("checkpoint state rejected: " +
                              created.status().ToString());
  }
  std::unique_ptr<ContinuousMiner> miner = std::move(*created);
  const LetterSpace& space = miner->space_;
  const uint32_t period = options.period;
  const auto corrupt = [](const std::string& what) {
    return Status::Corruption("checkpoint state invalid: " + what);
  };
  if (space.letters() != state.letters) {
    return corrupt("letters not in canonical order");
  }
  if (state.seeded_counts.size() != space.size()) {
    return corrupt("seeded count size mismatch");
  }
  if (state.other_counts.size() != period) {
    return corrupt("other-count position count mismatch");
  }
  if (state.segment_position >= period) {
    return corrupt("segment position beyond period");
  }
  if (state.segments_committed >
      (std::numeric_limits<uint64_t>::max() - state.segment_position) /
          period) {
    return corrupt("segment count overflow");
  }
  if (state.segments_committed * period + state.segment_position !=
      state.instants_seen) {
    return corrupt("instant/segment accounting mismatch");
  }
  // With a finite window, per-letter counts cover only the retained
  // segments; unbounded, they cover every committed segment.
  const uint64_t pattern_horizon =
      state.window_segments > 0
          ? std::min<uint64_t>(state.segments_committed,
                               state.window_segments)
          : state.segments_committed;
  for (const uint64_t count : state.seeded_counts) {
    if (count > pattern_horizon) {
      return corrupt("seeded count exceeds committed segments");
    }
  }
  const uint64_t horizon =
      state.drift_window > 0
          ? std::min<uint64_t>(state.segments_committed, state.drift_window)
          : state.segments_committed;
  LetterCounts other_counts(period);
  for (uint32_t position = 0; position < period; ++position) {
    const auto& row = state.other_counts[position];
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0 && row[i].first <= row[i - 1].first) {
        return corrupt("other counts not sorted by feature");
      }
      if (row[i].second == 0) return corrupt("zero other count");
      if (row[i].second > horizon) {
        return corrupt("other count exceeds drift horizon");
      }
      if (space.IndexOf(position, row[i].first) != Bitset::kNoBit) {
        return corrupt("seeded letter in other counts");
      }
      other_counts.Add(Letter{position, row[i].first}, row[i].second);
    }
  }
  if (state.drift_window == 0) {
    if (!state.window_history.empty()) {
      return corrupt("window history without a drift window");
    }
  } else {
    if (state.window_history.size() !=
        std::min<uint64_t>(state.drift_window, state.segments_committed)) {
      return corrupt("window history size mismatch");
    }
    // The windowed other-counts must be exactly the sum of the history.
    LetterCounts recomputed(period);
    for (const std::vector<Letter>& segment : state.window_history) {
      for (const Letter& letter : segment) {
        if (letter.position >= period) {
          return corrupt("window history position beyond period");
        }
        if (space.IndexOf(letter.position, letter.feature) != Bitset::kNoBit) {
          return corrupt("seeded letter in window history");
        }
        recomputed.Add(letter, 1);
      }
    }
    if (recomputed != other_counts) {
      return corrupt("window history disagrees with other counts");
    }
  }
  for (const Letter& letter : state.pending_other) {
    if (letter.position >= state.segment_position) {
      return corrupt("pending letter at an unseen position");
    }
    if (space.IndexOf(letter.position, letter.feature) != Bitset::kNoBit) {
      return corrupt("seeded letter in pending set");
    }
  }
  for (size_t i = 0; i < state.segment_mask.size(); ++i) {
    const uint32_t index = state.segment_mask[i];
    if (i > 0 && index <= state.segment_mask[i - 1]) {
      return corrupt("segment mask not sorted");
    }
    if (index >= space.size()) return corrupt("segment mask index out of range");
    if (space.letter(index).position >= state.segment_position) {
      return corrupt("segment mask letter at an unseen position");
    }
  }
  uint64_t total_hits = 0;
  for (const auto& [mask_bits, count] : state.hits) {
    if (count == 0) return corrupt("zero hit count");
    if (mask_bits.size() < 2) return corrupt("hit mask below two letters");
    for (size_t i = 0; i < mask_bits.size(); ++i) {
      if (i > 0 && mask_bits[i] <= mask_bits[i - 1]) {
        return corrupt("hit mask not sorted");
      }
      if (mask_bits[i] >= space.size()) {
        return corrupt("hit mask index out of range");
      }
    }
    if (count > pattern_horizon - total_hits) {
      return corrupt("hit counts exceed committed segments");
    }
    total_hits += count;
  }
  if (state.window_segments == 0) {
    if (!state.window_masks.empty()) {
      return corrupt("window masks without a pattern window");
    }
  } else {
    // The retained masks must exist for exactly the effective window, and
    // re-aggregating them must reproduce both the per-letter counts and the
    // hit multiset -- the eviction-safety invariant: what the window says
    // was contributed is exactly what a future eviction will withdraw.
    if (state.window_masks.size() != pattern_horizon) {
      return corrupt("window mask count mismatch");
    }
    std::vector<uint64_t> recount(space.size(), 0);
    std::map<std::vector<uint32_t>, uint64_t> remasked;
    for (const std::vector<uint32_t>& mask : state.window_masks) {
      for (size_t i = 0; i < mask.size(); ++i) {
        if (i > 0 && mask[i] <= mask[i - 1]) {
          return corrupt("window mask not sorted");
        }
        if (mask[i] >= space.size()) {
          return corrupt("window mask index out of range");
        }
        ++recount[mask[i]];
      }
      if (mask.size() >= 2) ++remasked[mask];
    }
    if (recount != state.seeded_counts) {
      return corrupt("window masks disagree with seeded counts");
    }
    if (remasked.size() != state.hits.size()) {
      return corrupt("window masks disagree with hits");
    }
    auto it = remasked.begin();
    for (const auto& [mask_bits, count] : state.hits) {
      // `state.hits` is sorted by mask, as is the std::map: compare in step.
      if (it->first != mask_bits || it->second != count) {
        return corrupt("window masks disagree with hits");
      }
      ++it;
    }
  }

  miner->seeded_counts_ = state.seeded_counts;
  miner->other_counts_ = std::move(other_counts);
  miner->window_history_.assign(state.window_history.begin(),
                                state.window_history.end());
  miner->window_masks_.assign(state.window_masks.begin(),
                              state.window_masks.end());
  miner->pending_other_ = state.pending_other;
  for (const uint32_t index : state.segment_mask) {
    miner->segment_mask_.Set(index);
  }
  miner->segment_position_ = state.segment_position;
  miner->instants_seen_ = state.instants_seen;
  miner->segments_committed_ = state.segments_committed;
  if (state.window_segments > 0) {
    miner->segments_evicted_ =
        state.segments_committed - state.window_masks.size();
  }
  for (const auto& [mask_bits, count] : state.hits) {
    Bitset mask(space.size());
    for (const uint32_t index : mask_bits) mask.Set(index);
    miner->store_->AddHits(mask, count);
  }
  return miner;
}

ContinuousMiner::ContinuousMiner(const MiningOptions& options,
                                 LetterSpace space,
                                 const ContinuousOptions& continuous)
    : options_(options),
      space_(std::move(space)),
      drift_window_(continuous.drift_window),
      window_segments_(continuous.window_segments),
      compact_every_(continuous.compact_every),
      store_(MakeHitStore(options.hit_store, space_.full_mask(),
                          space_.size())),
      seeded_counts_(space_.size(), 0),
      other_counts_(options.period),
      segment_mask_(space_.size()),
      instants_counter_(
          obs::MetricsRegistry::Global().GetCounter("ppm.stream.instants")),
      segments_counter_(obs::MetricsRegistry::Global().GetCounter(
          "ppm.stream.segments_committed")),
      snapshots_counter_(
          obs::MetricsRegistry::Global().GetCounter("ppm.stream.snapshots")),
      evictions_counter_(obs::MetricsRegistry::Global().GetCounter(
          "ppm.stream.incremental.evictions")),
      compactions_counter_(obs::MetricsRegistry::Global().GetCounter(
          "ppm.stream.incremental.compactions")),
      nodes_reclaimed_counter_(obs::MetricsRegistry::Global().GetCounter(
          "ppm.stream.incremental.nodes_reclaimed")) {}

void ContinuousMiner::Append(const tsdb::FeatureSet& instant) {
  ++instants_seen_;
  instants_counter_.Inc();
  const uint32_t position = segment_position_;

  // Seeded letters accumulate into the in-flight segment mask; everything
  // else is tallied for drift detection. Counts commit with the segment so
  // a trailing partial segment never skews confidences.
  space_.AccumulatePosition(position, instant, &segment_mask_);
  instant.ForEach([this, position](uint32_t feature) {
    if (space_.IndexOf(position, feature) == Bitset::kNoBit) {
      pending_other_.push_back(Letter{position, feature});
    }
  });

  if (++segment_position_ == options_.period) CommitSegment();
}

void ContinuousMiner::CommitSegment() {
  segment_mask_.ForEach(
      [this](uint32_t letter) { ++seeded_counts_[letter]; });
  if (segment_mask_.Count() >= 2) store_->AddHit(segment_mask_);
  for (const Letter& letter : pending_other_) other_counts_.Add(letter, 1);
  if (drift_window_ > 0) {
    window_history_.push_back(pending_other_);
    if (window_history_.size() > drift_window_) {
      // Expire the oldest segment's contribution to the drift counts.
      for (const Letter& letter : window_history_.front()) {
        other_counts_.Remove(letter, 1);
      }
      window_history_.pop_front();
    }
  }
  if (window_segments_ > 0) {
    window_masks_.push_back(segment_mask_.ToVector());
    if (window_masks_.size() > window_segments_) EvictOldestSegment();
  }
  ++segments_committed_;
  segments_counter_.Inc();
  segment_mask_.Reset();
  pending_other_.clear();
  segment_position_ = 0;
  if (compact_every_ > 0 && segments_committed_ % compact_every_ == 0) {
    Compact();
  }
}

void ContinuousMiner::EvictOldestSegment() {
  // Withdraw exactly what the expired segment contributed at commit time:
  // one count per seeded letter, and its hit mask if it registered one.
  const std::vector<uint32_t>& bits = window_masks_.front();
  for (const uint32_t index : bits) {
    PPM_DCHECK(seeded_counts_[index] > 0);
    --seeded_counts_[index];
  }
  if (bits.size() >= 2) {
    Bitset mask(space_.size());
    for (const uint32_t index : bits) mask.Set(index);
    store_->RemoveHits(mask, 1);
  }
  window_masks_.pop_front();
  ++segments_evicted_;
  evictions_counter_.Inc();
}

void ContinuousMiner::Compact() {
  const uint64_t before_units = store_->num_units();
  std::unique_ptr<HitStore> rebuilt =
      MakeHitStore(options_.hit_store, space_.full_mask(), space_.size());
  rebuilt->Merge(*store_);
  store_ = std::move(rebuilt);
  compactions_counter_.Inc();
  const uint64_t after_units = store_->num_units();
  if (before_units > after_units) {
    nodes_reclaimed_counter_.Inc(before_units - after_units);
  }
}

uint64_t ContinuousMiner::ApproxMemoryBytes() const {
  uint64_t total = sizeof(ContinuousMiner) + store_->ApproxMemoryBytes();
  total += seeded_counts_.capacity() * sizeof(uint64_t);
  total += other_counts_.ApproxMemoryBytes();
  for (const auto& segment : window_history_) {
    total += segment.capacity() * sizeof(Letter);
  }
  for (const auto& mask : window_masks_) {
    total += mask.capacity() * sizeof(uint32_t);
  }
  return total;
}

Result<MiningResult> ContinuousMiner::Snapshot(
    const Interrupt& interrupt) const {
  obs::TraceSpan span = obs::Tracer::Global().StartSpan("stream.snapshot");
  snapshots_counter_.Inc();
  const uint64_t effective = effective_segments();
  MiningResult result;
  result.stats().num_periods = effective;
  if (effective == 0) return result;

  F1ScanResult f1;
  f1.num_periods = effective;
  f1.min_count = options_.EffectiveMinCount(effective);
  f1.space = space_;
  f1.letter_counts = seeded_counts_;
  PPM_RETURN_IF_ERROR(DeriveFromHitStore(f1, *store_, options_.hit_store,
                                         options_.max_letters, nullptr,
                                         interrupt, nullptr, &result));
  obs::MetricsRegistry::Global()
      .GetGauge("ppm.resource.hit_store_bytes")
      .Set(store_->ApproxMemoryBytes());
  span.End();
  result.stats().elapsed_seconds = span.ElapsedSeconds();
  return result;
}

std::vector<Letter> ContinuousMiner::DriftedLetters() const {
  std::vector<Letter> drifted;
  if (segments_committed_ == 0) return drifted;
  const uint64_t horizon =
      drift_window_ > 0
          ? std::min<uint64_t>(segments_committed_, drift_window_)
          : segments_committed_;
  const uint64_t min_count = options_.EffectiveMinCount(horizon);
  other_counts_.ForEachNonZero([&](const Letter& letter, uint64_t count) {
    if (count >= min_count) drifted.push_back(letter);
  });
  return drifted;
}

}  // namespace ppm::stream
