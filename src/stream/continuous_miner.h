#ifndef PPM_STREAM_CONTINUOUS_MINER_H_
#define PPM_STREAM_CONTINUOUS_MINER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/letter_counts.h"
#include "core/letter_space.h"
#include "core/mining_options.h"
#include "core/mining_result.h"
#include "obs/metrics.h"
#include "tsdb/time_series.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ppm::stream {

/// Engine configuration beyond `MiningOptions`: the drift-detection window,
/// the pattern sliding window, and the compaction cadence.
struct ContinuousOptions {
  /// Horizon for `DriftedLetters` over unseeded letters, in committed
  /// segments. 0 evaluates them over the whole stream (consistent with what
  /// a batch `F_1` scan would find); W > 0 evaluates them over the last W
  /// committed segments, which notices newly appearing periodic behaviour
  /// promptly instead of waiting for it to dominate all of history. Before
  /// W segments have committed, the horizon is the whole stream so far and
  /// the threshold is taken over that shorter horizon.
  uint32_t drift_window = 0;
  /// Pattern sliding window in committed segments. 0 mines the entire
  /// history; W > 0 means every query reflects exactly the last
  /// min(W, segments_committed) whole segments -- when the W+1st segment
  /// commits, the oldest retained segment's contribution to the F1 counts
  /// and the hit store is withdrawn, so confidences are local-interval
  /// frequencies over the recent window.
  uint32_t window_segments = 0;
  /// Rebuild the hit store every `compact_every` committed segments to
  /// reclaim dead (count-0) tree nodes left behind by eviction; 0 never
  /// compacts automatically. Compaction is invisible to queries and to
  /// exported state, so the cadence is a runtime knob, not persisted state.
  uint32_t compact_every = 0;
};

/// The complete serializable state of a `ContinuousMiner`, in a plain,
/// deterministic form (sorted vectors, no hashing order): what a checkpoint
/// persists and what `ContinuousMiner::Restore` validates and reloads. The
/// codec lives in `stream/checkpoint.h` (state block version 2).
struct ContinuousMinerState {
  uint32_t drift_window = 0;
  uint32_t window_segments = 0;
  /// The seeded letter space, canonically sorted.
  std::vector<Letter> letters;
  /// Exact per-letter counts over the effective window, indexed like
  /// `letters`.
  std::vector<uint64_t> seeded_counts;
  /// Unseeded (position, feature) counts over the drift horizon: per
  /// position, sorted by feature id.
  std::vector<std::vector<std::pair<tsdb::FeatureId, uint64_t>>> other_counts;
  /// Unseeded letters of the last committed segments (finite drift window
  /// only).
  std::vector<std::vector<Letter>> window_history;
  /// Unseeded letters of the in-flight segment.
  std::vector<Letter> pending_other;
  /// Set letter indices of the in-flight segment mask, ascending.
  std::vector<uint32_t> segment_mask;
  uint32_t segment_position = 0;
  uint64_t instants_seen = 0;
  uint64_t segments_committed = 0;
  /// The hit multiset: (sorted letter indices of the mask, count), sorted
  /// by mask for byte-identical re-serialization.
  std::vector<std::pair<std::vector<uint32_t>, uint64_t>> hits;
  /// Seeded letter-index masks of the retained committed segments, oldest
  /// first, each sorted ascending. Present only with a finite window;
  /// size == min(window_segments, segments_committed). Summing these masks
  /// per letter reproduces `seeded_counts` exactly, and the multiset of
  /// masks with >= 2 letters reproduces `hits` -- both invariants are
  /// re-validated on `Restore`.
  std::vector<std::vector<uint32_t>> window_masks;
};

/// Continuous partial periodic pattern mining over an append-only series.
///
/// The max-subpattern hit-set method is naturally one-pass once the
/// candidate max-pattern `C_max` is fixed: every arriving period segment
/// contributes one hit mask. Seed the letter space from a prefix of the
/// stream (or an explicit letter list), then `Append` instants forever.
/// Letters outside the seeded space are not tracked as pattern letters
/// (their combinations cannot be recovered without a rescan), but exact
/// counts are kept for every (position, feature) seen, so `DriftedLetters`
/// reports when an unseeded letter crosses the threshold and a reseed (one
/// full rescan via `MineHitSet`) is due.
///
/// Maintains the F1 letter counts, the `C_max` letter space, and the
/// max-subpattern hit store incrementally per appended segment, so a
/// pattern query (`Snapshot`) against a live series costs O(hit store) --
/// independent of how many instants have ever been appended -- instead of
/// the O(n) of a from-scratch batch mine. With a finite `window_segments`,
/// each newly committed segment also evicts the expired oldest segment's
/// contribution (decrementing its letters' counts and withdrawing its hit
/// mask), so `Snapshot` is exactly a batch mine of the last W whole
/// segments restricted to the seeded letter space -- the equivalence
/// contract `tests/incremental_equivalence_test.cc` enforces.
///
/// Eviction leaves dead count-0 nodes in the tree-backed hit store;
/// `Compact` (manual, or every `compact_every` commits) rebuilds the store
/// from its live hits. Compaction never changes the logical hit multiset,
/// so exported state, queries, and checkpoints are identical before and
/// after -- which is what makes recovery from a mid-compaction kill
/// trivially exact.
class ContinuousMiner {
 public:
  /// Creates a miner for patterns of `options.period`, tracking exactly
  /// `seed_letters` as pattern letters (sorted/deduplicated internally).
  /// `options` must validate with a nonzero period.
  static Result<std::unique_ptr<ContinuousMiner>> Create(
      const MiningOptions& options, std::vector<Letter> seed_letters,
      const ContinuousOptions& continuous = {});

  /// Convenience: seeds the letter space with the frequent 1-patterns of
  /// `prefix` (mined with `options`), then replays the prefix into the
  /// miner -- with a finite window, the replay already evicts, so the state
  /// covers exactly the prefix's trailing window.
  static Result<std::unique_ptr<ContinuousMiner>> SeedFromPrefix(
      const MiningOptions& options, const tsdb::TimeSeries& prefix,
      const ContinuousOptions& continuous = {});

  /// Rebuilds a miner from a previously exported state. Every structural
  /// invariant is re-validated -- including that the window masks exactly
  /// reproduce the seeded counts and the hit multiset -- and any violation
  /// is `kCorruption`: a restored miner is either exactly equivalent to the
  /// exporter or an error, never silently wrong. `compact_every` is the
  /// runtime compaction cadence (not part of the state). The state names no
  /// symbol table, so feature ids are the caller's to bound: the drift
  /// counts are dense over them, and `RestoreContinuousMiner` rejects ids
  /// past the checkpoint's own table.
  static Result<std::unique_ptr<ContinuousMiner>> Restore(
      const MiningOptions& options, const ContinuousMinerState& state,
      uint32_t compact_every = 0);

  /// Deterministic full-state export: equal miners export equal states.
  ContinuousMinerState ExportState() const;

  /// Feeds the next instant. Whole segments commit as their last instant
  /// arrives (evicting the expired segment when the window is full); a
  /// trailing partial segment is held back from every count.
  void Append(const tsdb::FeatureSet& instant);

  /// Derives the currently frequent patterns over the seeded letter space
  /// and the effective window through `DeriveFromHitStore`, the batch
  /// miners' own tail. Cost is independent of the stream length. The call
  /// polls `interrupt` -- the caller's, never the `cancel`/`deadline` of the
  /// options the miner was created with -- and returns its status when it
  /// fires, never a truncated pattern set.
  Result<MiningResult> Snapshot(const Interrupt& interrupt = Interrupt()) const;

  /// Unseeded letters whose exact count meets the frequency threshold over
  /// the drift horizon: non-empty means the seeded space is stale and
  /// pattern results may be missing combinations involving these letters.
  /// In canonical (position, feature) order.
  std::vector<Letter> DriftedLetters() const;

  /// Rebuilds the hit store from its live (nonzero) hits, dropping the
  /// dead interior nodes eviction leaves behind. A no-op on the logical
  /// state; records `ppm.stream.incremental.compactions` and
  /// `.nodes_reclaimed`.
  void Compact();

  /// Approximate bytes of the miner's owned state (hit store, counts,
  /// window masks) -- the figure the serving layer's cache accounting and
  /// LRU eviction charge per resident miner.
  uint64_t ApproxMemoryBytes() const;

  uint64_t instants_seen() const { return instants_seen_; }

  /// Whole segments committed over the stream's lifetime.
  uint64_t segments_committed() const { return segments_committed_; }

  /// The `m` a query divides by: min(window_segments, segments_committed)
  /// with a finite window, else segments_committed.
  uint64_t effective_segments() const {
    return window_segments_ > 0 ? window_masks_.size() : segments_committed_;
  }

  /// Segments whose contributions have been evicted from the window.
  uint64_t segments_evicted() const { return segments_evicted_; }

  /// Exact per-letter counts over the effective window, indexed like
  /// `space().letters()` -- the incremental F1 row the differential
  /// harness checks against a recount of the shadow window.
  const std::vector<uint64_t>& seeded_counts() const { return seeded_counts_; }

  const LetterSpace& space() const { return space_; }
  const MiningOptions& options() const { return options_; }
  uint32_t drift_window() const { return drift_window_; }
  uint32_t window_segments() const { return window_segments_; }
  uint32_t compact_every() const { return compact_every_; }

 private:
  ContinuousMiner(const MiningOptions& options, LetterSpace space,
                  const ContinuousOptions& continuous);

  void CommitSegment();
  void EvictOldestSegment();

  MiningOptions options_;
  LetterSpace space_;
  uint32_t drift_window_;
  uint32_t window_segments_;
  uint32_t compact_every_;
  std::unique_ptr<HitStore> store_;

  // Exact counts for seeded letters over the effective window (indexed by
  // letter) and for every other observed (position, feature) pair over the
  // drift horizon.
  std::vector<uint64_t> seeded_counts_;
  LetterCounts other_counts_;
  // With a finite drift window: the unseeded letters of each of the last
  // `drift_window_` committed segments (drift eviction).
  std::deque<std::vector<Letter>> window_history_;
  // With a finite pattern window: the seeded mask bits of each retained
  // committed segment, oldest first (pattern eviction).
  std::deque<std::vector<uint32_t>> window_masks_;

  // In-flight segment state; committed only when the segment completes.
  Bitset segment_mask_;
  std::vector<Letter> pending_other_;
  uint32_t segment_position_ = 0;

  uint64_t instants_seen_ = 0;
  uint64_t segments_committed_ = 0;
  uint64_t segments_evicted_ = 0;

  // Stream traffic metrics (`ppm.stream.*` / `ppm.stream.incremental.*`),
  // process-global like all built-in instrumentation.
  obs::Counter instants_counter_;
  obs::Counter segments_counter_;
  obs::Counter snapshots_counter_;
  obs::Counter evictions_counter_;
  obs::Counter compactions_counter_;
  obs::Counter nodes_reclaimed_counter_;
};

}  // namespace ppm::stream

#endif  // PPM_STREAM_CONTINUOUS_MINER_H_
