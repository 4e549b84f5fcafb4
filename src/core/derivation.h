#ifndef PPM_CORE_DERIVATION_H_
#define PPM_CORE_DERIVATION_H_

#include <cstdint>
#include <functional>

#include "core/f1_scan.h"
#include "core/hit_store.h"
#include "core/mining_result.h"
#include "util/bitset.h"
#include "util/cancellation.h"
#include "util/memory_budget.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ppm {

/// Statistics from one derivation run.
struct DerivationStats {
  uint64_t candidates_evaluated = 0;
  uint32_t max_level_reached = 0;
  /// OK when the run completed; `kCancelled` / `kDeadlineExceeded` /
  /// `kResourceExhausted` when it stopped early. Patterns appended so far
  /// remain valid (they are genuinely frequent), just not complete.
  Status status = Status::OK();
};

/// Derives the complete frequent pattern set from per-candidate counts
/// (Algorithm 4.2): level 1 comes from the exact `F_1` counts of `f1`;
/// each higher level generates candidates Apriori-style from the previous
/// frequent level and evaluates them with `count_fn` (typically
/// `HitStore::CountSuperpatterns`). Stops at `max_letters` levels when
/// nonzero. Appends patterns to `*result` (unsorted; callers canonicalize).
///
/// When `pool` is non-null, each level's candidates -- a slice of the
/// subpattern lattice of `C_max` -- are partitioned across the workers and
/// counted concurrently; `count_fn` must then be safe for concurrent calls
/// (both hit stores are, once scan 2 finished). Candidate generation,
/// filtering, and emission stay on the calling thread in candidate order,
/// so the output is identical at any worker count.
///
/// `interrupt` is polled between levels and every few hundred candidates;
/// when it fires the run stops and `DerivationStats::status` carries the
/// reason. `budget`, when non-null, is charged for each level's candidate
/// table (released when the level retires); a failed charge stops the run
/// with `kResourceExhausted`.
DerivationStats DeriveFrequentPatterns(
    const F1ScanResult& f1, uint32_t max_letters,
    const std::function<uint64_t(const Bitset&)>& count_fn,
    MiningResult* result, ThreadPool* pool = nullptr,
    const Interrupt& interrupt = Interrupt(), MemoryBudget* budget = nullptr);

/// The one derivation tail of every hit-set result -- the batch miners,
/// `ContinuousMiner::Snapshot` and the dist merger: derives every frequent
/// pattern of `f1` from the finished `store` (a `kind` store over
/// `f1.space`), canonicalizes `*result`, and fills its F_1 and hit-store
/// statistics. `pool`, `interrupt` and `budget` are passed to
/// `DeriveFrequentPatterns`. Returns the derivation status with fault
/// accounting; on any error `*result` is partial and callers discard it.
Status DeriveFromHitStore(const F1ScanResult& f1, const HitStore& store,
                          HitStoreKind kind, uint32_t max_letters,
                          ThreadPool* pool, const Interrupt& interrupt,
                          MemoryBudget* budget, MiningResult* result);

}  // namespace ppm

#endif  // PPM_CORE_DERIVATION_H_
