#ifndef PPM_SERVICE_PATTERN_CACHE_H_
#define PPM_SERVICE_PATTERN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/miner.h"
#include "core/mining_options.h"
#include "core/mining_result.h"
#include "obs/metrics.h"
#include "service/series_store.h"
#include "stream/continuous_miner.h"
#include "tsdb/symbol_table.h"
#include "util/status.h"

namespace ppm::service {

/// Mined-pattern cache keyed by (series, period, algorithm, min_conf,
/// min_count, max_letters), backed per entry by a resident
/// `stream::ContinuousMiner` so a re-query after appends costs O(Δ) -- the
/// appended instants feed the incremental miner -- instead of a from-scratch
/// re-mine (docs/SERVING.md).
///
/// Coherence: the cache subscribes to `SeriesStore` mutations (delivered
/// under the mutated series' lock). Every mutation releases the series'
/// memos; an append also feeds every in-sync entry's miner, while a put or
/// drop discards the entries' miners outright. A query outcome is one of:
///
///   - *hit*: the memo is already at the store's current version; the
///     response shares it (a pointer copy, no patterns are copied).
///   - *refresh*: the resident miner is in sync (fed every append, no
///     drifted letters) -- one `Snapshot()` derivation, O(hit store).
///   - *miss*: full rebuild from a fresh store snapshot (first query,
///     post-put/drop, a missed delta, or letter drift).
///
/// Served patterns are always field-identical to a batch mine of the same
/// snapshot (`tests/serving_differential_test.cc`): the miner is seeded
/// with the snapshot's own F1 letters, and drift detection forces a rebuild
/// whenever an unseeded letter becomes frequent.
class PatternCache {
 public:
  enum class Outcome : uint8_t { kMiss = 0, kHit = 1, kRefresh = 2 };

  struct Request {
    std::string series;
    Algorithm algorithm = Algorithm::kMaxSubpatternHitSet;
    /// period / min_confidence / min_count / max_letters identify the
    /// entry; cancel / deadline / memory budget govern this call only.
    MiningOptions options;
    /// Skip the memo and the resident miner: mine a fresh snapshot (the
    /// `mine` op; `query` serves from cache when it can).
    bool force_rebuild = false;
  };

  /// One derivation, immutable once built and shared by every response
  /// that serves it: a hit copies this pointer, never the patterns.
  struct Memo {
    MiningResult result;
    /// Names for the ids in `result` (the serving snapshot's table).
    tsdb::SymbolTable symbols;
    /// Store version and length of the snapshot the result reflects.
    uint64_t version = 0;
    uint64_t length = 0;
    /// `result` and `symbols` as a response payload's result section
    /// (`wire::PutResultSection`), encoded once when the memo is built.
    std::string section;
  };

  struct Response {
    Response(std::shared_ptr<const Memo> served, Outcome served_outcome)
        : memo(std::move(served)),
          result(memo->result),
          symbols(memo->symbols),
          outcome(served_outcome),
          version(memo->version),
          length(memo->length) {}

    /// Keeps `result` and `symbols` alive however the cache moves on.
    std::shared_ptr<const Memo> memo;
    const MiningResult& result;
    const tsdb::SymbolTable& symbols;
    Outcome outcome;
    /// Store version and length of the snapshot the result reflects.
    uint64_t version;
    uint64_t length;
  };

  /// `memory_budget_bytes` caps resident miner state; least-recently-used
  /// entries are evicted past it (0 = unbounded).
  PatternCache(SeriesStore* store, uint64_t memory_budget_bytes);

  /// Serves one query (see class comment for the outcome taxonomy).
  Result<Response> Serve(const Request& request);

  /// `SeriesStore` mutation listener; wire via `SetMutationListener`.
  /// Called under the mutated series' lock.
  void OnMutation(const SeriesStore::Mutation& mutation);

  /// Resident entries (tests).
  uint64_t entry_count() const;

  /// Charged bytes: per resident entry, its miner's footprint when seeded
  /// plus its memo's encoded section (docs/SERVING.md).
  uint64_t resident_bytes() const;

 private:
  struct Entry {
    mutable std::mutex mu;
    /// The entry's key and series (for eviction and mutation routing).
    std::string key;
    std::string series;

    /// Resident incremental miner and the store version its state
    /// reflects. `miner_in_sync` clears when a delta was missed or the
    /// series was replaced/dropped.
    std::unique_ptr<stream::ContinuousMiner> miner;
    bool miner_in_sync = false;
    uint64_t fed_version = 0;
    /// `miner->ApproxMemoryBytes()` when it was seeded.
    uint64_t miner_bytes = 0;

    /// Symbol table captured when the miner was seeded (patterns only
    /// reference seeded ids, so this table always covers them).
    tsdb::SymbolTable symbols;

    /// Memoized derivation at `memo->version`; released by every mutation
    /// of the series, since it can never be served again.
    std::shared_ptr<const Memo> memo;

    /// Newest mutation version observed for the series -- detects deltas
    /// that raced a rebuild.
    uint64_t last_mutation_version = 0;

    /// LRU tick; atomic so eviction can rank entries without their locks.
    std::atomic<uint64_t> last_used{0};
    /// Charged bytes; guarded by the cache's `map_mu_`, not `mu`.
    uint64_t approx_bytes = 0;
  };

  std::string EncodeKey(const Request& request) const;
  std::shared_ptr<Entry> GetOrCreate(const Request& request);
  /// Re-charges `entry` at its miner + memo section bytes, then evicts past
  /// the budget. Caller holds `entry->mu`; `map_mu_` is taken inside it,
  /// never the other way round.
  void Charge(const std::shared_ptr<Entry>& entry);
  void MaybeEvict();

  SeriesStore* store_;
  uint64_t memory_budget_bytes_;

  mutable std::mutex map_mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::atomic<uint64_t> lru_tick_{0};
  uint64_t total_bytes_ = 0;

  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter refreshes_;
  obs::Counter invalidations_;
  obs::Counter evictions_;
  obs::Gauge bytes_gauge_;
  obs::Gauge entries_gauge_;
};

}  // namespace ppm::service

#endif  // PPM_SERVICE_PATTERN_CACHE_H_
