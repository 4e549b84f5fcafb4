#ifndef PPM_SERVICE_MINE_SERVICE_H_
#define PPM_SERVICE_MINE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mining_options.h"
#include "obs/metrics.h"
#include "service/pattern_cache.h"
#include "service/series_store.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ppm::service {

/// Configuration of one serving instance.
struct MineServiceOptions {
  /// Fsync mode of the per-series tail WALs (kAlways: an acknowledged
  /// append survives a crash).
  tsdb::WalFsync wal_fsync = tsdb::WalFsync::kAlways;

  /// Per-request admission budget in bytes: every mine/query runs with
  /// this `memory_budget_bytes` under `BudgetPolicy::kFail`, so a request
  /// whose Property 3.2 hit-set prediction (or observed working set)
  /// exceeds it is rejected with `kResourceExhausted` -- it never degrades
  /// or destabilizes the resident process. 0 = unlimited.
  uint64_t mining_memory_budget_bytes = 0;

  /// Cap on resident pattern-cache state (LRU-evicted past it; 0 =
  /// unbounded).
  uint64_t cache_memory_budget_bytes = 0;

  /// Retention cap forwarded to `SeriesStore::Options`: series keep only
  /// their newest N instants; overflowing appends truncate the oldest and
  /// compact the tail WAL. 0 = unlimited.
  uint64_t max_instants_per_series = 0;
};

/// One mine/query call.
struct QueryRequest {
  std::string series;
  uint32_t period = 0;
  double min_confidence = 0.8;
  uint64_t min_count = 0;
  uint32_t max_letters = 0;
  /// `mine` semantics: always re-mine a fresh snapshot (and update the
  /// cache). `query` semantics (false) serves from the cache when it can.
  bool force_rebuild = false;
  /// Per-request interruption, mapped from the wire deadline by the
  /// daemon and from SIGINT by the CLI.
  Deadline deadline;
  CancelToken cancel;
};

/// The transport-free service layer: every operation the CLI adapters and
/// the `ppmd` daemon expose, over one `SeriesStore` + `PatternCache`
/// (docs/SERVING.md). Thread-safe; one instance serves every connection.
class MineService {
 public:
  static Result<std::unique_ptr<MineService>> Open(
      const std::string& root, const MineServiceOptions& options = {});

  /// Stores (or replaces) a series.
  Status Put(const std::string& name, const tsdb::TimeSeries& series);

  /// Appends instants (feature-name lists) to a series; durable on return.
  Status Append(const std::string& name,
                const std::vector<std::vector<std::string>>& instants);

  /// Point-in-time copy of a series.
  Result<SeriesSnapshot> Get(const std::string& name);

  Status Drop(const std::string& name);

  std::vector<std::string> List() const;

  /// Mines or serves patterns (see `QueryRequest::force_rebuild`).
  /// Rejections under the admission budget surface as
  /// `kResourceExhausted` and count into `ppm.server.rejected`.
  Result<PatternCache::Response> Query(const QueryRequest& request);

  /// The server's RunReport JSON (`--stats-json` format): build
  /// fingerprint + the full `ppm.server.*` / mining metrics registry.
  std::string StatsJson() const;

  /// Prometheus text exposition of the metrics registry.
  std::string MetricsProm() const;

  /// Pattern-cache budget pressure in [0, 1]: resident bytes over the
  /// configured cache budget (0 when unbounded). Feeds the admission
  /// controller's readiness state.
  double CachePressure() const;

  SeriesStore& store() { return *store_; }
  PatternCache& cache() { return *cache_; }

 private:
  explicit MineService(const MineServiceOptions& options)
      : options_(options) {}

  MineServiceOptions options_;
  std::unique_ptr<SeriesStore> store_;
  std::unique_ptr<PatternCache> cache_;

  obs::Counter requests_;
  obs::Counter rejected_;
};

}  // namespace ppm::service

#endif  // PPM_SERVICE_MINE_SERVICE_H_
