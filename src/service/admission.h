#ifndef PPM_SERVICE_ADMISSION_H_
#define PPM_SERVICE_ADMISSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/wire.h"
#include "util/status.h"

namespace ppm::service {

/// Per-tenant admission limits. A zero field means "unlimited" for that
/// dimension, so the default-constructed quota admits everything.
struct TenantQuota {
  /// Sustained request rate (token-bucket refill, requests per second).
  double rps = 0.0;
  /// Bucket capacity: how many requests may burst above the sustained rate.
  double burst = 0.0;
  /// Admitted-but-not-yet-completed requests the tenant may hold at once.
  /// This is what isolates tenants: it bounds how much of the shared worker
  /// queue one tenant can occupy, so a greedy tenant saturates its own cap
  /// while polite tenants still find queue room.
  uint64_t max_inflight = 0;
};

/// Parses `ppmd --tenant-quota` specs: a comma-separated list of
/// `tenant=rps:burst:inflight` entries (one flag value, since ArgMap
/// rejects repeated flags). The tenant name `default` sets the quota
/// applied to every tenant without an explicit entry -- including requests
/// that carry an empty tenant id.
Result<std::map<std::string, TenantQuota>> ParseTenantQuotas(
    std::string_view spec);

/// Admission decision for one request.
struct AdmissionDecision {
  bool admitted = false;
  /// When rejected: why, as a `kResourceExhausted` detail message.
  std::string reason;
  /// When rejected: structured hint for when a retry could plausibly be
  /// admitted (0 = no estimate, e.g. inflight cap -- depends on completions).
  uint32_t retry_after_ms = 0;
  /// Queue position estimate at admission time, for metrics/diagnostics.
  uint64_t queue_depth = 0;
};

/// Overload protection for `ppmd`: per-tenant token buckets and in-flight
/// caps, a bounded admission queue with deadline-aware shedding, and a
/// readiness state machine (accepting -> draining -> shedding) driven by
/// queue depth and cache-budget pressure.
///
/// The controller only does accounting -- it never blocks and holds no
/// request data. The server calls `Admit` when a complete frame arrives,
/// `OnExecuted(exec_ms)` when a worker finishes mining (feeds the service
/// -time EMA used for deadline feasibility), and `OnCompleted` when the
/// request's response has been written (releases the inflight slot).
///
/// Thread-safe; time is injectable for deterministic unit tests.
class AdmissionController {
 public:
  struct Options {
    /// Quotas by tenant name; `default` is the fallback for unnamed tenants.
    std::map<std::string, TenantQuota> quotas;
    /// Bounded FIFO queue capacity (admitted, waiting for a worker).
    uint64_t queue_capacity = 64;
    /// Worker threads draining the queue (feeds wait estimation).
    uint64_t num_workers = 1;
    /// Queue depth at which readiness degrades to kShedding. 0 derives
    /// 3/4 of `queue_capacity`.
    uint64_t shed_watermark = 0;
    /// Millisecond clock; defaults to steady_clock. Injectable for tests.
    std::function<uint64_t()> now_ms;
    /// Optional cache-budget pressure probe in [0, 1]; >= 0.95 degrades
    /// readiness to kShedding even with an empty queue.
    std::function<double()> cache_pressure;
  };

  explicit AdmissionController(Options options);

  /// Decides admission for one request from `tenant` (empty = default)
  /// carrying `deadline_ms` (0 = none). Checks, in order: drain state,
  /// queue capacity, tenant token bucket, tenant inflight cap, and
  /// deadline feasibility (estimated queue wait vs. the request's budget).
  /// On admission the tenant's inflight slot and one queue slot are held
  /// until `OnCompleted`.
  AdmissionDecision Admit(const std::string& tenant, uint32_t deadline_ms);

  /// A worker picked the request up: it left the queue.
  void OnDequeued();

  /// A worker finished executing a request that ran for `exec_ms`;
  /// updates the EMA used to estimate queue wait.
  void OnExecuted(uint64_t exec_ms);

  /// The request fully completed (response written or connection dropped);
  /// releases the tenant's inflight slot.
  void OnCompleted(const std::string& tenant);

  /// Enters drain: every subsequent `Admit` rejects, readiness reports
  /// kDraining (kShedding once the backlog clears is *not* entered --
  /// drain is terminal).
  void StartDrain();

  wire::ReadyState ready_state() const;

  /// JSON snapshot for health/ready responses: ready state, queue depth,
  /// capacity, EMA, cache pressure, and per-tenant admitted/rejected/
  /// inflight counters.
  std::string HealthJson() const;

  /// Estimated wait for the next queued request, from queue depth, the
  /// execution-time EMA, and the worker count.
  uint64_t EstimatedQueueWaitMs() const;

  uint64_t queue_depth() const;

 private:
  struct TenantState {
    TenantQuota quota;
    bool has_quota = false;  // Explicit entry (vs. default fallback).
    double tokens = 0.0;
    uint64_t last_refill_ms = 0;
    uint64_t inflight = 0;
    uint64_t admitted_total = 0;
    uint64_t rejected_total = 0;
  };

  /// Returns the tracked entry for `tenant` (empty = default). Past the
  /// tracked-tenant cap, unknown names share one overflow entry -- the
  /// returned key is the canonical name to use for metrics so adversarial
  /// tenant-name cardinality cannot grow the metrics registry either.
  std::map<std::string, TenantState>::iterator StateFor(
      const std::string& tenant);
  uint64_t EstimatedQueueWaitMsLocked() const;
  wire::ReadyState ReadyStateLocked() const;

  const Options options_;
  const uint64_t shed_watermark_;
  TenantQuota default_quota_;

  mutable std::mutex mu_;
  std::map<std::string, TenantState> tenants_;
  uint64_t queue_depth_ = 0;
  /// Requests a worker is currently executing (OnDequeued -> OnExecuted);
  /// while executing + queued leave a worker free, the wait estimate is
  /// zero so deadline shedding never fires on an idle server.
  uint64_t executing_ = 0;
  bool draining_ = false;
  /// EMA of worker execution time, milliseconds; primed pessimistically at
  /// 0 so an idle server admits everything until real samples arrive.
  double exec_ema_ms_ = 0.0;
  bool has_exec_sample_ = false;
};

}  // namespace ppm::service

#endif  // PPM_SERVICE_ADMISSION_H_
