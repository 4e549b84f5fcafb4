#include "service/admission.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace ppm::service {

namespace {

/// Tracked tenant states are capped so an adversary cycling through fresh
/// tenant names cannot grow the map without bound; everyone past the cap
/// shares one overflow bucket (and thus one default quota).
constexpr size_t kMaxTrackedTenants = 256;
constexpr char kOverflowTenant[] = "!overflow";
constexpr char kDefaultTenant[] = "default";

Result<double> ParseNonNegative(const std::string& text,
                                const std::string& what) {
  try {
    size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size() || value < 0.0 || !std::isfinite(value)) {
      return Status::InvalidArgument("bad " + what + ": " + text);
    }
    return value;
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad " + what + ": " + text);
  }
}

void AppendJsonString(std::ostringstream* out, std::string_view value) {
  *out << '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      *out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out << ' ';
    } else {
      *out << c;
    }
  }
  *out << '"';
}

}  // namespace

Result<std::map<std::string, TenantQuota>> ParseTenantQuotas(
    std::string_view spec) {
  std::map<std::string, TenantQuota> quotas;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string entry(spec.substr(start, end - start));
    start = end + 1;
    if (entry.empty()) {
      if (spec.empty()) break;
      return Status::InvalidArgument("empty entry in --tenant-quota");
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument(
          "bad --tenant-quota entry (want tenant=rps:burst:inflight): " +
          entry);
    }
    const std::string tenant = entry.substr(0, eq);
    const std::string values = entry.substr(eq + 1);
    const size_t c1 = values.find(':');
    const size_t c2 = c1 == std::string::npos ? std::string::npos
                                              : values.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        values.find(':', c2 + 1) != std::string::npos) {
      return Status::InvalidArgument(
          "bad --tenant-quota entry (want tenant=rps:burst:inflight): " +
          entry);
    }
    TenantQuota quota;
    PPM_ASSIGN_OR_RETURN(quota.rps, ParseNonNegative(values.substr(0, c1),
                                                     "rps for " + tenant));
    PPM_ASSIGN_OR_RETURN(
        quota.burst,
        ParseNonNegative(values.substr(c1 + 1, c2 - c1 - 1),
                         "burst for " + tenant));
    PPM_ASSIGN_OR_RETURN(const double inflight,
                         ParseNonNegative(values.substr(c2 + 1),
                                          "inflight for " + tenant));
    if (inflight != std::floor(inflight)) {
      return Status::InvalidArgument("bad inflight for " + tenant + ": " +
                                     values.substr(c2 + 1));
    }
    quota.max_inflight = static_cast<uint64_t>(inflight);
    if (quota.rps > 0.0 && quota.burst <= 0.0) {
      // A rate without capacity would reject everything; a bucket of one
      // request is the least surprising floor.
      quota.burst = 1.0;
    }
    if (!quotas.emplace(tenant, quota).second) {
      return Status::InvalidArgument("duplicate tenant in --tenant-quota: " +
                                     tenant);
    }
  }
  return quotas;
}

AdmissionController::AdmissionController(Options options)
    : options_(std::move(options)),
      shed_watermark_(options_.shed_watermark > 0
                          ? options_.shed_watermark
                          : std::max<uint64_t>(
                                1, options_.queue_capacity * 3 / 4)) {
  const auto it = options_.quotas.find(kDefaultTenant);
  if (it != options_.quotas.end()) default_quota_ = it->second;
}

std::map<std::string, AdmissionController::TenantState>::iterator
AdmissionController::StateFor(const std::string& tenant) {
  const std::string& name = tenant.empty() ? kDefaultTenant : tenant;
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it;
  if (tenants_.size() >= kMaxTrackedTenants &&
      options_.quotas.find(name) == options_.quotas.end()) {
    it = tenants_.find(kOverflowTenant);
    if (it != tenants_.end()) return it;
    it = tenants_.emplace(kOverflowTenant, TenantState{}).first;
    it->second.quota = default_quota_;
    it->second.tokens = default_quota_.burst;
    it->second.last_refill_ms =
        options_.now_ms ? options_.now_ms() : SteadyNowMs();
    return it;
  }
  TenantState state;
  const auto quota_it = options_.quotas.find(name);
  if (quota_it != options_.quotas.end()) {
    state.quota = quota_it->second;
    state.has_quota = true;
  } else {
    state.quota = default_quota_;
  }
  state.tokens = state.quota.burst;
  state.last_refill_ms = options_.now_ms ? options_.now_ms() : SteadyNowMs();
  return tenants_.emplace(name, std::move(state)).first;
}

uint64_t AdmissionController::EstimatedQueueWaitMsLocked() const {
  if (queue_depth_ == 0 || !has_exec_sample_) return 0;
  const uint64_t workers = std::max<uint64_t>(1, options_.num_workers);
  // A free worker picks the next request up immediately.
  if (queue_depth_ + executing_ < workers) return 0;
  return static_cast<uint64_t>(
      std::ceil(static_cast<double>(queue_depth_) * exec_ema_ms_ /
                static_cast<double>(workers)));
}

AdmissionDecision AdmissionController::Admit(const std::string& tenant,
                                             uint32_t deadline_ms) {
  auto admitted_counter =
      obs::MetricsRegistry::Global().GetCounter("ppm.server.admission.admitted");
  auto rejected_counter =
      obs::MetricsRegistry::Global().GetCounter("ppm.server.admission.rejected");

  std::lock_guard<std::mutex> lock(mu_);
  const auto entry = StateFor(tenant);
  TenantState* state = &entry->second;
  // Canonical tracked name: capped-cardinality, so metric names are too.
  const std::string& display = entry->first;
  const uint64_t now = options_.now_ms ? options_.now_ms() : SteadyNowMs();

  AdmissionDecision decision;
  decision.queue_depth = queue_depth_;

  const auto reject = [&](std::string reason, uint32_t retry_after_ms) {
    decision.admitted = false;
    decision.reason = std::move(reason);
    decision.retry_after_ms = retry_after_ms;
    state->rejected_total += 1;
    rejected_counter.Inc();
    obs::MetricsRegistry::Global()
        .GetCounter("ppm.server.tenant." + display + ".rejected")
        .Inc();
    return decision;
  };

  if (draining_) {
    return reject("server draining", 0);
  }

  if (queue_depth_ >= options_.queue_capacity) {
    return reject("admission queue full",
                  static_cast<uint32_t>(std::max<uint64_t>(
                      1, EstimatedQueueWaitMsLocked())));
  }

  // Token bucket: refill at `rps`, capped at `burst`. rps == 0 disables
  // rate limiting for the tenant.
  if (state->quota.rps > 0.0) {
    const uint64_t elapsed = now - state->last_refill_ms;
    state->tokens =
        std::min(state->quota.burst,
                 state->tokens + state->quota.rps *
                                     (static_cast<double>(elapsed) / 1000.0));
    state->last_refill_ms = now;
    if (state->tokens < 1.0) {
      const double deficit = 1.0 - state->tokens;
      const uint32_t retry_after = static_cast<uint32_t>(
          std::ceil(deficit * 1000.0 / state->quota.rps));
      return reject("tenant '" + display + "' over rate quota",
                    std::max<uint32_t>(1, retry_after));
    }
    state->tokens -= 1.0;
  }

  if (state->quota.max_inflight > 0 &&
      state->inflight >= state->quota.max_inflight) {
    return reject("tenant '" + display + "' over in-flight quota", 0);
  }

  // Deadline feasibility: if the queue wait alone would exhaust the
  // request's budget, shed now so the client can retry elsewhere instead
  // of queueing doomed work.
  const uint64_t est_wait = EstimatedQueueWaitMsLocked();
  if (deadline_ms > 0 && est_wait >= deadline_ms) {
    return reject("deadline would expire in queue (estimated wait " +
                      std::to_string(est_wait) + " ms)",
                  static_cast<uint32_t>(std::max<uint64_t>(1, est_wait)));
  }

  state->inflight += 1;
  state->admitted_total += 1;
  queue_depth_ += 1;
  decision.admitted = true;
  decision.queue_depth = queue_depth_;
  admitted_counter.Inc();
  obs::MetricsRegistry::Global()
      .GetCounter("ppm.server.tenant." + display + ".admitted")
      .Inc();
  obs::MetricsRegistry::Global()
      .GetGauge("ppm.server.admission.queue_depth")
      .Set(static_cast<int64_t>(queue_depth_));
  return decision;
}

void AdmissionController::OnDequeued() {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_depth_ > 0) queue_depth_ -= 1;
  executing_ += 1;
  obs::MetricsRegistry::Global()
      .GetGauge("ppm.server.admission.queue_depth")
      .Set(static_cast<int64_t>(queue_depth_));
}

void AdmissionController::OnExecuted(uint64_t exec_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (executing_ > 0) executing_ -= 1;
  if (!has_exec_sample_) {
    exec_ema_ms_ = static_cast<double>(exec_ms);
    has_exec_sample_ = true;
  } else {
    exec_ema_ms_ = 0.8 * exec_ema_ms_ + 0.2 * static_cast<double>(exec_ms);
  }
}

void AdmissionController::OnCompleted(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = StateFor(tenant)->second;
  if (state.inflight > 0) state.inflight -= 1;
}

void AdmissionController::StartDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

wire::ReadyState AdmissionController::ReadyStateLocked() const {
  if (draining_) return wire::ReadyState::kDraining;
  if (queue_depth_ >= shed_watermark_) return wire::ReadyState::kShedding;
  if (options_.cache_pressure && options_.cache_pressure() >= 0.95) {
    return wire::ReadyState::kShedding;
  }
  return wire::ReadyState::kAccepting;
}

wire::ReadyState AdmissionController::ready_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadyStateLocked();
}

uint64_t AdmissionController::EstimatedQueueWaitMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EstimatedQueueWaitMsLocked();
}

uint64_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_depth_;
}

std::string AdmissionController::HealthJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const wire::ReadyState state = ReadyStateLocked();
  const char* state_name = state == wire::ReadyState::kAccepting ? "accepting"
                           : state == wire::ReadyState::kDraining
                               ? "draining"
                               : "shedding";
  std::ostringstream out;
  out << "{\"ready_state\":\"" << state_name << '"';
  out << ",\"queue_depth\":" << queue_depth_;
  out << ",\"executing\":" << executing_;
  out << ",\"queue_capacity\":" << options_.queue_capacity;
  out << ",\"shed_watermark\":" << shed_watermark_;
  out << ",\"estimated_queue_wait_ms\":" << EstimatedQueueWaitMsLocked();
  out << ",\"exec_ema_ms\":" << (has_exec_sample_ ? exec_ema_ms_ : 0.0);
  if (options_.cache_pressure) {
    out << ",\"cache_pressure\":" << options_.cache_pressure();
  }
  out << ",\"tenants\":{";
  bool first = true;
  for (const auto& [name, tenant] : tenants_) {
    if (!first) out << ',';
    first = false;
    AppendJsonString(&out, name);
    out << ":{\"inflight\":" << tenant.inflight
        << ",\"admitted\":" << tenant.admitted_total
        << ",\"rejected\":" << tenant.rejected_total
        << ",\"has_quota\":" << (tenant.has_quota ? "true" : "false") << '}';
  }
  out << "}}";
  return out.str();
}

}  // namespace ppm::service
