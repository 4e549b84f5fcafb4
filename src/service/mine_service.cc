#include "service/mine_service.h"

#include <utility>

#include "obs/build_info.h"
#include "obs/run_report.h"

namespace ppm::service {

Result<std::unique_ptr<MineService>> MineService::Open(
    const std::string& root, const MineServiceOptions& options) {
  std::unique_ptr<MineService> service(new MineService(options));
  SeriesStore::Options store_options;
  store_options.wal_fsync = options.wal_fsync;
  store_options.max_instants_per_series = options.max_instants_per_series;
  PPM_ASSIGN_OR_RETURN(service->store_, SeriesStore::Open(root, store_options));
  service->cache_ = std::make_unique<PatternCache>(
      service->store_.get(), options.cache_memory_budget_bytes);
  // Mutations reach the cache under the mutated series' lock, so a served
  // result can never miss the delta of an acknowledged append.
  PatternCache* cache = service->cache_.get();
  service->store_->SetMutationListener(
      [cache](const SeriesStore::Mutation& mutation) {
        cache->OnMutation(mutation);
      });
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  service->requests_ = registry.GetCounter("ppm.server.requests");
  service->rejected_ = registry.GetCounter("ppm.server.rejected");
  return service;
}

Status MineService::Put(const std::string& name,
                        const tsdb::TimeSeries& series) {
  requests_.Inc();
  obs::MetricsRegistry::Global().GetCounter("ppm.server.requests.put").Inc();
  return store_->Put(name, series);
}

Status MineService::Append(
    const std::string& name,
    const std::vector<std::vector<std::string>>& instants) {
  requests_.Inc();
  obs::MetricsRegistry::Global().GetCounter("ppm.server.requests.append").Inc();
  return store_->Append(name, instants);
}

Result<SeriesSnapshot> MineService::Get(const std::string& name) {
  requests_.Inc();
  obs::MetricsRegistry::Global().GetCounter("ppm.server.requests.get").Inc();
  return store_->Snapshot(name);
}

Status MineService::Drop(const std::string& name) {
  requests_.Inc();
  obs::MetricsRegistry::Global().GetCounter("ppm.server.requests.drop").Inc();
  return store_->Drop(name);
}

std::vector<std::string> MineService::List() const {
  return store_->List();
}

Result<PatternCache::Response> MineService::Query(const QueryRequest& request) {
  requests_.Inc();
  obs::MetricsRegistry::Global()
      .GetCounter(request.force_rebuild ? "ppm.server.requests.mine"
                                        : "ppm.server.requests.query")
      .Inc();

  PatternCache::Request cache_request;
  cache_request.series = request.series;
  cache_request.force_rebuild = request.force_rebuild;
  MiningOptions& options = cache_request.options;
  options.period = request.period;
  options.min_confidence = request.min_confidence;
  options.min_count = request.min_count;
  options.max_letters = request.max_letters;
  options.num_threads = 1;
  options.cancel = request.cancel;
  options.deadline = request.deadline;
  // Admission control: a request whose Property 3.2 hit-set prediction
  // exceeds the configured budget is rejected outright rather than
  // degraded -- a resident server must not gamble on oversized queries.
  options.memory_budget_bytes = options_.mining_memory_budget_bytes;
  options.budget_policy = BudgetPolicy::kFail;

  Result<PatternCache::Response> response = cache_->Serve(cache_request);
  if (!response.ok() &&
      response.status().code() == StatusCode::kResourceExhausted) {
    rejected_.Inc();
  }
  return response;
}

std::string MineService::StatsJson() const {
  obs::RunReport report("ppmd");
  obs::AddBuildMeta(&report);
  report.AddMeta("store.root", store_->root());
  report.AddMeta("cache.entries", cache_->entry_count());
  report.AddMeta("cache.bytes", cache_->resident_bytes());
  report.CaptureGlobal();
  return report.ToJson();
}

std::string MineService::MetricsProm() const {
  return obs::MetricsRegistry::Global().RenderPrometheus();
}

double MineService::CachePressure() const {
  if (options_.cache_memory_budget_bytes == 0) return 0.0;
  const double pressure =
      static_cast<double>(cache_->resident_bytes()) /
      static_cast<double>(options_.cache_memory_budget_bytes);
  return pressure > 1.0 ? 1.0 : pressure;
}

}  // namespace ppm::service
