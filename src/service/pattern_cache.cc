#include "service/pattern_cache.h"

#include <cstdio>
#include <utility>

#include "service/wire.h"

namespace ppm::service {

PatternCache::PatternCache(SeriesStore* store, uint64_t memory_budget_bytes)
    : store_(store), memory_budget_bytes_(memory_budget_bytes) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  hits_ = registry.GetCounter("ppm.server.cache.hits");
  misses_ = registry.GetCounter("ppm.server.cache.misses");
  refreshes_ = registry.GetCounter("ppm.server.cache.refreshes");
  invalidations_ = registry.GetCounter("ppm.server.cache.invalidations");
  evictions_ = registry.GetCounter("ppm.server.cache.evictions");
  bytes_gauge_ = registry.GetGauge("ppm.server.cache.bytes");
  entries_gauge_ = registry.GetGauge("ppm.server.cache.entries");
}

std::string PatternCache::EncodeKey(const Request& request) const {
  char conf[40];
  std::snprintf(conf, sizeof(conf), "%.17g", request.options.min_confidence);
  std::string key = request.series;
  key += '\n';
  key += std::to_string(request.options.period);
  key += '/';
  key += conf;
  key += '/';
  key += std::to_string(request.options.min_count);
  key += '/';
  key += std::to_string(request.options.max_letters);
  return key;
}

std::shared_ptr<PatternCache::Entry> PatternCache::GetOrCreate(
    const Request& request) {
  std::string key = EncodeKey(request);
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->series = request.series;
  entries_.emplace(std::move(key), entry);
  entries_gauge_.Set(entries_.size());
  return entry;
}

namespace {

std::shared_ptr<const PatternCache::Memo> MakeMemo(
    MiningResult result, const tsdb::SymbolTable& symbols, uint32_t period,
    uint64_t version, uint64_t length) {
  auto memo = std::make_shared<PatternCache::Memo>();
  memo->result = std::move(result);
  memo->symbols = symbols;
  memo->version = version;
  memo->length = length;
  wire::PutResultSection(&memo->section, memo->result.stats().num_periods,
                         period, symbols.names(),
                         wire::ToWirePatterns(memo->result));
  return memo;
}

}  // namespace

Result<PatternCache::Response> PatternCache::Serve(const Request& request) {
  PPM_ASSIGN_OR_RETURN(const auto current,
                       store_->VersionAndLength(request.series));
  const uint64_t now_version = current.first;
  const uint64_t now_length = current.second;
  std::shared_ptr<Entry> entry = GetOrCreate(request);
  const uint64_t tick = ++lru_tick_;

  if (!request.force_rebuild) {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->last_used = tick;
    if (entry->memo != nullptr && entry->memo->version == now_version) {
      hits_.Inc();
      return Response(entry->memo, Outcome::kHit);
    }
    if (entry->miner != nullptr && entry->miner_in_sync &&
        entry->fed_version == now_version &&
        entry->miner->DriftedLetters().empty()) {
      // The resident miner absorbed every append and no unseeded letter
      // went frequent: one O(hit store) derivation refreshes the memo.
      PPM_ASSIGN_OR_RETURN(
          MiningResult result,
          entry->miner->Snapshot(request.options.interrupt()));
      entry->memo = MakeMemo(std::move(result), entry->symbols,
                             request.options.period, now_version, now_length);
      Charge(entry);
      refreshes_.Inc();
      return Response(entry->memo, Outcome::kRefresh);
    }
  }

  // Rebuild: seed a fresh miner from a consistent snapshot, outside every
  // lock (mining is the expensive part). The snapshot may be newer than
  // `now_version` if appends raced in -- its own version is what the
  // response reports.
  PPM_ASSIGN_OR_RETURN(SeriesSnapshot snapshot,
                       store_->Snapshot(request.series));
  PPM_ASSIGN_OR_RETURN(
      std::unique_ptr<stream::ContinuousMiner> miner,
      stream::ContinuousMiner::SeedFromPrefix(request.options,
                                              snapshot.series));
  PPM_ASSIGN_OR_RETURN(MiningResult result,
                       miner->Snapshot(request.options.interrupt()));
  std::shared_ptr<const Memo> memo =
      MakeMemo(std::move(result), snapshot.series.symbols(),
               request.options.period, snapshot.version,
               snapshot.series.length());
  misses_.Inc();
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->last_used = tick;
    entry->miner_bytes = miner->ApproxMemoryBytes();
    entry->miner = std::move(miner);
    entry->symbols = memo->symbols;
    entry->fed_version = snapshot.version;
    // A mutation delivered while we were mining never reached this miner,
    // and this memo is already stale: answer with it, but do not keep it.
    entry->miner_in_sync = entry->last_mutation_version <= snapshot.version;
    entry->memo = entry->miner_in_sync ? memo : nullptr;
    Charge(entry);
  }
  return Response(std::move(memo), Outcome::kMiss);
}

void PatternCache::OnMutation(const SeriesStore::Mutation& mutation) {
  std::vector<std::shared_ptr<Entry>> affected;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    for (const auto& [key, entry] : entries_) {
      if (entry->series == mutation.name) affected.push_back(entry);
    }
  }
  for (const std::shared_ptr<Entry>& entry : affected) {
    std::lock_guard<std::mutex> lock(entry->mu);
    entry->last_mutation_version = mutation.version;
    bool recharge = false;
    if (mutation.kind == SeriesStore::Mutation::Kind::kAppend &&
        entry->miner != nullptr && entry->miner_in_sync &&
        entry->fed_version + 1 == mutation.version &&
        mutation.delta != nullptr) {
      // O(Δ): feed the appended instants to the resident miner.
      for (const tsdb::FeatureSet& instant : *mutation.delta) {
        entry->miner->Append(instant);
      }
      entry->fed_version = mutation.version;
    } else if (entry->miner != nullptr) {
      // Replaced, dropped, or a missed delta: the resident state no
      // longer extends the stored series.
      entry->miner.reset();
      entry->miner_in_sync = false;
      recharge = true;
    }
    // Every mutation moves the series past the memo's version, so the memo
    // can never be served again; responses already holding it keep it.
    if (entry->memo != nullptr) {
      entry->memo.reset();
      invalidations_.Inc();
      recharge = true;
    }
    if (recharge) Charge(entry);
  }
}

void PatternCache::Charge(const std::shared_ptr<Entry>& entry) {
  const uint64_t bytes =
      entry->miner == nullptr
          ? 0
          : sizeof(Entry) + entry->miner_bytes +
                (entry->memo != nullptr ? entry->memo->section.size() : 0);
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = entries_.find(entry->key);
  if (it == entries_.end() || it->second != entry) return;  // Evicted.
  total_bytes_ += bytes - entry->approx_bytes;
  entry->approx_bytes = bytes;
  bytes_gauge_.Set(total_bytes_);
  MaybeEvict();
}

void PatternCache::MaybeEvict() {
  // Caller holds `map_mu_`.
  if (memory_budget_bytes_ == 0) return;
  while (total_bytes_ > memory_budget_bytes_ && !entries_.empty()) {
    auto victim = entries_.end();
    uint64_t oldest = UINT64_MAX;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = it;
      }
    }
    if (victim == entries_.end()) return;
    total_bytes_ -= victim->second->approx_bytes;
    entries_.erase(victim);
    evictions_.Inc();
  }
  bytes_gauge_.Set(total_bytes_);
  entries_gauge_.Set(entries_.size());
}

uint64_t PatternCache::entry_count() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return entries_.size();
}

uint64_t PatternCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return total_bytes_;
}

}  // namespace ppm::service
