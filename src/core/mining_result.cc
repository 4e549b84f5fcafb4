#include "core/mining_result.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/json_writer.h"

namespace ppm {

std::string MiningStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("scans").Uint(scans);
  w.Key("instants_read").Uint(instants_read);
  w.Key("candidates_evaluated").Uint(candidates_evaluated);
  w.Key("hit_store_entries").Uint(hit_store_entries);
  w.Key("tree_nodes").Uint(tree_nodes);
  w.Key("num_f1_letters").Uint(num_f1_letters);
  w.Key("num_periods").Uint(num_periods);
  w.Key("max_level_reached").Uint(max_level_reached);
  w.Key("elapsed_seconds").Double(elapsed_seconds);
  w.EndObject();
  return w.str();
}

const FrequentPattern* MiningResult::Find(const Pattern& pattern) const {
  for (const FrequentPattern& entry : patterns_) {
    if (entry.pattern == pattern) return &entry;
  }
  return nullptr;
}

void MiningResult::Canonicalize() {
  // Each letter count is computed once, not once per comparison: sort
  // (count, index) keys, then move the patterns into place.
  std::vector<std::pair<uint32_t, uint32_t>> keys;
  keys.reserve(patterns_.size());
  for (uint32_t i = 0; i < patterns_.size(); ++i) {
    keys.emplace_back(patterns_[i].pattern.LetterCount(), i);
  }
  std::sort(keys.begin(), keys.end(),
            [this](const std::pair<uint32_t, uint32_t>& a,
                   const std::pair<uint32_t, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return patterns_[a.second].pattern < patterns_[b.second].pattern;
            });
  std::vector<FrequentPattern> sorted;
  sorted.reserve(patterns_.size());
  for (const auto& key : keys) {
    sorted.push_back(std::move(patterns_[key.second]));
  }
  patterns_ = std::move(sorted);
}

std::string MiningResult::ToString(const tsdb::SymbolTable& symbols) const {
  std::string out;
  for (const FrequentPattern& entry : patterns_) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "  count=%llu conf=%.4f\n",
                  static_cast<unsigned long long>(entry.count),
                  entry.confidence);
    out += entry.pattern.Format(symbols);
    out += buffer;
  }
  return out;
}

}  // namespace ppm
