#ifndef PPM_PERFBENCH_COMMON_H_
#define PPM_PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/mining_result.h"
#include "obs/trace.h"
#include "tsdb/symbol_table.h"
#include "util/status.h"

namespace ppm::perfbench {

/// Monotonic nanoseconds; every timing in the benchmark uses this clock.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One call into a layer during the traced run: a span of `tracer` (none
/// when it is null) and the call's duration in nanoseconds. The duration is
/// read with `NowNs` inside the span, because `obs::Tracer` keeps whole
/// microseconds, too coarse for calls that take a few, and its bookkeeping
/// should not count as the layer's time.
class TimedSpan {
 public:
  TimedSpan(obs::Tracer* tracer, const char* name) {
    if (tracer != nullptr) span_ = tracer->StartSpan(name);
    begin_ns_ = NowNs();
  }

  /// Closes the span (once; later calls repeat the result) and returns its
  /// duration.
  uint64_t End() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      span_.End();
    }
    return end_ns_ - begin_ns_;
  }

 private:
  obs::TraceSpan span_;
  uint64_t begin_ns_ = 0;
  uint64_t end_ns_ = 0;
};

/// The benchmark has no caller to hand a Status to: an unexpected error
/// ends the run with a nonzero exit and no result line.
[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "ppm_benchmark: %s\n", message.c_str());
  std::exit(2);
}

inline void DieIf(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T DieOr(Result<T> result, const char* what) {
  DieIf(result.status(), what);
  return std::move(result).value();
}

/// Linear-interpolated quantile `q` in [0, 1] of `values` (0 when empty).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// CPU time the process (all its threads) has used, in milliseconds.
inline double ProcessCpuMs() {
  rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// One line per pattern: letters, count and the round-trip confidence, in
/// the result's canonical order. Two pattern sets are field-identical
/// exactly when their serializations are equal.
inline std::string SerializePatterns(const MiningResult& result,
                                     const tsdb::SymbolTable& symbols) {
  std::string out;
  for (const FrequentPattern& entry : result.patterns()) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "\t%llu\t%.17g\n",
                  static_cast<unsigned long long>(entry.count),
                  entry.confidence);
    out += entry.pattern.Format(symbols);
    out += buffer;
  }
  return out;
}

}  // namespace ppm::perfbench

#endif  // PPM_PERFBENCH_COMMON_H_
