#ifndef PPM_UTIL_STOPWATCH_H_
#define PPM_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace ppm {

/// Milliseconds on the monotonic clock, from an arbitrary epoch: the one
/// clock behind deadlines, io timeouts and token-bucket refills.
inline uint64_t SteadyNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch used by the benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts timing from now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last `Restart()`.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last `Restart()`.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ppm

#endif  // PPM_UTIL_STOPWATCH_H_
