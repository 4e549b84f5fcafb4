#ifndef PPM_OBS_TRACE_H_
#define PPM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace ppm::obs {

/// One completed (or still open) phase of a run, relative to the tracer's
/// epoch. `depth` is the nesting level at the time the span opened.
struct TraceEvent {
  std::string name;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  uint32_t depth = 0;
};

#ifndef PPM_OBS_DISABLED

class Tracer;

/// RAII handle for one phase: opens on `Tracer::StartSpan`, closes on
/// destruction (or an explicit `End()`). Move-only.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { End(); }

  /// Closes the span, recording its duration. Safe to call twice; a span
  /// orphaned by `Tracer::Clear()` ends as a no-op.
  void End();

  /// Seconds since the span opened (live), or its final duration once
  /// ended. Valid in all build modes, so miners can time themselves through
  /// their span even with observability compiled out.
  double ElapsedSeconds() const;

 private:
  friend class Tracer;
  TraceSpan(Tracer* tracer, size_t index, uint64_t generation)
      : tracer_(tracer), index_(index), generation_(generation) {}
  /// A span the tracer had no room to record; it times itself.
  explicit TraceSpan(std::chrono::steady_clock::time_point unrecorded_start)
      : unrecorded_(true), unrecorded_start_(unrecorded_start) {}

  Tracer* tracer_ = nullptr;
  size_t index_ = 0;
  uint64_t generation_ = 0;
  /// True while an unrecorded span is open.
  bool unrecorded_ = false;
  std::chrono::steady_clock::time_point unrecorded_start_;
  /// Final duration, captured by `End()` so the value survives `Clear()`.
  double elapsed_after_end_ = 0.0;
};

/// Records nested phase timings as a flat list of events ordered by start
/// time, exportable in Chrome's `trace_event` JSON format
/// (load via chrome://tracing or https://ui.perfetto.dev).
///
/// Thread-safe behind a mutex: the parallel miners open per-worker spans
/// from pool threads. Spans are coarse (phases, not per-item work), so the
/// lock is uncontended in practice. `events()` returns a reference into the
/// tracer and must only be read when no spans are being opened or closed
/// concurrently (i.e. after workers have joined).
class Tracer {
 public:
  /// Events kept between `Clear()`s (about 0.5 MB). Later spans still time
  /// themselves but are not recorded; each one counts in
  /// `ppm.trace.dropped`. This bounds a long-lived process, whose global
  /// tracer is never cleared, however many mines it runs.
  static constexpr size_t kMaxEvents = size_t{1} << 13;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span named `name` nested under any currently open spans.
  TraceSpan StartSpan(std::string name);

  /// Drops all recorded events and restarts the epoch. Spans still open
  /// become orphans whose `End()` is a no-op.
  void Clear();

  /// All spans in start order. Spans still open have `dur_us == 0`.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// True if some recorded span is named `name` (test convenience).
  bool HasSpan(std::string_view name) const;

  /// JSON array of Chrome `trace_event` objects:
  /// `[{"name":...,"ph":"X","ts":...,"dur":...,"pid":1,"tid":1}, ...]`.
  std::string ToChromeTraceJson() const;

  /// Writes `ToChromeTraceJson()` to `path`.
  Status WriteChromeTrace(const std::string& path) const;

  /// Process-wide tracer the library's built-in instrumentation uses.
  static Tracer& Global();

 private:
  friend class TraceSpan;

  uint64_t NowUs() const;

  /// Ends the span if `generation` is still current and returns its final
  /// duration in seconds; returns a negative value for orphaned spans.
  double CloseSpan(size_t index, uint64_t generation);

  /// Live elapsed seconds of an open span; negative when orphaned.
  double SpanElapsed(size_t index, uint64_t generation) const;

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  uint32_t open_spans_ = 0;
  /// Bumped by `Clear()` so spans from a previous generation cannot write
  /// into recycled event slots.
  uint64_t generation_ = 0;
  Counter dropped_;
};

#else  // PPM_OBS_DISABLED

// No-op tracer: spans still measure wall time (ElapsedSeconds keeps
// working) but nothing is recorded and traces serialize empty.

class Tracer;

class TraceSpan {
 public:
  TraceSpan() : start_(std::chrono::steady_clock::now()) {}
  TraceSpan(TraceSpan&&) noexcept = default;
  TraceSpan& operator=(TraceSpan&&) noexcept = default;
  ~TraceSpan() = default;

  void End() {
    if (!ended_) {
      elapsed_ = Now();
      ended_ = true;
    }
  }
  double ElapsedSeconds() const { return ended_ ? elapsed_ : Now(); }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  std::chrono::steady_clock::time_point start_;
  double elapsed_ = 0.0;
  bool ended_ = false;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  TraceSpan StartSpan(std::string) { return TraceSpan(); }
  void Clear() {}
  const std::vector<TraceEvent>& events() const {
    static const std::vector<TraceEvent> empty;
    return empty;
  }
  bool HasSpan(std::string_view) const { return false; }
  std::string ToChromeTraceJson() const { return "[]"; }
  Status WriteChromeTrace(const std::string& path) const;

  static Tracer& Global() {
    static Tracer tracer;
    return tracer;
  }
};

#endif  // PPM_OBS_DISABLED

}  // namespace ppm::obs

#endif  // PPM_OBS_TRACE_H_
