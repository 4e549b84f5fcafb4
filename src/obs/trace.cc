#include "obs/trace.h"

#include <fstream>
#include <utility>

#include "obs/json_writer.h"

namespace ppm::obs {

namespace {

#ifndef PPM_OBS_DISABLED
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
#endif  // PPM_OBS_DISABLED

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << content << "\n";
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace

#ifndef PPM_OBS_DISABLED

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = std::exchange(other.tracer_, nullptr);
    index_ = other.index_;
    generation_ = other.generation_;
    unrecorded_ = std::exchange(other.unrecorded_, false);
    unrecorded_start_ = other.unrecorded_start_;
    elapsed_after_end_ = other.elapsed_after_end_;
  }
  return *this;
}

void TraceSpan::End() {
  if (unrecorded_) {
    elapsed_after_end_ = SecondsSince(unrecorded_start_);
    unrecorded_ = false;
  }
  if (tracer_ == nullptr) return;
  const double elapsed = tracer_->CloseSpan(index_, generation_);
  if (elapsed >= 0.0) elapsed_after_end_ = elapsed;
  tracer_ = nullptr;
}

double TraceSpan::ElapsedSeconds() const {
  if (unrecorded_) return SecondsSince(unrecorded_start_);
  if (tracer_ != nullptr) {
    const double elapsed = tracer_->SpanElapsed(index_, generation_);
    if (elapsed >= 0.0) return elapsed;
  }
  return elapsed_after_end_;
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      dropped_(MetricsRegistry::Global().GetCounter("ppm.trace.dropped")) {}

uint64_t Tracer::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceSpan Tracer::StartSpan(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    dropped_.Inc();
    return TraceSpan(std::chrono::steady_clock::now());
  }
  TraceEvent event;
  event.name = std::move(name);
  event.start_us = NowUs();
  event.depth = open_spans_;
  events_.push_back(std::move(event));
  ++open_spans_;
  return TraceSpan(this, events_.size() - 1, generation_);
}

double Tracer::CloseSpan(size_t index, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation != generation_) return -1.0;
  TraceEvent& event = events_[index];
  const uint64_t now = NowUs();
  event.dur_us = now > event.start_us ? now - event.start_us : 0;
  if (open_spans_ > 0) --open_spans_;
  return static_cast<double>(event.dur_us) * 1e-6;
}

double Tracer::SpanElapsed(size_t index, uint64_t generation) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (generation != generation_) return -1.0;
  return static_cast<double>(NowUs() - events_[index].start_us) * 1e-6;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  open_spans_ = 0;
  ++generation_;
  epoch_ = std::chrono::steady_clock::now();
}

bool Tracer::HasSpan(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const TraceEvent& event : events_) {
    if (event.name == name) return true;
  }
  return false;
}

std::string Tracer::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginArray();
  for (const TraceEvent& event : events_) {
    w.BeginObject();
    w.Key("name").String(event.name);
    w.Key("ph").String("X");  // Complete event: ts + dur in microseconds.
    w.Key("ts").Uint(event.start_us);
    w.Key("dur").Uint(event.dur_us);
    w.Key("pid").Uint(1);
    w.Key("tid").Uint(1);
    w.Key("args").BeginObject().Key("depth").Uint(event.depth).EndObject();
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, ToChromeTraceJson());
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

#else  // PPM_OBS_DISABLED

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, "[]");
}

#endif  // PPM_OBS_DISABLED

}  // namespace ppm::obs
