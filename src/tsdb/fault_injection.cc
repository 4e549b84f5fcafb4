#include "tsdb/fault_injection.h"

#include <filesystem>
#include <fstream>

#include "obs/metrics.h"

namespace ppm::tsdb {

namespace {

/// SplitMix64: a cheap, well-distributed hash of (seed, offset). The same
/// pair always yields the same value, which is what makes injected faults
/// reproducible.
uint64_t Mix(uint64_t seed, uint64_t offset) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (offset + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void RecordInjectedFault() {
  obs::MetricsRegistry::Global().GetCounter("ppm.fault.injected").Inc();
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  transient_remaining_.store(plan.transient_read_failures,
                             std::memory_order_relaxed);
  wal_crash_countdown_.store(plan.crash_after_wal_appends,
                             std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  plan_ = FaultPlan();
  transient_remaining_.store(0, std::memory_order_relaxed);
  wal_crash_countdown_.store(0, std::memory_order_relaxed);
}

std::unique_ptr<std::streambuf> FaultInjector::MaybeWrap(
    std::streambuf* inner) {
  if (!armed()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_.bit_flip_rate <= 0.0 && plan_.fail_reads_at_offset == 0) {
    return nullptr;
  }
  return std::make_unique<FaultInjectingStreamBuf>(inner, plan_);
}

bool FaultInjector::ConsumeTransientReadFailure() {
  if (!armed()) return false;
  uint32_t remaining = transient_remaining_.load(std::memory_order_relaxed);
  while (remaining > 0) {
    if (transient_remaining_.compare_exchange_weak(
            remaining, remaining - 1, std::memory_order_relaxed)) {
      RecordInjectedFault();
      return true;
    }
  }
  return false;
}

bool FaultInjector::ConsumeWalAppendCrash() {
  if (!armed()) return false;
  uint32_t remaining = wal_crash_countdown_.load(std::memory_order_relaxed);
  while (remaining > 0) {
    if (wal_crash_countdown_.compare_exchange_weak(
            remaining, remaining - 1, std::memory_order_relaxed)) {
      if (remaining == 1) {
        RecordInjectedFault();
        return true;
      }
      return false;
    }
  }
  return false;
}

bool FaultInjector::FsyncShouldFail() {
  if (!armed()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!plan_.fail_fsync) return false;
  RecordInjectedFault();
  return true;
}

Result<std::string> ReadFileWithFaults(const std::string& path) {
  FaultInjector& injector = FaultInjector::Global();
  if (injector.ConsumeTransientReadFailure()) {
    return Status::IoError("injected transient read failure: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  std::error_code ec;
  if (!in) {
    if (!std::filesystem::exists(path, ec)) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IoError("cannot open for read: " + path);
  }
  const std::unique_ptr<std::streambuf> wrapped =
      injector.MaybeWrap(in.rdbuf());
  std::streambuf* source = wrapped != nullptr ? wrapped.get() : in.rdbuf();
  // Sized to the file plus one byte, so one read normally drains it and the
  // short second read proves the end; a file that grew meanwhile doubles.
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::string contents(ec ? 4096 : static_cast<size_t>(size) + 1, '\0');
  size_t used = 0;
  while (true) {
    const auto want = static_cast<std::streamsize>(contents.size() - used);
    used += static_cast<size_t>(source->sgetn(contents.data() + used, want));
    if (used < contents.size()) break;
    contents.resize(contents.size() * 2);
  }
  contents.resize(used);
  return contents;
}

FaultInjectingStreamBuf::FaultInjectingStreamBuf(std::streambuf* inner,
                                                 const FaultPlan& plan)
    : inner_(inner), plan_(plan) {
  setg(&buffer_, &buffer_ + 1, &buffer_ + 1);  // Empty: force underflow.
}

bool FaultInjectingStreamBuf::ShouldFlip(uint64_t offset,
                                         uint32_t* bit) const {
  if (plan_.bit_flip_rate <= 0.0) return false;
  const uint64_t hash = Mix(plan_.seed, offset);
  // Top 53 bits as a uniform double in [0, 1).
  const double draw =
      static_cast<double>(hash >> 11) * (1.0 / 9007199254740992.0);
  if (draw >= plan_.bit_flip_rate) return false;
  *bit = static_cast<uint32_t>(hash & 7);
  return true;
}

std::streambuf::int_type FaultInjectingStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (plan_.fail_reads_at_offset != 0 &&
      offset_ >= plan_.fail_reads_at_offset) {
    RecordInjectedFault();
    return traits_type::eof();  // Short read: the file "ends" here.
  }
  const int_type c = inner_->sbumpc();
  if (traits_type::eq_int_type(c, traits_type::eof())) {
    return traits_type::eof();
  }
  char delivered = traits_type::to_char_type(c);
  uint32_t bit = 0;
  if (ShouldFlip(offset_, &bit)) {
    delivered = static_cast<char>(
        static_cast<unsigned char>(delivered) ^ (1u << bit));
    RecordInjectedFault();
  }
  ++offset_;
  buffer_ = delivered;
  setg(&buffer_, &buffer_, &buffer_ + 1);
  return traits_type::to_int_type(buffer_);
}

std::streambuf::pos_type FaultInjectingStreamBuf::seekoff(
    off_type off, std::ios_base::seekdir dir, std::ios_base::openmode which) {
  // `cur`-relative seeks must account for the one byte buffered here but
  // not yet consumed from the caller's point of view.
  if (dir == std::ios_base::cur && gptr() < egptr()) {
    off -= static_cast<off_type>(egptr() - gptr());
  }
  const pos_type pos = inner_->pubseekoff(off, dir, which);
  if (pos != pos_type(off_type(-1))) {
    offset_ = static_cast<uint64_t>(static_cast<off_type>(pos));
    setg(&buffer_, &buffer_ + 1, &buffer_ + 1);  // Drop the stale byte.
  }
  return pos;
}

std::streambuf::pos_type FaultInjectingStreamBuf::seekpos(
    pos_type pos, std::ios_base::openmode which) {
  const pos_type result = inner_->pubseekpos(pos, which);
  if (result != pos_type(off_type(-1))) {
    offset_ = static_cast<uint64_t>(static_cast<off_type>(result));
    setg(&buffer_, &buffer_ + 1, &buffer_ + 1);
  }
  return result;
}

}  // namespace ppm::tsdb
