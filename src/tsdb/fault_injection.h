#ifndef PPM_TSDB_FAULT_INJECTION_H_
#define PPM_TSDB_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <streambuf>
#include <string>

#include "util/status.h"

namespace ppm::tsdb {

/// A deterministic, seed-driven description of the storage faults to
/// inject. All faults are keyed on absolute byte offsets, so the same plan
/// against the same file corrupts the same bytes on every scan -- the
/// injected world looks like one consistently damaged disk, not random
/// noise per read.
struct FaultPlan {
  /// Seed for the offset hash; also the "on" switch in `ScopedFaultInjection`
  /// convenience constructors (a default plan injects nothing).
  uint64_t seed = 0;
  /// Probability (0..1) that any given payload byte is delivered with one
  /// bit flipped. Which byte and which bit are functions of (seed, offset).
  double bit_flip_rate = 0.0;
  /// When nonzero, every read at or past this absolute offset fails as if
  /// the file were truncated (a short read / EIO).
  uint64_t fail_reads_at_offset = 0;
  /// Number of times an open/read is failed with a *transient* I/O error
  /// before succeeding (consumed by `ConsumeTransientReadFailure`).
  uint32_t transient_read_failures = 0;
  /// When true, `FsyncShouldFail` reports one fsync failure per call site
  /// attempt (consumed like the transient failures, but never exhausted).
  bool fail_fsync = false;
  /// When nonzero, the Nth WAL append after arming crashes the process
  /// mid-frame (half the record written, no fsync) -- a deterministic
  /// SIGKILL-at-a-write-site for crash-recovery tests and the CI smoke.
  uint32_t crash_after_wal_appends = 0;
};

/// Process-global fault-injection seam for the storage layer. Disarmed (the
/// default) it costs one relaxed atomic load per open; tests arm it via
/// `ScopedFaultInjection` to exercise the error paths of `series_codec`,
/// `FileSeriesSource`, and `Database` deterministically.
class FaultInjector {
 public:
  static FaultInjector& Global();

  void Arm(const FaultPlan& plan);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// When armed with read faults, wraps `inner` in a fault-injecting
  /// streambuf (caller keeps `inner` alive); returns nullptr when nothing
  /// would be injected so callers can use `inner` directly.
  std::unique_ptr<std::streambuf> MaybeWrap(std::streambuf* inner);

  /// True when this open/read attempt should fail with a transient I/O
  /// error (decrements the armed plan's budget; increments
  /// `ppm.fault.injected`).
  bool ConsumeTransientReadFailure();

  /// True when an fsync at a durability point should report failure.
  bool FsyncShouldFail();

  /// True exactly once: on the `crash_after_wal_appends`-th WAL append
  /// since arming. The WAL writer reacts by writing a torn half-frame and
  /// calling `std::_Exit`, mimicking a kill mid-write.
  bool ConsumeWalAppendCrash();

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::atomic<uint32_t> transient_remaining_{0};
  std::atomic<uint32_t> wal_crash_countdown_{0};
};

/// Reads the whole file at `path` through the global injector, the one file
/// read of every storage reader (`.ppmts`, WAL, checkpoints). A pending
/// transient failure and an unopenable file are `kIoError`, a missing file
/// is `kNotFound`; armed bit flips and short reads shape the bytes returned.
Result<std::string> ReadFileWithFaults(const std::string& path);

/// RAII arm/disarm of the global injector for one test scope.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultPlan& plan) {
    FaultInjector::Global().Arm(plan);
  }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

/// A `std::streambuf` that reads through `inner`, flipping bits and cutting
/// reads short according to `plan`. Single-byte buffering keeps offsets
/// exact; seeks pass through so `FileSeriesSource` rescans still work.
class FaultInjectingStreamBuf : public std::streambuf {
 public:
  FaultInjectingStreamBuf(std::streambuf* inner, const FaultPlan& plan);

 protected:
  int_type underflow() override;
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;

 private:
  bool ShouldFlip(uint64_t offset, uint32_t* bit) const;

  std::streambuf* inner_;
  FaultPlan plan_;
  uint64_t offset_ = 0;  // Absolute offset of the next byte to deliver.
  char buffer_ = 0;
};

}  // namespace ppm::tsdb

#endif  // PPM_TSDB_FAULT_INJECTION_H_
