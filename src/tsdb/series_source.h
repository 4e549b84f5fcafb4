#ifndef PPM_TSDB_SERIES_SOURCE_H_
#define PPM_TSDB_SERIES_SOURCE_H_

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <streambuf>
#include <string>

#include "obs/metrics.h"
#include "tsdb/instant_codec.h"
#include "tsdb/symbol_table.h"
#include "tsdb/time_series.h"
#include "util/status.h"

namespace ppm::tsdb {

/// Accounting of how a miner touched the underlying series.
///
/// The paper's central efficiency claim is about the *number of scans over
/// the time series database*; every miner in this library reads its input
/// through a `SeriesSource`, so scan counts in benchmarks and tests are
/// measured, not asserted.
struct ScanStats {
  /// Number of times a full scan was started.
  uint64_t scans = 0;
  /// Total instants delivered across all scans.
  uint64_t instants_read = 0;
  /// Bytes read from storage (file-backed sources only).
  uint64_t bytes_read = 0;
};

/// Sequential, restartable access to a feature time series.
///
/// Usage follows the RocksDB iterator idiom:
///
///   PPM_RETURN_IF_ERROR(source.StartScan());
///   FeatureSet instant;
///   while (source.Next(&instant)) { ... }
///   PPM_RETURN_IF_ERROR(source.status());
class SeriesSource {
 public:
  virtual ~SeriesSource() = default;

  SeriesSource(const SeriesSource&) = delete;
  SeriesSource& operator=(const SeriesSource&) = delete;

  /// Positions the source at the first instant and increments the scan count.
  virtual Status StartScan() = 0;

  /// Fetches the next instant into `*out`. Returns false at end-of-series or
  /// on error; distinguish the two via `status()`.
  virtual bool Next(FeatureSet* out) = 0;

  /// Error state of the current scan; OK at a clean end-of-series.
  virtual Status status() const = 0;

  /// Number of instants in the series.
  virtual uint64_t length() const = 0;

  /// Symbol table naming the series' features.
  virtual const SymbolTable& symbols() const = 0;

  const ScanStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ScanStats(); }

 protected:
  SeriesSource();

  ScanStats stats_;
  // Process-global mirrors of `stats_` (`ppm.source.*`), so run reports see
  // series traffic without threading the source through every layer.
  obs::Counter scans_counter_;
  obs::Counter instants_counter_;
  obs::Counter bytes_counter_;
};

/// Zero-copy source over an in-memory `TimeSeries` (not owned; the series
/// must outlive the source).
class InMemorySeriesSource : public SeriesSource {
 public:
  explicit InMemorySeriesSource(const TimeSeries* series);

  Status StartScan() override;
  bool Next(FeatureSet* out) override;
  Status status() const override { return Status::OK(); }
  uint64_t length() const override;
  const SymbolTable& symbols() const override;

 private:
  const TimeSeries* series_;
  uint64_t position_ = 0;
};

/// Streaming source over a binary series file written by
/// `WriteBinarySeries`. Each `StartScan` re-reads the file from the start of
/// the instant data, so `stats().bytes_read` reflects true re-scan cost.
/// Instants are decoded from a refill buffer of bounded size: it grows past
/// its initial 64 KiB only to hold one header or instant that is larger.
///
/// v3 files are integrity-checked once at `Open` (header and payload CRCs,
/// one extra sequential pass over the payload); scans then stream the
/// verified region without recomputing checksums.
class FileSeriesSource : public SeriesSource {
 public:
  /// Opens `path`, validates the header, and loads the symbol table.
  static Result<std::unique_ptr<FileSeriesSource>> Open(const std::string& path);

  Status StartScan() override;
  bool Next(FeatureSet* out) override;
  Status status() const override { return status_; }
  uint64_t length() const override { return num_instants_; }
  const SymbolTable& symbols() const override { return symbols_; }

 private:
  FileSeriesSource() : stream_(nullptr) {}

  /// Positions the buffer at file offset `offset`, reading no further than
  /// `end`.
  Status Seek(uint64_t offset, uint64_t end);
  /// Runs `decode` on the buffered bytes. When it fails for want of bytes
  /// and the region has more, refills and retries; on success consumes
  /// what it read and returns the byte count in `*used` (optional).
  template <typename Decode>
  Status DecodeBuffered(const Decode& decode, uint64_t* used = nullptr);

  std::string path_;
  std::ifstream file_;
  // Reads go through `stream_`, whose buffer is either the file's own or a
  // fault-injecting wrapper around it (tests); `fault_buf_` owns the latter.
  std::unique_ptr<std::streambuf> fault_buf_;
  std::istream stream_;
  SymbolTable symbols_;
  uint64_t num_instants_ = 0;
  InstantEncoding encoding_ = InstantEncoding::kFixed32;
  uint64_t data_offset_ = 0;
  uint64_t data_end_ = 0;  // End of the instant data (v3) or UINT64_MAX.
  // buffer_[begin_, end_) holds the file bytes ending at offset `read_pos_`.
  std::string buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
  uint64_t read_pos_ = 0;
  uint64_t region_end_ = 0;
  bool drained_ = false;  // The region (or the file) has no more bytes.
  uint64_t delivered_ = 0;
  Status status_;
};

}  // namespace ppm::tsdb

#endif  // PPM_TSDB_SERIES_SOURCE_H_
