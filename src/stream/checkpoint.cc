#include "stream/checkpoint.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "tsdb/fault_injection.h"
#include "util/bytes.h"
#include "util/frame.h"
#include "util/fs.h"

namespace ppm::stream {

namespace {

using bytes::PutF64;
using bytes::PutString;
using bytes::PutU32;
using bytes::PutU64;

/// Caps on decoded collection sizes, checked before any allocation.
constexpr uint32_t kMaxSymbols = 1u << 24;
constexpr uint32_t kMaxSymbolNameBytes = 1u << 20;
constexpr uint32_t kMaxLetters = 1u << 24;

std::string EncodeState(const CheckpointData& data) {
  const StreamingMinerState& state = data.state.core;
  std::string out;
  PutU32(&out, kCheckpointVersion);
  PutU32(&out, data.period);
  PutF64(&out, data.min_confidence);
  PutU64(&out, data.min_count);
  PutU32(&out, data.max_letters);
  PutU32(&out, static_cast<uint32_t>(data.hit_store));
  PutU32(&out, state.drift_window);
  PutU32(&out, data.state.window_segments);  // v2
  PutU64(&out, state.instants_seen);
  PutU64(&out, state.segments_committed);
  PutU32(&out, static_cast<uint32_t>(data.symbols.size()));
  for (const std::string& name : data.symbols) PutString(&out, name);
  PutU32(&out, static_cast<uint32_t>(state.letters.size()));
  for (const Letter& letter : state.letters) {
    PutU32(&out, letter.position);
    PutU32(&out, letter.feature);
  }
  for (const uint64_t count : state.seeded_counts) PutU64(&out, count);
  for (const auto& row : state.other_counts) {
    PutU32(&out, static_cast<uint32_t>(row.size()));
    for (const auto& [feature, count] : row) {
      PutU32(&out, feature);
      PutU64(&out, count);
    }
  }
  PutU32(&out, static_cast<uint32_t>(state.window_history.size()));
  for (const std::vector<Letter>& segment : state.window_history) {
    PutU32(&out, static_cast<uint32_t>(segment.size()));
    for (const Letter& letter : segment) {
      PutU32(&out, letter.position);
      PutU32(&out, letter.feature);
    }
  }
  PutU32(&out, state.segment_position);
  PutU32(&out, static_cast<uint32_t>(state.segment_mask.size()));
  for (const uint32_t index : state.segment_mask) PutU32(&out, index);
  PutU32(&out, static_cast<uint32_t>(state.pending_other.size()));
  for (const Letter& letter : state.pending_other) {
    PutU32(&out, letter.position);
    PutU32(&out, letter.feature);
  }
  // v2: the retained window masks, oldest first, right before the hits so
  // a decoder can cross-check both against each other.
  PutU32(&out, static_cast<uint32_t>(data.state.window_masks.size()));
  for (const std::vector<uint32_t>& mask : data.state.window_masks) {
    PutU32(&out, static_cast<uint32_t>(mask.size()));
    for (const uint32_t index : mask) PutU32(&out, index);
  }
  PutU64(&out, static_cast<uint64_t>(state.hits.size()));
  for (const auto& [mask_bits, count] : state.hits) {
    PutU32(&out, static_cast<uint32_t>(mask_bits.size()));
    for (const uint32_t index : mask_bits) PutU32(&out, index);
    PutU64(&out, count);
  }
  return out;
}

Result<CheckpointData> DecodeState(std::string_view block) {
  const auto corrupt = [](const std::string& what) {
    return Status::Corruption("checkpoint: " + what);
  };
  bytes::ByteReader cursor(block);
  CheckpointData data;
  uint32_t version = 0;
  if (!cursor.ReadU32(&version)) return corrupt("truncated version");
  // Version 1 predates the sliding window: identical layout minus the
  // `window_segments` field and the window-mask array, and decodes as
  // whole-history state.
  if (version != 1 && version != kCheckpointVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }
  uint32_t hit_store = 0;
  if (!cursor.ReadU32(&data.period) || !cursor.ReadF64(&data.min_confidence) ||
      !cursor.ReadU64(&data.min_count) || !cursor.ReadU32(&data.max_letters) ||
      !cursor.ReadU32(&hit_store)) {
    return corrupt("truncated configuration");
  }
  if (!std::isfinite(data.min_confidence)) {
    return corrupt("non-finite confidence threshold");
  }
  if (hit_store > 1) return corrupt("unknown hit store kind");
  data.hit_store = static_cast<HitStoreKind>(hit_store);

  StreamingMinerState& state = data.state.core;
  if (!cursor.ReadU32(&state.drift_window)) {
    return corrupt("truncated cursor state");
  }
  if (version >= 2 && !cursor.ReadU32(&data.state.window_segments)) {
    return corrupt("truncated window size");
  }
  if (!cursor.ReadU64(&state.instants_seen) ||
      !cursor.ReadU64(&state.segments_committed)) {
    return corrupt("truncated cursor state");
  }

  uint32_t num_symbols = 0;
  if (!cursor.ReadU32(&num_symbols)) return corrupt("truncated symbol count");
  if (num_symbols > kMaxSymbols) return corrupt("implausible symbol count");
  data.symbols.reserve(std::min<size_t>(num_symbols, cursor.remaining() / 4));
  for (uint32_t i = 0; i < num_symbols; ++i) {
    std::string name;
    if (!cursor.ReadString(&name, kMaxSymbolNameBytes)) {
      return corrupt(cursor.short_read() ? "truncated symbol"
                                         : "implausible symbol length");
    }
    data.symbols.push_back(std::move(name));
  }

  uint32_t num_letters = 0;
  if (!cursor.ReadU32(&num_letters)) return corrupt("truncated letter count");
  if (num_letters > kMaxLetters) return corrupt("implausible letter count");
  if (cursor.remaining() / 8 < num_letters) {
    return corrupt("truncated letters");
  }
  state.letters.reserve(num_letters);
  for (uint32_t i = 0; i < num_letters; ++i) {
    Letter letter;
    cursor.ReadU32(&letter.position);
    cursor.ReadU32(&letter.feature);
    state.letters.push_back(letter);
  }
  if (cursor.remaining() / 8 < num_letters) {
    return corrupt("truncated seeded counts");
  }
  state.seeded_counts.resize(num_letters);
  for (uint32_t i = 0; i < num_letters; ++i) {
    cursor.ReadU64(&state.seeded_counts[i]);
  }

  if (data.period > kMaxLetters) return corrupt("implausible period");
  state.other_counts.resize(data.period);
  for (uint32_t position = 0; position < data.period; ++position) {
    uint32_t row_size = 0;
    if (!cursor.ReadU32(&row_size)) return corrupt("truncated other counts");
    if (cursor.remaining() / 12 < row_size) {
      return corrupt("truncated other counts");
    }
    auto& row = state.other_counts[position];
    row.reserve(row_size);
    for (uint32_t i = 0; i < row_size; ++i) {
      uint32_t feature = 0;
      uint64_t count = 0;
      cursor.ReadU32(&feature);
      cursor.ReadU64(&count);
      row.emplace_back(feature, count);
    }
  }

  uint32_t history_size = 0;
  if (!cursor.ReadU32(&history_size)) return corrupt("truncated history count");
  if (cursor.remaining() / 4 < history_size) {
    return corrupt("implausible history count");
  }
  state.window_history.resize(history_size);
  for (uint32_t h = 0; h < history_size; ++h) {
    uint32_t segment_size = 0;
    if (!cursor.ReadU32(&segment_size)) return corrupt("truncated history");
    if (cursor.remaining() / 8 < segment_size) {
      return corrupt("truncated history segment");
    }
    auto& segment = state.window_history[h];
    segment.reserve(segment_size);
    for (uint32_t i = 0; i < segment_size; ++i) {
      Letter letter;
      cursor.ReadU32(&letter.position);
      cursor.ReadU32(&letter.feature);
      segment.push_back(letter);
    }
  }

  if (!cursor.ReadU32(&state.segment_position)) {
    return corrupt("truncated segment position");
  }
  uint32_t mask_size = 0;
  if (!cursor.ReadU32(&mask_size)) return corrupt("truncated mask count");
  if (cursor.remaining() / 4 < mask_size) return corrupt("truncated mask");
  state.segment_mask.reserve(mask_size);
  for (uint32_t i = 0; i < mask_size; ++i) {
    uint32_t index = 0;
    cursor.ReadU32(&index);
    state.segment_mask.push_back(index);
  }
  uint32_t pending_size = 0;
  if (!cursor.ReadU32(&pending_size)) return corrupt("truncated pending count");
  if (cursor.remaining() / 8 < pending_size) {
    return corrupt("truncated pending letters");
  }
  state.pending_other.reserve(pending_size);
  for (uint32_t i = 0; i < pending_size; ++i) {
    Letter letter;
    cursor.ReadU32(&letter.position);
    cursor.ReadU32(&letter.feature);
    state.pending_other.push_back(letter);
  }

  if (version >= 2) {
    uint32_t num_masks = 0;
    if (!cursor.ReadU32(&num_masks)) {
      return corrupt("truncated window mask count");
    }
    if (cursor.remaining() / 4 < num_masks) {
      return corrupt("implausible window mask count");
    }
    data.state.window_masks.resize(num_masks);
    for (uint32_t w = 0; w < num_masks; ++w) {
      uint32_t bits = 0;
      if (!cursor.ReadU32(&bits)) return corrupt("truncated window mask");
      if (cursor.remaining() / 4 < bits) {
        return corrupt("truncated window mask");
      }
      auto& mask = data.state.window_masks[w];
      mask.reserve(bits);
      for (uint32_t i = 0; i < bits; ++i) {
        uint32_t index = 0;
        cursor.ReadU32(&index);
        mask.push_back(index);
      }
    }
  }

  uint64_t num_hits = 0;
  if (!cursor.ReadU64(&num_hits)) return corrupt("truncated hit count");
  if (cursor.remaining() / 12 < num_hits) return corrupt("implausible hit count");
  state.hits.reserve(num_hits);
  for (uint64_t h = 0; h < num_hits; ++h) {
    uint32_t bits = 0;
    if (!cursor.ReadU32(&bits)) return corrupt("truncated hit mask");
    if (cursor.remaining() / 4 < bits) return corrupt("truncated hit mask");
    std::vector<uint32_t> mask_bits;
    mask_bits.reserve(bits);
    for (uint32_t i = 0; i < bits; ++i) {
      uint32_t index = 0;
      cursor.ReadU32(&index);
      mask_bits.push_back(index);
    }
    uint64_t count = 0;
    if (!cursor.ReadU64(&count)) return corrupt("truncated hit count value");
    state.hits.emplace_back(std::move(mask_bits), count);
  }

  if (!cursor.exhausted()) return corrupt("trailing bytes in state block");
  return data;
}

/// Durability hook honoring the fault-injection seam, like the manifest's.
Status SyncPath(const std::string& path) {
  if (tsdb::FaultInjector::Global().FsyncShouldFail()) {
    return Status::IoError("injected fsync failure: " + path);
  }
  return fsutil::FsyncPath(path);
}

Status WriteCheckpointData(const CheckpointData& data, const std::string& dir) {
  const std::string bytes =
      frame::EncodeFile(kCheckpointMagic, EncodeState(data));

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const Status written =
      fsutil::AtomicWriteFile(CheckpointPath(dir), bytes, SyncPath);
  if (!written.ok()) {
    metrics.GetCounter("ppm.stream.checkpoint.failures").Inc();
    return written;
  }
  metrics.GetCounter("ppm.stream.checkpoint.writes").Inc();
  metrics.GetCounter("ppm.stream.checkpoint.bytes").Inc(bytes.size());
  return Status::OK();
}

CheckpointData ConfigOf(const MiningOptions& options,
                        const tsdb::SymbolTable& symbols) {
  CheckpointData data;
  data.period = options.period;
  data.min_confidence = options.min_confidence;
  data.min_count = options.min_count;
  data.max_letters = options.max_letters;
  data.hit_store = options.hit_store;
  data.symbols = symbols.names();
  return data;
}

/// The shared recovery tail: replay every WAL record at or past the
/// checkpoint's instant cursor into `miner`. Works for either miner type
/// (both expose `Append` and `instants_seen`).
template <typename Miner>
Result<tsdb::WalReplayInfo> ReplayWalTail(const std::string& dir,
                                          Miner& miner) {
  const uint64_t checkpoint_instants = miner.instants_seen();
  auto replayed = tsdb::ReplayWal(
      WalPath(dir), checkpoint_instants,
      [&miner](uint64_t, const tsdb::FeatureSet& instant) {
        miner.Append(instant);
        return Status::OK();
      });
  if (!replayed.ok()) {
    if (replayed.status().code() == StatusCode::kNotFound) {
      if (checkpoint_instants > 0) {
        // The protocol syncs the WAL before every checkpoint; a checkpoint
        // with history but no log means the log was lost.
        return Status::Corruption("checkpoint covers " +
                                  std::to_string(checkpoint_instants) +
                                  " instants but the WAL is missing");
      }
      return tsdb::WalReplayInfo{};  // Fresh directory: nothing logged yet.
    }
    return replayed.status();
  }
  if (replayed->next_seq < checkpoint_instants) {
    return Status::Corruption(
        "checkpoint ahead of the durable WAL: checkpoint covers " +
        std::to_string(checkpoint_instants) + " instants, WAL holds " +
        std::to_string(replayed->next_seq));
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("ppm.stream.recovery.wal_records_replayed")
      .Inc(replayed->records_delivered);
  if (replayed->torn_tail) {
    metrics.GetCounter("ppm.stream.recovery.torn_tails").Inc();
  }
  return *replayed;
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.ppmckp";
}

std::string WalPath(const std::string& dir) { return dir + "/wal.ppmwal"; }

Status WriteCheckpoint(const ContinuousMiner& miner,
                       const tsdb::SymbolTable& symbols,
                       const std::string& dir) {
  CheckpointData data = ConfigOf(miner.options(), symbols);
  data.state = miner.ExportState();
  return WriteCheckpointData(data, dir);
}

Status WriteCheckpoint(const StreamingMiner& miner,
                       const tsdb::SymbolTable& symbols,
                       const std::string& dir) {
  CheckpointData data = ConfigOf(miner.options(), symbols);
  data.state.core = miner.ExportState();
  return WriteCheckpointData(data, dir);
}

Result<CheckpointData> ReadCheckpoint(const std::string& path) {
  PPM_ASSIGN_OR_RETURN(const std::string file, tsdb::ReadFileWithFaults(path));
  PPM_ASSIGN_OR_RETURN(const std::string_view block,
                       frame::DecodeFile(file, kCheckpointMagic,
                                         "checkpoint " + path));
  return DecodeState(block);
}

Result<std::unique_ptr<ContinuousMiner>> RestoreContinuousMiner(
    const CheckpointData& data, const MiningOptions& runtime,
    uint32_t compact_every) {
  MiningOptions options = runtime;
  options.period = data.period;
  options.min_confidence = data.min_confidence;
  options.min_count = data.min_count;
  options.max_letters = data.max_letters;
  options.hit_store = data.hit_store;
  // The restored miner is a single-threaded consumer; parallel knobs from
  // the runtime options don't apply to streaming appends.
  options.num_threads = 1;
  return ContinuousMiner::Restore(options, data.state, compact_every);
}

Result<std::unique_ptr<StreamingMiner>> RestoreMiner(
    const CheckpointData& data, const MiningOptions& runtime) {
  if (data.state.window_segments != 0) {
    return Status::Corruption(
        "checkpoint carries a pattern window of " +
        std::to_string(data.state.window_segments) +
        " segments; resume it as a continuous stream");
  }
  MiningOptions options = runtime;
  options.period = data.period;
  options.min_confidence = data.min_confidence;
  options.min_count = data.min_count;
  options.max_letters = data.max_letters;
  options.hit_store = data.hit_store;
  options.num_threads = 1;
  return StreamingMiner::Restore(options, data.state.core);
}

Result<RecoveredContinuousStream> RecoverContinuousStream(
    const std::string& dir, const MiningOptions& runtime,
    uint32_t compact_every) {
  obs::MetricsRegistry::Global()
      .GetCounter("ppm.stream.recovery.attempts")
      .Inc();
  PPM_ASSIGN_OR_RETURN(const CheckpointData data,
                       ReadCheckpoint(CheckpointPath(dir)));
  RecoveredContinuousStream recovered;
  recovered.symbols = data.symbols;
  PPM_ASSIGN_OR_RETURN(recovered.miner,
                       RestoreContinuousMiner(data, runtime, compact_every));
  PPM_ASSIGN_OR_RETURN(recovered.wal, ReplayWalTail(dir, *recovered.miner));
  return recovered;
}

Result<RecoveredStream> RecoverStream(const std::string& dir,
                                      const MiningOptions& runtime) {
  obs::MetricsRegistry::Global()
      .GetCounter("ppm.stream.recovery.attempts")
      .Inc();
  PPM_ASSIGN_OR_RETURN(const CheckpointData data,
                       ReadCheckpoint(CheckpointPath(dir)));
  RecoveredStream recovered;
  recovered.symbols = data.symbols;
  PPM_ASSIGN_OR_RETURN(recovered.miner, RestoreMiner(data, runtime));
  PPM_ASSIGN_OR_RETURN(recovered.wal, ReplayWalTail(dir, *recovered.miner));
  return recovered;
}

Status CheckpointStream(const ContinuousMiner& miner, tsdb::WalWriter& wal,
                        const tsdb::SymbolTable& symbols,
                        const std::string& dir) {
  // WAL first: the checkpoint must never claim instants the log could
  // still lose (recovery treats that as corruption).
  PPM_RETURN_IF_ERROR(wal.Sync());
  return WriteCheckpoint(miner, symbols, dir);
}

Status CheckpointStream(const StreamingMiner& miner, tsdb::WalWriter& wal,
                        const tsdb::SymbolTable& symbols,
                        const std::string& dir) {
  PPM_RETURN_IF_ERROR(wal.Sync());
  return WriteCheckpoint(miner, symbols, dir);
}

}  // namespace ppm::stream
