#ifndef PPM_STREAM_CHECKPOINT_H_
#define PPM_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/continuous_miner.h"
#include "tsdb/symbol_table.h"
#include "tsdb/wal.h"
#include "util/status.h"

namespace ppm::stream {

/// Versioned, CRC-framed checkpoint of a continuous miner,
/// the other half of crash-safe streaming (docs/ROBUSTNESS.md "Crash
/// recovery"):
///
///   magic        8 bytes   "PPMCKP1\n"
///   state_len    u64       bytes in the state block
///   state_crc    u32       CRC32C of the state block
///   state block  state_len bytes (see docs/FILE_FORMATS.md)
///
/// Checkpoints are written atomically (tmp -> fsync -> rename -> dir fsync
/// via `fsutil::AtomicWriteFile`), so the last good checkpoint survives any
/// failed write. Recovery = load checkpoint + replay the WAL tail from the
/// checkpoint's instant cursor; the protocol keeps the invariant that the
/// checkpoint is never ahead of the durable WAL.
inline constexpr char kCheckpointMagic[8] = {'P', 'P', 'M', 'C',
                                             'K', 'P', '1', '\n'};

/// Current state-block version. Version 2 added the sliding-window
/// eviction state (`window_segments` + retained segment masks); version-1
/// blocks are still read, decoding as whole-history (no window) state.
inline constexpr uint32_t kCheckpointVersion = 2;

/// Canonical file names inside a checkpoint directory.
std::string CheckpointPath(const std::string& dir);
std::string WalPath(const std::string& dir);

/// Everything a checkpoint file stores: the mining configuration the
/// stream was started with, the symbol names interned so far, and the full
/// miner state.
struct CheckpointData {
  uint32_t period = 0;
  double min_confidence = 0.0;
  uint64_t min_count = 0;
  uint32_t max_letters = 0;
  HitStoreKind hit_store = HitStoreKind::kMaxSubpatternTree;
  std::vector<std::string> symbols;
  ContinuousMinerState state;
};

/// Serializes `miner` + `symbols` and atomically replaces the checkpoint
/// in `dir`. On any failure the previous checkpoint is untouched.
Status WriteCheckpoint(const ContinuousMiner& miner,
                       const tsdb::SymbolTable& symbols,
                       const std::string& dir);

/// Reads and fully validates a checkpoint file. `NotFound` when absent;
/// any framing, CRC, bounds, or trailing-byte problem is `kCorruption`.
Result<CheckpointData> ReadCheckpoint(const std::string& path);

/// Rebuilds a continuous miner from checkpoint data. `runtime` supplies
/// the non-serialized runtime knobs (cancellation, deadline, budget, and
/// the compaction cadence); the serialized configuration wins for period,
/// thresholds, hit store, and window so a resumed stream mines exactly
/// like the original.
Result<std::unique_ptr<ContinuousMiner>> RestoreContinuousMiner(
    const CheckpointData& data, const MiningOptions& runtime,
    uint32_t compact_every = 0);

/// Result of `RecoverContinuousStream`: the restored-and-caught-up miner,
/// the symbol names at checkpoint time, and what the WAL replay found.
struct RecoveredContinuousStream {
  std::unique_ptr<ContinuousMiner> miner;
  std::vector<std::string> symbols;
  tsdb::WalReplayInfo wal;
};

/// Full crash recovery for the checkpoint directory `dir`: load the
/// checkpoint, restore the miner, and replay the WAL tail (records at or
/// past the checkpoint's instant cursor) into it. `NotFound` when no
/// checkpoint exists; a WAL missing or durably behind the checkpoint is
/// `kCorruption` (the protocol syncs the WAL before every checkpoint).
Result<RecoveredContinuousStream> RecoverContinuousStream(
    const std::string& dir, const MiningOptions& runtime,
    uint32_t compact_every = 0);

/// The checkpoint barrier: syncs `wal` (so every instant the checkpoint
/// covers is durable first) and then atomically writes the checkpoint.
Status CheckpointStream(const ContinuousMiner& miner, tsdb::WalWriter& wal,
                        const tsdb::SymbolTable& symbols,
                        const std::string& dir);

}  // namespace ppm::stream

#endif  // PPM_STREAM_CHECKPOINT_H_
