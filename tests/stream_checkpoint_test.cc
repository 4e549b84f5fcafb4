// Checkpoint/restore for the continuous miner: export/restore determinism,
// the kill-point matrix (crash after every instant, recover, finish, and
// the final snapshot must be byte-identical to an uninterrupted run), the
// every-offset truncation + bit-flip harness over checkpoint files, and the
// last-good-checkpoint guarantee under injected fsync failures. Runs under
// ASan/TSan/UBSan in CI (scripts/ci.sh).

#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/hitset_miner.h"
#include "stream/continuous_miner.h"
#include "tsdb/fault_injection.h"
#include "tsdb/series_source.h"
#include "tsdb/wal.h"
#include "util/bytes.h"
#include "util/frame.h"
#include "util/random.h"

namespace ppm::stream {
namespace {

namespace fs = std::filesystem;
using tsdb::TimeSeries;

uint64_t FaultSeed() {
  const char* env = std::getenv("PPM_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

uint32_t BitForOffset(uint64_t seed, uint64_t offset) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (offset + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  return static_cast<uint32_t>((z ^ (z >> 27)) & 7);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TimeSeries MakeSeries(uint64_t length, uint64_t seed) {
  Rng rng(seed);
  TimeSeries series;
  series.symbols().Intern("a");
  series.symbols().Intern("b");
  series.symbols().Intern("c");
  for (uint64_t t = 0; t < length; ++t) {
    tsdb::FeatureSet instant;
    if (t % 4 == 0 && rng.NextBool(0.9)) instant.Set(0);
    if (t % 4 == 1 && rng.NextBool(0.85)) instant.Set(1);
    if (rng.NextBool(0.2)) instant.Set(2);
    series.Append(std::move(instant));
  }
  return series;
}

MiningOptions DefaultOptions() {
  MiningOptions options;
  options.period = 4;
  options.min_confidence = 0.7;
  return options;
}

/// Field-by-field equality of two exported states: the "byte-identical
/// checkpoint" guarantee without going through the codec.
void ExpectStatesEqual(const ContinuousMinerState& a,
                       const ContinuousMinerState& b) {
  EXPECT_EQ(a.drift_window, b.drift_window);
  EXPECT_EQ(a.window_segments, b.window_segments);
  EXPECT_EQ(a.letters, b.letters);
  EXPECT_EQ(a.seeded_counts, b.seeded_counts);
  EXPECT_EQ(a.other_counts, b.other_counts);
  EXPECT_EQ(a.window_history, b.window_history);
  EXPECT_EQ(a.pending_other, b.pending_other);
  EXPECT_EQ(a.segment_mask, b.segment_mask);
  EXPECT_EQ(a.segment_position, b.segment_position);
  EXPECT_EQ(a.instants_seen, b.instants_seen);
  EXPECT_EQ(a.segments_committed, b.segments_committed);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.window_masks, b.window_masks);
}

std::unique_ptr<ContinuousMiner> SeededContinuousMiner(
    const TimeSeries& series, uint64_t prefix_len,
    const ContinuousOptions& continuous) {
  TimeSeries prefix;
  prefix.symbols() = series.symbols();
  for (uint64_t t = 0; t < prefix_len; ++t) prefix.Append(series.at(t));
  auto miner =
      ContinuousMiner::SeedFromPrefix(DefaultOptions(), prefix, continuous);
  EXPECT_TRUE(miner.ok()) << miner.status();
  return std::move(*miner);
}

/// A whole-history miner (`window_segments = 0`) seeded from the first
/// `prefix_len` instants, with drift over `drift_window` segments.
std::unique_ptr<ContinuousMiner> SeededMiner(const TimeSeries& series,
                                             uint64_t prefix_len,
                                             uint32_t drift_window = 0) {
  ContinuousOptions continuous;
  continuous.drift_window = drift_window;
  return SeededContinuousMiner(series, prefix_len, continuous);
}

TEST(CheckpointStateTest, ExportRestoreRoundTripAtEveryCutKind) {
  const TimeSeries series = MakeSeries(1000, 5);
  // Cut right after seeding, mid-segment, at a segment boundary, and at a
  // checkpointed-then-grown point.
  for (const uint64_t cut : {200ull, 333ull, 600ull, 999ull}) {
    auto original = SeededMiner(series, 200, /*drift_window=*/6);
    for (uint64_t t = 200; t < cut; ++t) original->Append(series.at(t));

    const ContinuousMinerState state = original->ExportState();
    auto restored = ContinuousMiner::Restore(DefaultOptions(), state);
    ASSERT_TRUE(restored.ok()) << "cut " << cut << ": " << restored.status();
    ExpectStatesEqual((*restored)->ExportState(), state);

    // Both finish the stream; every observable must agree.
    for (uint64_t t = cut; t < series.length(); ++t) {
      original->Append(series.at(t));
      (*restored)->Append(series.at(t));
    }
    ExpectStatesEqual((*restored)->ExportState(), original->ExportState());
    EXPECT_EQ((*restored)->Snapshot().value().ToString(series.symbols()),
              original->Snapshot().value().ToString(series.symbols()));
    EXPECT_EQ((*restored)->DriftedLetters(), original->DriftedLetters());
  }
}

TEST(CheckpointStateTest, RestoreRejectsTamperedStates) {
  const TimeSeries series = MakeSeries(500, 9);
  auto miner = SeededMiner(series, 100, /*drift_window=*/4);
  for (uint64_t t = 100; t < 443; ++t) miner->Append(series.at(t));
  const ContinuousMinerState good = miner->ExportState();
  ASSERT_TRUE(ContinuousMiner::Restore(DefaultOptions(), good).ok());

  const auto expect_rejected = [&](ContinuousMinerState state,
                                   const char* what) {
    const auto restored = ContinuousMiner::Restore(DefaultOptions(), state);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption) << what;
  };

  {
    ContinuousMinerState state = good;
    state.seeded_counts[0] = state.segments_committed + 1;
    expect_rejected(std::move(state), "seeded count beyond segments");
  }
  {
    ContinuousMinerState state = good;
    state.instants_seen += 1;
    expect_rejected(std::move(state), "cursor arithmetic mismatch");
  }
  {
    ContinuousMinerState state = good;
    if (!state.hits.empty()) {
      state.hits[0].second = state.segments_committed + 7;
      expect_rejected(std::move(state), "hit count beyond segments");
    }
  }
  {
    ContinuousMinerState state = good;
    state.letters.push_back(Letter{0, 99});  // Not canonically sorted.
    expect_rejected(std::move(state), "non-canonical letters");
  }
  {
    ContinuousMinerState state = good;
    state.window_history.pop_back();  // Window no longer matches counts.
    expect_rejected(std::move(state), "window/horizon mismatch");
  }
}

// Every invariant of the v2 window state must be re-validated on restore:
// a state whose window masks cannot have produced its counts and hits is
// corruption, never a silently different miner.
TEST(CheckpointStateTest, ContinuousRestoreRejectsTamperedWindowStates) {
  const TimeSeries series = MakeSeries(500, 13);
  ContinuousOptions continuous;
  continuous.window_segments = 6;
  continuous.drift_window = 4;
  auto miner = SeededContinuousMiner(series, 100, continuous);
  for (uint64_t t = 100; t < 443; ++t) miner->Append(series.at(t));
  const ContinuousMinerState good = miner->ExportState();
  ASSERT_EQ(good.window_masks.size(), 6u);
  ASSERT_TRUE(ContinuousMiner::Restore(DefaultOptions(), good).ok());

  const auto expect_rejected = [&](ContinuousMinerState state,
                                   const char* what) {
    const auto restored = ContinuousMiner::Restore(DefaultOptions(), state);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption) << what;
  };

  {
    ContinuousMinerState state = good;
    state.window_segments = 0;  // Masks present without a window.
    expect_rejected(std::move(state), "masks without a window");
  }
  {
    ContinuousMinerState state = good;
    state.window_masks.pop_back();  // Fewer masks than the horizon.
    expect_rejected(std::move(state), "window mask count mismatch");
  }
  {
    ContinuousMinerState state = good;
    for (auto& mask : state.window_masks) {
      if (mask.size() >= 2) {
        std::swap(mask.front(), mask.back());  // Unsorted mask.
        expect_rejected(std::move(state), "unsorted window mask");
        break;
      }
    }
  }
  {
    ContinuousMinerState state = good;
    for (auto& mask : state.window_masks) {
      if (!mask.empty()) {
        mask.back() = static_cast<uint32_t>(good.letters.size());
        expect_rejected(std::move(state), "out-of-range letter index");
        break;
      }
    }
  }
  {
    ContinuousMinerState state = good;
    for (auto& mask : state.window_masks) {
      if (!mask.empty()) {
        mask.erase(mask.begin());  // Counts no longer re-aggregate.
        expect_rejected(std::move(state), "masks disagree with counts");
        break;
      }
    }
  }
  {
    // Keep the per-letter counts consistent but break the hit multiset:
    // move one letter from a >=2-letter mask into a disjoint mask. Every
    // letter is still counted once per original segment, so only the
    // masks-vs-hits cross-check can catch it.
    ContinuousMinerState state = good;
    bool mutated = false;
    for (size_t i = 0; i < state.window_masks.size() && !mutated; ++i) {
      auto& from = state.window_masks[i];
      if (from.size() < 2) continue;
      for (size_t j = 0; j < state.window_masks.size() && !mutated; ++j) {
        if (j == i) continue;
        auto& to = state.window_masks[j];
        const uint32_t moved = from.back();
        if (std::find(to.begin(), to.end(), moved) != to.end()) continue;
        from.pop_back();
        to.insert(std::upper_bound(to.begin(), to.end(), moved), moved);
        mutated = true;
      }
    }
    if (mutated) {
      expect_rejected(std::move(state), "masks disagree with hits");
    }
  }
}

TEST(CheckpointStateTest, ContinuousExportRestoreRoundTripsWithWindow) {
  const TimeSeries series = MakeSeries(900, 17);
  ContinuousOptions continuous;
  continuous.window_segments = 8;
  continuous.compact_every = 5;
  continuous.drift_window = 3;
  for (const uint64_t cut : {120ull, 357ull, 600ull, 899ull}) {
    auto original = SeededContinuousMiner(series, 120, continuous);
    for (uint64_t t = 120; t < cut; ++t) original->Append(series.at(t));

    const ContinuousMinerState state = original->ExportState();
    auto restored = ContinuousMiner::Restore(DefaultOptions(), state,
                                             continuous.compact_every);
    ASSERT_TRUE(restored.ok()) << "cut " << cut << ": " << restored.status();
    ExpectStatesEqual((*restored)->ExportState(), state);

    for (uint64_t t = cut; t < series.length(); ++t) {
      original->Append(series.at(t));
      (*restored)->Append(series.at(t));
    }
    ExpectStatesEqual((*restored)->ExportState(), original->ExportState());
    EXPECT_EQ((*restored)->Snapshot().value().ToString(series.symbols()),
              original->Snapshot().value().ToString(series.symbols()));
    EXPECT_EQ((*restored)->segments_evicted(), original->segments_evicted());
  }
}

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/stream_ckpt_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CheckpointDirTest, WriteReadCheckpointRoundTrip) {
  const TimeSeries series = MakeSeries(800, 11);
  auto miner = SeededMiner(series, 200, /*drift_window=*/5);
  for (uint64_t t = 200; t < 650; ++t) miner->Append(series.at(t));

  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->period, 4u);
  EXPECT_EQ(data->symbols, series.symbols().names());

  auto restored = RestoreContinuousMiner(*data, DefaultOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectStatesEqual((*restored)->ExportState(), miner->ExportState());
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

/// Seven instants at period 2 (symbols a, c, bb): three whole segments and
/// the first instant of a fourth.
TimeSeries VersionOneSeries() {
  TimeSeries series;
  series.AppendNamed({"a", "c"});
  series.AppendNamed({"bb"});
  series.AppendNamed({"a"});
  series.AppendNamed({"bb", "c"});
  series.AppendNamed({"a", "c"});
  series.AppendNamed({"bb"});
  series.AppendNamed({"a", "bb"});
  return series;
}

/// A version-1 checkpoint file, written field by field: the whole-history
/// stream of `VersionOneSeries()` seeded from its three whole segments at
/// min_confidence 0.5 with the vertical store. Version 1 predates the
/// sliding window, so it has no `window_segments` and no window masks.
std::string VersionOneCheckpoint() {
  return FromHex(
      "50504d434b50310a" "e000000000000000" "d543870b"  // magic, len, CRC
      "01000000"                                       // version 1
      "02000000" "000000000000e03f" "0000000000000000"  // period, conf, count
      "00000000" "01000000" "00000000"  // max_letters, hit store, drift
      "0700000000000000" "0300000000000000"  // instants, segments
      "03000000" "01000000" "61" "01000000" "63" "02000000" "6262"
      "03000000" "0000000000000000" "0000000001000000"  // letters (0,a)
      "0100000002000000"                                // (0,c) (1,bb)
      "0300000000000000" "0200000000000000" "0300000000000000"  // counts
      "00000000" "01000000" "01000000" "0100000000000000"  // other: (1,c)=1
      "00000000"                        // drift history
      "01000000" "01000000" "00000000"  // segment position, mask {0}
      "01000000" "00000000" "02000000"  // pending unseeded (0,bb)
      "0200000000000000"                // hits
      "03000000" "00000000" "01000000" "02000000" "0200000000000000"
      "02000000" "00000000" "02000000" "0100000000000000");
}

TEST_F(CheckpointDirTest, VersionOneCheckpointRestoresAsWholeHistory) {
  WriteBytes(CheckpointPath(dir_), VersionOneCheckpoint());
  const auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->symbols, (std::vector<std::string>{"a", "c", "bb"}));
  EXPECT_EQ(data->state.window_segments, 0u);
  auto restored = RestoreContinuousMiner(*data, MiningOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ContinuousMiner& miner = **restored;
  EXPECT_EQ(miner.window_segments(), 0u);
  EXPECT_EQ(miner.instants_seen(), 7u);

  // The snapshot equals a batch mine of the same whole segments, before and
  // after the restored in-flight segment completes.
  TimeSeries series = VersionOneSeries();
  MiningOptions batch_options;
  batch_options.period = 2;
  batch_options.min_confidence = 0.5;
  for (const bool complete_segment : {false, true}) {
    if (complete_segment) {
      series.AppendNamed({"bb"});
      miner.Append(series.at(7));
    }
    TimeSeries whole;
    whole.symbols() = series.symbols();
    for (uint64_t t = 0; t < series.length() / 2 * 2; ++t) {
      whole.Append(series.at(t));
    }
    tsdb::InMemorySeriesSource source(&whole);
    const auto batch = MineHitSet(source, batch_options);
    ASSERT_TRUE(batch.ok()) << batch.status();
    const MiningResult snapshot = miner.Snapshot().value();
    EXPECT_GT(snapshot.size(), 3u);
    EXPECT_EQ(snapshot.ToString(series.symbols()),
              batch->ToString(series.symbols()));
  }
}

// The drift counts are dense over feature ids, so every letter a checkpoint
// names must be an id of its own symbol table. `VersionOneCheckpoint()`'s
// state block carries the other count (1,c) at byte 132 and the pending
// letter (0,bb) at byte 168 of its 3-symbol table.
TEST_F(CheckpointDirTest, FeatureIdsBeyondTheSymbolTableAreCorruption) {
  const std::string body = VersionOneCheckpoint().substr(20);
  const auto feature_at = [&body](size_t offset, uint32_t feature) {
    std::string id;
    bytes::PutU32(&id, feature);
    std::string tampered = body;
    tampered.replace(offset, 4, id);
    return tampered;
  };
  ASSERT_EQ(feature_at(132, 1), body);  // (1,c): c is id 1.
  ASSERT_EQ(feature_at(168, 2), body);  // (0,bb): bb is id 2.

  for (const auto& [offset, feature] :
       std::vector<std::pair<size_t, uint32_t>>{{132, 4000000000u},
                                                {132, 3},
                                                {168, 3}}) {
    WriteBytes(CheckpointPath(dir_),
               frame::EncodeFile(kCheckpointMagic, feature_at(offset, feature)));
    const auto data = ReadCheckpoint(CheckpointPath(dir_));
    ASSERT_FALSE(data.ok()) << "byte " << offset << " = " << feature;
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption)
        << data.status();
  }

  // Data built in memory, without the codec, is held to the same rule.
  WriteBytes(CheckpointPath(dir_), VersionOneCheckpoint());
  auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data->state.other_counts[1].size(), 1u);
  data->state.other_counts[1][0].first = 4000000000u;
  const auto restored = RestoreContinuousMiner(*data, MiningOptions());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointDirTest, KillPointMatrixRecoversDeterministically) {
  const TimeSeries series = MakeSeries(400, 7);
  const uint64_t kPrefix = 100;
  const uint64_t kCheckpointEverySegments = 8;

  // The uninterrupted reference.
  auto reference = SeededMiner(series, kPrefix);
  for (uint64_t t = kPrefix; t < series.length(); ++t) {
    reference->Append(series.at(t));
  }
  const std::string ref_snapshot =
      reference->Snapshot().value().ToString(series.symbols());
  const ContinuousMinerState ref_state = reference->ExportState();

  for (uint64_t cut = kPrefix; cut <= series.length(); ++cut) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // Run the `ppm stream` protocol up to the kill point `cut`.
    {
      auto miner = SeededMiner(series, kPrefix);
      auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                       0, 0);
      ASSERT_TRUE(wal.ok()) << wal.status();
      for (uint64_t t = 0; t < kPrefix; ++t) {
        ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
      }
      ASSERT_TRUE(
          CheckpointStream(*miner, **wal, series.symbols(), dir_).ok());
      uint64_t last_checkpoint = miner->segments_committed();
      for (uint64_t t = kPrefix; t < cut; ++t) {
        ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
        miner->Append(series.at(t));
        if (miner->instants_seen() % 4 == 0 &&
            miner->segments_committed() - last_checkpoint >=
                kCheckpointEverySegments) {
          ASSERT_TRUE(
              CheckpointStream(*miner, **wal, series.symbols(), dir_).ok());
          last_checkpoint = miner->segments_committed();
        }
      }
      // Crash: no final checkpoint, and on some cuts a torn half-frame
      // lands in the WAL (what the mid-append kill switch produces).
      if (cut % 3 == 1) {
        std::ofstream torn(WalPath(dir_),
                           std::ios::binary | std::ios::app);
        torn.write("\xab\xcd\xef", static_cast<std::streamsize>(cut % 3));
      }
    }

    // Recover, finish the stream, and demand the exact reference state.
    auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
    ASSERT_TRUE(recovered.ok()) << "cut " << cut << ": "
                                << recovered.status();
    ContinuousMiner& miner = *recovered->miner;
    EXPECT_EQ(miner.instants_seen(), cut) << "cut " << cut;
    auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                     recovered->wal.next_seq,
                                     recovered->wal.valid_bytes);
    ASSERT_TRUE(wal.ok()) << "cut " << cut << ": " << wal.status();
    for (uint64_t t = miner.instants_seen(); t < series.length(); ++t) {
      ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
      miner.Append(series.at(t));
    }
    ExpectStatesEqual(miner.ExportState(), ref_state);
    EXPECT_EQ(miner.Snapshot().value().ToString(series.symbols()), ref_snapshot)
        << "cut " << cut;
  }
}

TEST_F(CheckpointDirTest, WindowedCheckpointRoundTrips) {
  const TimeSeries series = MakeSeries(800, 19);
  ContinuousOptions continuous;
  continuous.window_segments = 10;
  continuous.drift_window = 5;
  auto miner = SeededContinuousMiner(series, 200, continuous);
  for (uint64_t t = 200; t < 650; ++t) miner->Append(series.at(t));
  ASSERT_GT(miner->segments_evicted(), 0u);

  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->state.window_segments, 10u);
  EXPECT_EQ(data->state.window_masks.size(), 10u);

  auto restored = RestoreContinuousMiner(*data, DefaultOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectStatesEqual((*restored)->ExportState(), miner->ExportState());
  EXPECT_EQ((*restored)->segments_evicted(), miner->segments_evicted());
  EXPECT_EQ((*restored)->window_segments(), 10u);
}

// The kill-point matrix for the continuous engine: with a sliding window
// evicting on every commit and compaction every 3 segments, crash after
// every instant (torn WAL tails on a third of the cuts), recover with
// `RecoverContinuousStream`, finish the stream, and demand a state
// field-identical to the uninterrupted run -- including cuts that land
// immediately after an eviction or mid-way between two compactions.
TEST_F(CheckpointDirTest, ContinuousKillPointMatrixRecoversDeterministically) {
  const TimeSeries series = MakeSeries(400, 23);
  const uint64_t kPrefix = 100;
  const uint64_t kCheckpointEverySegments = 8;
  ContinuousOptions continuous;
  continuous.window_segments = 6;
  continuous.compact_every = 3;
  continuous.drift_window = 4;

  auto reference = SeededContinuousMiner(series, kPrefix, continuous);
  for (uint64_t t = kPrefix; t < series.length(); ++t) {
    reference->Append(series.at(t));
  }
  const std::string ref_snapshot =
      reference->Snapshot().value().ToString(series.symbols());
  const ContinuousMinerState ref_state = reference->ExportState();

  for (uint64_t cut = kPrefix; cut <= series.length(); ++cut) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    {
      auto miner = SeededContinuousMiner(series, kPrefix, continuous);
      auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                       0, 0);
      ASSERT_TRUE(wal.ok()) << wal.status();
      for (uint64_t t = 0; t < kPrefix; ++t) {
        ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
      }
      ASSERT_TRUE(
          CheckpointStream(*miner, **wal, series.symbols(), dir_).ok());
      uint64_t last_checkpoint = miner->segments_committed();
      for (uint64_t t = kPrefix; t < cut; ++t) {
        ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
        miner->Append(series.at(t));
        if (miner->instants_seen() % 4 == 0 &&
            miner->segments_committed() - last_checkpoint >=
                kCheckpointEverySegments) {
          ASSERT_TRUE(
              CheckpointStream(*miner, **wal, series.symbols(), dir_).ok());
          last_checkpoint = miner->segments_committed();
        }
      }
      if (cut % 3 == 1) {
        std::ofstream torn(WalPath(dir_),
                           std::ios::binary | std::ios::app);
        torn.write("\xab\xcd\xef", static_cast<std::streamsize>(cut % 3));
      }
    }

    auto recovered = RecoverContinuousStream(dir_, DefaultOptions(),
                                             continuous.compact_every);
    ASSERT_TRUE(recovered.ok()) << "cut " << cut << ": "
                                << recovered.status();
    ContinuousMiner& miner = *recovered->miner;
    EXPECT_EQ(miner.instants_seen(), cut) << "cut " << cut;
    EXPECT_EQ(miner.window_segments(), 6u);
    auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                     recovered->wal.next_seq,
                                     recovered->wal.valid_bytes);
    ASSERT_TRUE(wal.ok()) << "cut " << cut << ": " << wal.status();
    for (uint64_t t = miner.instants_seen(); t < series.length(); ++t) {
      ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
      miner.Append(series.at(t));
    }
    ExpectStatesEqual(miner.ExportState(), ref_state);
    EXPECT_EQ(miner.Snapshot().value().ToString(series.symbols()), ref_snapshot)
        << "cut " << cut;
    EXPECT_EQ(miner.segments_evicted(), reference->segments_evicted())
        << "cut " << cut;
  }
}

class CheckpointCorruptionTest : public CheckpointDirTest {
 protected:
  void SetUp() override {
    CheckpointDirTest::SetUp();
    series_ = MakeSeries(600, 3);
    auto miner = SeededMiner(series_, 150, /*drift_window=*/7);
    for (uint64_t t = 150; t < 500; ++t) miner->Append(series_.at(t));
    ASSERT_TRUE(WriteCheckpoint(*miner, series_.symbols(), dir_).ok());
    path_ = CheckpointPath(dir_);
    bytes_ = FileBytes(path_);
    ASSERT_GT(bytes_.size(), 20u);
  }

  TimeSeries series_;
  std::string path_;
  std::string bytes_;
};

TEST_F(CheckpointCorruptionTest, TruncationAtEveryOffsetIsCorruption) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    WriteBytes(path_, bytes_.substr(0, len));
    const auto data = ReadCheckpoint(path_);
    ASSERT_FALSE(data.ok()) << "accepted a checkpoint truncated to " << len
                            << " of " << bytes_.size() << " bytes";
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption)
        << "truncated to " << len << ": " << data.status();
  }
}

TEST_F(CheckpointCorruptionTest, BitFlipAtEveryOffsetIsCorruption) {
  const uint64_t seed = FaultSeed();
  for (size_t offset = 0; offset < bytes_.size(); ++offset) {
    std::string corrupted = bytes_;
    corrupted[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupted[offset]) ^
        (1u << BitForOffset(seed, offset)));
    WriteBytes(path_, corrupted);
    const auto data = ReadCheckpoint(path_);
    ASSERT_FALSE(data.ok()) << "accepted a flip of bit "
                            << BitForOffset(seed, offset) << " at offset "
                            << offset << " (seed " << seed << ")";
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption)
        << "flip at offset " << offset << ": " << data.status();
  }
}

// The same every-offset harness over a v2 checkpoint whose window fields
// are populated: truncation and single-bit damage anywhere in the file --
// including inside the window-mask section -- must read as corruption.
class WindowedCheckpointCorruptionTest : public CheckpointDirTest {
 protected:
  void SetUp() override {
    CheckpointDirTest::SetUp();
    series_ = MakeSeries(320, 29);
    ContinuousOptions continuous;
    continuous.window_segments = 8;
    continuous.drift_window = 3;
    auto miner = SeededContinuousMiner(series_, 100, continuous);
    for (uint64_t t = 100; t < 300; ++t) miner->Append(series_.at(t));
    ASSERT_GT(miner->segments_evicted(), 0u);
    ASSERT_TRUE(WriteCheckpoint(*miner, series_.symbols(), dir_).ok());
    path_ = CheckpointPath(dir_);
    bytes_ = FileBytes(path_);
    ASSERT_GT(bytes_.size(), 20u);
  }

  TimeSeries series_;
  std::string path_;
  std::string bytes_;
};

TEST_F(WindowedCheckpointCorruptionTest, TruncationAtEveryOffsetIsCorruption) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    WriteBytes(path_, bytes_.substr(0, len));
    const auto data = ReadCheckpoint(path_);
    ASSERT_FALSE(data.ok()) << "accepted a windowed checkpoint truncated to "
                            << len << " of " << bytes_.size() << " bytes";
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption)
        << "truncated to " << len << ": " << data.status();
  }
}

TEST_F(WindowedCheckpointCorruptionTest, BitFlipAtEveryOffsetIsCorruption) {
  const uint64_t seed = FaultSeed();
  for (size_t offset = 0; offset < bytes_.size(); ++offset) {
    std::string corrupted = bytes_;
    corrupted[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupted[offset]) ^
        (1u << BitForOffset(seed, offset)));
    WriteBytes(path_, corrupted);
    const auto data = ReadCheckpoint(path_);
    ASSERT_FALSE(data.ok()) << "accepted a flip of bit "
                            << BitForOffset(seed, offset) << " at offset "
                            << offset << " (seed " << seed << ")";
    EXPECT_EQ(data.status().code(), StatusCode::kCorruption)
        << "flip at offset " << offset << ": " << data.status();
  }
}

TEST_F(CheckpointDirTest, FailedCheckpointWriteKeepsLastGood) {
  const TimeSeries series = MakeSeries(400, 21);
  auto miner = SeededMiner(series, 100);
  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  const uint64_t good_instants = miner->instants_seen();

  for (uint64_t t = 100; t < 300; ++t) miner->Append(series.at(t));
  {
    tsdb::FaultPlan plan;
    plan.seed = 1;
    plan.fail_fsync = true;
    tsdb::ScopedFaultInjection scoped(plan);
    const Status failed = WriteCheckpoint(*miner, series.symbols(), dir_);
    ASSERT_FALSE(failed.ok());
  }
  // The failed write left no temp file and the previous checkpoint intact.
  EXPECT_FALSE(fs::exists(CheckpointPath(dir_) + ".tmp"));
  const auto data = ReadCheckpoint(CheckpointPath(dir_));
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->state.instants_seen, good_instants);
}

TEST_F(CheckpointDirTest, CheckpointWithoutWalIsCorruption) {
  const TimeSeries series = MakeSeries(400, 2);
  auto miner = SeededMiner(series, 100);
  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  const auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointDirTest, CheckpointAheadOfWalIsCorruption) {
  const TimeSeries series = MakeSeries(400, 2);
  auto miner = SeededMiner(series, 100);
  // A WAL that durably holds fewer instants than the checkpoint covers.
  auto wal = tsdb::WalWriter::Open(WalPath(dir_), tsdb::WalFsync::kNever,
                                   0, 0);
  ASSERT_TRUE(wal.ok());
  for (uint64_t t = 0; t < 40; ++t) {
    ASSERT_TRUE((*wal)->Append(series.at(t)).ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  ASSERT_TRUE(WriteCheckpoint(*miner, series.symbols(), dir_).ok());
  const auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  EXPECT_NE(recovered.status().ToString().find("ahead of the durable WAL"),
            std::string::npos)
      << recovered.status();
}

TEST_F(CheckpointDirTest, MissingCheckpointIsNotFound) {
  const auto recovered = RecoverContinuousStream(dir_, DefaultOptions());
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ppm::stream
