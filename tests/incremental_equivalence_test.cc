// The incremental == batch equivalence contract for continuous mining
// (docs/INCREMENTAL.md): for ANY interleaving of appends, live queries,
// sliding-window evictions, checkpoint/restore cuts, and compactions, a
// `ContinuousMiner::Snapshot` must be field-identical -- same pattern set,
// same counts, bit-equal confidences, in the same canonical order -- to a
// from-scratch `MineHitSet` batch mine over exactly the effective window
// (the last min(W, committed) whole segments), restricted to the seeded
// letter space.
//
// The schedules are randomized but fully seed-determined: every failure
// message carries the seed and step, so any discrepancy replays exactly.
// Both hit-store backends, both window modes (whole-history and sliding),
// and batch thread counts 1 and 4 are exercised; across all seeds the
// harness executes well over 1000 schedule steps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "diff_harness.h"
#include "core/letter_space.h"
#include "core/mining_options.h"
#include "stream/checkpoint.h"
#include "stream/continuous_miner.h"
#include "tsdb/symbol_table.h"
#include "tsdb/time_series.h"
#include "util/random.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;

/// One seed-determined continuous-mining workload.
struct Workload {
  uint64_t seed = 0;
  MiningOptions options;
  stream::ContinuousOptions continuous;
  uint32_t num_features = 0;
  std::vector<Letter> seed_letters;
};

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  Workload w;
  w.seed = seed;
  w.options.period = 3 + static_cast<uint32_t>(rng.NextBelow(5));  // 3..7
  w.num_features = 2 + static_cast<uint32_t>(rng.NextBelow(4));    // 2..5
  w.options.min_confidence = 0.25 + 0.5 * rng.NextDouble();
  w.options.num_threads = 1;
  // Cover both decrement paths: the tree's Remove and the vertical store's
  // slot release.
  w.options.hit_store = (seed % 2 == 0) ? HitStoreKind::kMaxSubpatternTree
                                        : HitStoreKind::kVertical;
  // Two thirds of the seeds run a sliding window, the rest whole-history.
  if (seed % 3 != 0) {
    w.continuous.window_segments = 3 + static_cast<uint32_t>(rng.NextBelow(8));
  }
  if (rng.NextBool(0.5)) {
    w.continuous.compact_every = 2 + static_cast<uint32_t>(rng.NextBelow(4));
  }
  w.continuous.drift_window = static_cast<uint32_t>(rng.NextBelow(6));
  // Seed most of the (position, feature) alphabet, leaving holes so the
  // unseeded/other-counts path stays live too.
  for (uint32_t position = 0; position < w.options.period; ++position) {
    for (uint32_t feature = 0; feature < w.num_features; ++feature) {
      if (rng.NextBool(0.8)) w.seed_letters.push_back({position, feature});
    }
  }
  if (w.seed_letters.size() < 2) {
    w.seed_letters = {{0, 0}, {1, 1 % w.num_features}};
  }
  return w;
}

tsdb::SymbolTable MakeSymbols(uint32_t num_features) {
  tsdb::SymbolTable symbols;
  for (uint32_t f = 0; f < num_features; ++f) {
    symbols.Intern("f" + std::to_string(f));
  }
  return symbols;
}

/// Drives one random schedule of appends, queries, checkpoints, restores,
/// and compactions; checks incremental == batch at every query. Adds the
/// number of schedule steps executed to `*steps_out`.
void RunSchedule(const Workload& w, const std::string& checkpoint_dir,
                 uint64_t num_ops, uint64_t* steps_out) {
  const tsdb::SymbolTable symbols = MakeSymbols(w.num_features);
  auto created = stream::ContinuousMiner::Create(w.options, w.seed_letters,
                                                 w.continuous);
  ASSERT_TRUE(created.status().ok()) << created.status().ToString();
  std::unique_ptr<stream::ContinuousMiner> miner = std::move(created).value();

  // Shadow log of every instant the miner has consumed on the current
  // timeline; a restore rolls it back to the checkpoint's length.
  std::vector<tsdb::FeatureSet> appended;
  bool have_checkpoint = false;
  size_t checkpoint_len = 0;

  Rng data_rng(w.seed);   // Generates the instants.
  Rng op_rng(w.seed + 1);  // Picks the schedule.
  const uint32_t period = w.options.period;

  const auto append_instants = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t t = appended.size();
      tsdb::FeatureSet instant;
      for (uint32_t f = 0; f < w.num_features; ++f) {
        const bool aligned = (t % period) == (f % period);
        if (data_rng.NextBool(aligned ? 0.7 : 0.15)) instant.Set(f);
      }
      appended.push_back(instant);
      miner->Append(instant);
    }
  };

  const auto check_query = [&](uint64_t step) {
    const uint64_t committed = miner->segments_committed();
    const uint64_t effective = miner->effective_segments();
    ASSERT_LE(committed * period, appended.size());
    const MiningResult incremental = miner->Snapshot().value();
    if (effective == 0) {
      EXPECT_EQ(incremental.size(), 0u) << "seed=" << w.seed;
      return;
    }
    const tsdb::TimeSeries window = diff::SliceSegments(
        appended, symbols, period, committed - effective, effective);
    // The incremental F1 row equals a recount of the window.
    const std::vector<Letter>& letters = miner->space().letters();
    std::vector<uint64_t> recount(letters.size(), 0);
    for (size_t i = 0; i < letters.size(); ++i) {
      for (uint64_t t = letters[i].position; t < window.length();
           t += period) {
        if (window.at(t).Test(letters[i].feature)) ++recount[i];
      }
    }
    EXPECT_EQ(miner->seeded_counts(), recount)
        << "seed=" << w.seed << " step=" << step;
    // Full-result equivalence at both batch thread counts.
    const std::string got = diff::Serialize(incremental, symbols);
    for (const uint32_t threads : {1u, 4u}) {
      const auto batch =
          diff::BatchMineWindow(window, w.options, letters, threads);
      ASSERT_TRUE(batch.status().ok()) << batch.status().ToString();
      EXPECT_EQ(got, diff::Serialize(*batch, symbols))
          << "seed=" << w.seed << " step=" << step << " threads=" << threads
          << " window=" << w.continuous.window_segments
          << " effective=" << effective << " committed=" << committed;
    }
  };

  for (uint64_t op = 0; op < num_ops; ++op, ++*steps_out) {
    const uint64_t roll = op_rng.NextBelow(100);
    if (roll < 55 || appended.empty()) {
      append_instants(1 + op_rng.NextBelow(2ull * period));
    } else if (roll < 70) {
      check_query(op);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (roll < 80) {
      ASSERT_TRUE(
          stream::WriteCheckpoint(*miner, symbols, checkpoint_dir).ok());
      have_checkpoint = true;
      checkpoint_len = appended.size();
    } else if (roll < 90 && have_checkpoint) {
      // Crash: lose everything after the checkpoint, restore, verify the
      // restored miner still matches a batch mine of its window.
      auto data =
          stream::ReadCheckpoint(stream::CheckpointPath(checkpoint_dir));
      ASSERT_TRUE(data.status().ok()) << data.status().ToString();
      auto restored = stream::RestoreContinuousMiner(
          *data, w.options, w.continuous.compact_every);
      ASSERT_TRUE(restored.status().ok()) << restored.status().ToString();
      miner = std::move(restored).value();
      appended.resize(checkpoint_len);
      check_query(op);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      miner->Compact();
    }
  }
  check_query(num_ops);
}

class IncrementalEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/incr_equiv_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(IncrementalEquivalenceTest, RandomSchedulesMatchBatchMine) {
  uint64_t total_steps = 0;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RunSchedule(MakeWorkload(seed), dir_, 48, &total_steps);
    if (HasFatalFailure()) {
      FAIL() << "schedule aborted at seed " << seed;
    }
  }
  // The acceptance bar: the harness must drive at least 1000 randomized
  // schedule steps across seeds.
  EXPECT_GE(total_steps, 1000u);
}

// The window boundary in isolation: a window of W segments must behave
// exactly like batch mining the last W segments at every fill level --
// before the window fills, as it fills exactly, and long after segments
// have been evicted.
TEST_F(IncrementalEquivalenceTest, WindowRollsMatchBatchAtEveryFillLevel) {
  Workload w = MakeWorkload(7);
  w.continuous.window_segments = 5;
  w.continuous.compact_every = 3;
  const tsdb::SymbolTable symbols = MakeSymbols(w.num_features);
  auto miner = stream::ContinuousMiner::Create(w.options, w.seed_letters,
                                               w.continuous);
  ASSERT_TRUE(miner.status().ok()) << miner.status().ToString();

  std::vector<tsdb::FeatureSet> appended;
  Rng rng(w.seed);
  for (uint64_t segment = 0; segment < 20; ++segment) {
    for (uint32_t i = 0; i < w.options.period; ++i) {
      const uint64_t t = appended.size();
      tsdb::FeatureSet instant;
      for (uint32_t f = 0; f < w.num_features; ++f) {
        const bool aligned = (t % w.options.period) == (f % w.options.period);
        if (rng.NextBool(aligned ? 0.7 : 0.15)) instant.Set(f);
      }
      appended.push_back(instant);
      (*miner)->Append(instant);
    }
    const uint64_t committed = (*miner)->segments_committed();
    const uint64_t effective = (*miner)->effective_segments();
    EXPECT_EQ(committed, segment + 1);
    EXPECT_EQ(effective, std::min<uint64_t>(segment + 1, 5));
    const tsdb::TimeSeries window =
        diff::SliceSegments(appended, symbols, w.options.period,
                            committed - effective, effective);
    const auto batch = diff::BatchMineWindow(
        window, w.options, (*miner)->space().letters(), 1);
    ASSERT_TRUE(batch.status().ok()) << batch.status().ToString();
    EXPECT_EQ(diff::Serialize((*miner)->Snapshot().value(), symbols),
              diff::Serialize(*batch, symbols))
        << "segment=" << segment;
  }
  EXPECT_EQ((*miner)->segments_evicted(), 15u);
}

}  // namespace
}  // namespace ppm
