// The scan/IO accounting contract (docs/OBSERVABILITY.md): the hit-set miner
// is exactly two logical database passes at every thread count, Apriori is
// one pass per level plus the F1 scan, shared multi-period mining is two
// passes for the whole period range, and candidate-set sizes are
// thread-invariant. These exact counts are what scripts/perf_gate.py holds
// the committed BENCH_*.json baselines to, so this test is the in-tree
// anchor for the gate's zero-tolerance fields.
//
// All assertions go through MetricsRegistry::Global() because that is where
// the library's built-in instrumentation records; each test scopes itself
// with Reset().

#include "core/scan_accounting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <filesystem>

#include "core/apriori_miner.h"
#include "core/hitset_miner.h"
#include "core/multi_period.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "stream/continuous_miner.h"
#include "synth/generator.h"
#include "tsdb/database.h"
#include "tsdb/fault_injection.h"
#include "tsdb/series_source.h"
#include "tsdb/wal.h"

namespace ppm {
namespace {

synth::GeneratedSeries TestSeries(uint64_t length = 5000, uint32_t period = 20) {
  synth::GeneratorOptions options;
  options.length = length;
  options.period = period;
  options.max_pat_length = 4;
  options.num_f1 = 8;
  options.num_features = 40;
  options.anchor_confidence = 0.9;
  options.independent_confidence = 0.85;
  options.noise_mean = 1.0;
  options.seed = 99;
  auto result = synth::GenerateSeries(options);
  EXPECT_TRUE(result.status().ok()) << result.status().ToString();
  return std::move(result).value();
}

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  const uint64_t* value = snapshot.FindCounter(name);
  return value == nullptr ? 0 : *value;
}

MiningOptions HitsetOptions(uint32_t period, uint32_t threads = 1) {
  MiningOptions options;
  options.period = period;
  options.min_confidence = 0.8;
  options.num_threads = threads;
  return options;
}

TEST(ScanAccountingTest, HitsetIsTwoDbPassesAtEveryThreadCount) {
  const synth::GeneratedSeries data = TestSeries();
  auto& registry = obs::MetricsRegistry::Global();
  for (const uint32_t threads : {1u, 4u}) {
    registry.Reset();
    tsdb::InMemorySeriesSource source(&data.series);
    const auto result = MineHitSet(source, HitsetOptions(20, threads));
    ASSERT_TRUE(result.status().ok()) << result.status().ToString();

    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 2u)
        << "threads=" << threads;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.f1_scan"), 1u)
        << "threads=" << threads;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.second_scan"), 1u)
        << "threads=" << threads;
    // Both passes cover every whole period of the series.
    const uint64_t covered = (data.series.length() / 20) * 20;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.instants_scanned"), 2 * covered)
        << "threads=" << threads;
  }
}

TEST(ScanAccountingTest, AprioriPassesMatchReportedScans) {
  const synth::GeneratedSeries data = TestSeries();
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  tsdb::InMemorySeriesSource source(&data.series);
  const auto result = MineApriori(source, HitsetOptions(20));
  ASSERT_TRUE(result.status().ok()) << result.status().ToString();

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const uint64_t level_scans =
      CounterValue(snapshot, "ppm.scan.passes.level_scan");
  EXPECT_GE(level_scans, 1u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.f1_scan"), 1u);
  // Apriori's logical passes are the F1 scan plus one scan per level --
  // exactly what MiningStats::scans has always reported.
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 1 + level_scans);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"),
            result.value().stats().scans);
}

TEST(ScanAccountingTest, CandidateCountsAreThreadInvariant) {
  const synth::GeneratedSeries data = TestSeries();
  auto& registry = obs::MetricsRegistry::Global();

  std::vector<obs::MetricsSnapshot> snapshots;
  for (const uint32_t threads : {1u, 4u}) {
    registry.Reset();
    tsdb::InMemorySeriesSource source(&data.series);
    const auto result = MineHitSet(source, HitsetOptions(20, threads));
    ASSERT_TRUE(result.status().ok()) << result.status().ToString();
    snapshots.push_back(registry.Snapshot());
  }

  const uint64_t total_t1 =
      CounterValue(snapshots[0], "ppm.derivation.candidates_total");
  EXPECT_GT(total_t1, 0u);
  EXPECT_EQ(total_t1,
            CounterValue(snapshots[1], "ppm.derivation.candidates_total"));
  // Per-level candidate gauges must agree level by level.
  for (const auto& [name, value] : snapshots[0].gauges) {
    if (name.rfind("ppm.derivation.level_candidates.", 0) != 0) continue;
    const uint64_t* other = snapshots[1].FindGauge(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(value, *other) << name;
  }
}

TEST(ScanAccountingTest, SharedMultiPeriodIsTwoPassesTotal) {
  const synth::GeneratedSeries data = TestSeries(4000, 20);
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  tsdb::InMemorySeriesSource source(&data.series);
  const auto result =
      MineMultiPeriodShared(source, 18, 22, HitsetOptions(0));
  ASSERT_TRUE(result.status().ok()) << result.status().ToString();

  // Algorithm 3.4: one shared traversal per scan regardless of how many
  // periods are mined (5 here).
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 2u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.shared_scan1"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.shared_scan2"), 1u);
  EXPECT_EQ(result.value().total_scans, 2u);
}

// Every counter of the four hit-set walks -- one period or a shared range,
// each streamed (1 thread) or materialized and sharded (4 threads) -- on a
// series whose length no period of the range divides, so each walk's
// instant bound is visible in the counts.
TEST(ScanAccountingTest, EveryWalkPinsPassesInstantsAndSourceReads) {
  constexpr uint64_t kLength = 4007;
  const synth::GeneratedSeries data = TestSeries(kLength, 20);
  uint64_t walk = 0;  // max over periods 18..22 of m_p * p
  uint64_t covered_sum = 0;  // sum over periods 18..22 of m_p * p
  uint64_t segments_sum = 0;  // sum over periods 18..22 of m_p
  for (uint32_t period = 18; period <= 22; ++period) {
    ASSERT_NE(kLength % period, 0u) << "period " << period;
    walk = std::max(walk, kLength / period * period);
    covered_sum += kLength / period * period;
    segments_sum += kLength / period;
  }
  ASSERT_EQ(walk, 4004u);
  ASSERT_EQ(covered_sum, 19980u);
  ASSERT_EQ(segments_sum, 1004u);

  struct Expected {
    uint64_t db_passes, f1_scan, second_scan, shared_scan1, shared_scan2,
        instants_scanned, segments_scanned, source_scans, source_instants;
  };
  const auto check = [](const obs::MetricsSnapshot& snapshot,
                        const Expected& want, const std::string& label) {
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), want.db_passes)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.f1_scan"), want.f1_scan)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.second_scan"),
              want.second_scan)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.shared_scan1"),
              want.shared_scan1)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.shared_scan2"),
              want.shared_scan2)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.instants_scanned"),
              want.instants_scanned)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.scan.segments_scanned"),
              want.segments_scanned)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.source.scans"), want.source_scans)
        << label;
    EXPECT_EQ(CounterValue(snapshot, "ppm.source.instants_read"),
              want.source_instants)
        << label;
  };

  auto& registry = obs::MetricsRegistry::Global();
  // One period (20): both passes cover the 200 whole segments only.
  for (const uint32_t threads : {1u, 4u}) {
    registry.Reset();
    tsdb::InMemorySeriesSource source(&data.series);
    ASSERT_TRUE(MineHitSet(source, HitsetOptions(20, threads)).ok());
    check(registry.Snapshot(),
          threads == 1 ? Expected{2, 1, 1, 0, 0, 8000, 400, 2, 8000}
                       : Expected{2, 1, 1, 0, 0, 8000, 400, 1, 4000},
          "single-period threads=" + std::to_string(threads));
  }
  // Shared range 18..22: streamed, two traversals for the whole range;
  // sharded, one f1_scan and one shared_scan2 per period. Either walk stops
  // after period 22's last whole segment, short of the series' end.
  for (const uint32_t threads : {1u, 4u}) {
    registry.Reset();
    tsdb::InMemorySeriesSource source(&data.series);
    ASSERT_TRUE(
        MineMultiPeriodShared(source, 18, 22, HitsetOptions(0, threads)).ok());
    check(registry.Snapshot(),
          threads == 1
              ? Expected{2, 0, 0, 1, 1, 2 * walk, 0, 2, 2 * walk}
              : Expected{10, 5, 0, 0, 5, 2 * covered_sum, 2 * segments_sum, 1,
                         walk},
          "shared threads=" + std::to_string(threads));
  }
}

TEST(ScanAccountingTest, RecordDbPassFeedsHistogramAndSegments) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  RecordDbPass("test_phase", 1000, 50);
  RecordDbPass("test_phase", 3000, 150);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 2u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.test_phase"), 2u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.instants_scanned"), 4000u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.segments_scanned"), 200u);
  bool found = false;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (name != "ppm.scan.pass_instants") continue;
    found = true;
    EXPECT_EQ(hist.count, 2u);
    EXPECT_EQ(hist.sum, 4000u);
    EXPECT_EQ(hist.max, 3000u);
  }
  EXPECT_TRUE(found);
}

TEST(ScanAccountingTest, RecordLevelCandidatesExposesGaugeAndTotal) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  RecordLevelCandidates("ppm.test", 2, 10);
  RecordLevelCandidates("ppm.test", 3, 4);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const uint64_t* level2 = snapshot.FindGauge("ppm.test.level_candidates.L2");
  const uint64_t* level3 = snapshot.FindGauge("ppm.test.level_candidates.L3");
  ASSERT_NE(level2, nullptr);
  ASSERT_NE(level3, nullptr);
  EXPECT_EQ(*level2, 10u);
  EXPECT_EQ(*level3, 4u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.test.candidates_total"), 14u);
}

// The registry-reset contract repeated in-process runs rely on: Reset between
// runs makes each run's snapshot identical; without Reset, DeltaSince
// recovers the second run's contribution.
TEST(ScanAccountingTest, ResetAndDeltaScopeRepeatedRuns) {
  const synth::GeneratedSeries data = TestSeries();
  auto& registry = obs::MetricsRegistry::Global();

  registry.Reset();
  {
    tsdb::InMemorySeriesSource source(&data.series);
    ASSERT_TRUE(MineHitSet(source, HitsetOptions(20)).status().ok());
  }
  const obs::MetricsSnapshot first = registry.Snapshot();

  registry.Reset();
  {
    tsdb::InMemorySeriesSource source(&data.series);
    ASSERT_TRUE(MineHitSet(source, HitsetOptions(20)).status().ok());
  }
  const obs::MetricsSnapshot second = registry.Snapshot();
  EXPECT_EQ(first.counters, second.counters);

  // Same second run, now without a Reset: the delta against the pre-run
  // snapshot equals a scoped run's totals.
  const obs::MetricsSnapshot before = registry.Snapshot();
  {
    tsdb::InMemorySeriesSource source(&data.series);
    ASSERT_TRUE(MineHitSet(source, HitsetOptions(20)).status().ok());
  }
  const obs::MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);
  for (const auto& [name, value] : first.counters) {
    if (name.rfind("ppm.scan.", 0) != 0) continue;
    const uint64_t* delta_value = delta.FindCounter(name);
    ASSERT_NE(delta_value, nullptr) << name;
    EXPECT_EQ(*delta_value, value) << name;
  }
}

// `Database::Get` is one logical pass per successful load, no matter how
// many physical attempts the transient-retry loop burns: the retry is an
// IO detail, not an algorithm-level traversal.
TEST(ScanAccountingTest, DatabaseGetIsOnePassEvenWithRetries) {
  const synth::GeneratedSeries data = TestSeries(2000, 20);
  const std::string root = ::testing::TempDir() + "/scan_acct_db";
  std::filesystem::remove_all(root);
  auto db = tsdb::Database::Open(root);
  ASSERT_TRUE(db.status().ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Put("s", data.series).ok());

  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  auto got = (*db)->Get("s");
  ASSERT_TRUE(got.status().ok()) << got.status().ToString();
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.db_get"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.instants_scanned"),
            data.series.length());

  // Two injected transient read failures force two retries; the load still
  // succeeds and still accounts as exactly one pass.
  registry.Reset();
  tsdb::FaultPlan plan;
  plan.transient_read_failures = 2;
  tsdb::FaultInjector::Global().Arm(plan);
  got = (*db)->Get("s");
  tsdb::FaultInjector::Global().Disarm();
  ASSERT_TRUE(got.status().ok()) << got.status().ToString();
  snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "ppm.fault.retries"), 2u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.db_get"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 1u);

  // A failed load (unknown series) records nothing.
  registry.Reset();
  EXPECT_FALSE((*db)->Get("missing").ok());
  snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 0u);
  std::filesystem::remove_all(root);
}

// WAL replay is one logical pass sized by the records it delivered -- the
// per-resume cost of a recovered stream -- and a live snapshot afterwards
// touches the database zero times.
TEST(ScanAccountingTest, WalReplayIsOnePassAndSnapshotIsZero) {
  const synth::GeneratedSeries data = TestSeries(2000, 20);
  const std::string path = ::testing::TempDir() + "/scan_acct.ppmwal";
  std::filesystem::remove(path);
  auto wal = tsdb::WalWriter::Create(path, tsdb::WalFsync::kNever);
  ASSERT_TRUE(wal.status().ok()) << wal.status().ToString();
  constexpr uint64_t kLogged = 240;
  for (uint64_t t = 0; t < kLogged; ++t) {
    ASSERT_TRUE((*wal)->Append(data.series.at(t)).ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());

  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  constexpr uint64_t kStart = 200;  // Replay only the tail past a cursor.
  const auto replayed = tsdb::ReplayWal(
      path, kStart, [](uint64_t, const tsdb::FeatureSet&) {
        return Status::OK();
      });
  ASSERT_TRUE(replayed.status().ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->records_delivered, kLogged - kStart);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.passes.wal_replay"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.instants_scanned"),
            kLogged - kStart);

  // A streaming snapshot derives from the hit store alone: zero passes.
  auto miner =
      stream::ContinuousMiner::SeedFromPrefix(HitsetOptions(20), data.series);
  ASSERT_TRUE(miner.status().ok()) << miner.status().ToString();
  registry.Reset();
  (*miner)->Snapshot().value();
  snapshot = registry.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "ppm.scan.db_passes"), 0u);
  std::filesystem::remove(path);
}

TEST(ScanAccountingTest, ResourceMetricsPopulateGauges) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  obs::RecordResourceMetrics();
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const uint64_t* rss_hwm = snapshot.FindGauge("ppm.resource.rss_hwm_bytes");
  const uint64_t* rss = snapshot.FindGauge("ppm.resource.rss_bytes");
  ASSERT_NE(rss_hwm, nullptr);
  ASSERT_NE(rss, nullptr);
  // No ordering assertion between the two: the high-water mark comes from
  // getrusage and the current RSS from /proc/self/statm, and the two kernel
  // probes can disagree by a few pages.
  EXPECT_GT(*rss_hwm, 0u);
  EXPECT_GT(*rss, 0u);
}

}  // namespace
}  // namespace ppm
