// Live periodicity monitoring with the incremental miner: seed a
// whole-history ContinuousMiner (no pattern window) from the first day of a
// metrics feed, then keep appending and snapshotting. Mid-stream the system's behaviour changes (a new
// periodic job appears); the drift detector flags it, and after reseeding
// the new pattern is mined too.
//
//   ./examples/streaming_monitor

#include <cstdio>

#include "stream/continuous_miner.h"
#include "tsdb/time_series.h"
#include "util/random.h"

namespace {

constexpr uint32_t kHoursPerDay = 24;

/// One instant per hour. Heartbeat at 03:00 from the start; a new job at
/// 15:00 starts on `new_job_day`.
ppm::tsdb::FeatureSet HourInstant(ppm::tsdb::SymbolTable* symbols,
                                  ppm::Rng* rng, int day, uint32_t hour,
                                  int new_job_day) {
  ppm::tsdb::FeatureSet instant;
  if (hour == 3 && rng->NextBool(0.95)) {
    instant.Set(symbols->Intern("heartbeat"));
  }
  if (day >= new_job_day && hour == 15 && rng->NextBool(0.9)) {
    instant.Set(symbols->Intern("report_job"));
  }
  if (rng->NextBool(0.1)) instant.Set(symbols->Intern("misc"));
  return instant;
}

void PrintSnapshot(const ppm::stream::ContinuousMiner& miner,
                   const ppm::tsdb::SymbolTable& symbols, int day) {
  const ppm::MiningResult snapshot = miner.Snapshot().value();
  std::printf("day %3d: %llu segments, %zu frequent patterns:",
              day, static_cast<unsigned long long>(miner.segments_committed()),
              snapshot.size());
  for (const ppm::FrequentPattern& entry : snapshot.patterns()) {
    if (entry.pattern.LetterCount() != 1) continue;
    for (uint32_t hour = 0; hour < kHoursPerDay; ++hour) {
      entry.pattern.at(hour).ForEach([&](uint32_t id) {
        std::printf(" [%02u:00 %s %.2f]", hour,
                    symbols.NameOrPlaceholder(id).c_str(), entry.confidence);
      });
    }
  }
  std::printf("\n");
  const auto drifted = miner.DriftedLetters();
  for (const ppm::Letter& letter : drifted) {
    std::printf("         DRIFT: unseeded letter %s at %02u:00 is now "
                "frequent -- reseed recommended\n",
                symbols.NameOrPlaceholder(letter.feature).c_str(),
                letter.position);
  }
}

}  // namespace

int main() {
  using namespace ppm;

  tsdb::SymbolTable symbols;
  Rng rng(404);
  const int kNewJobDay = 60;

  MiningOptions options;
  options.period = kHoursPerDay;
  options.min_confidence = 0.8;

  // Day 0 seeds the miner.
  tsdb::TimeSeries seed_day;
  for (uint32_t hour = 0; hour < kHoursPerDay; ++hour) {
    seed_day.Append(HourInstant(&symbols, &rng, 0, hour, kNewJobDay));
  }
  seed_day.symbols() = symbols;
  // Patterns cover all of history (window_segments = 0), but drift is
  // judged over the last 30 days, so new periodic behaviour is flagged
  // promptly instead of having to outweigh all of history.
  stream::ContinuousOptions continuous;
  continuous.drift_window = 30;
  auto miner =
      stream::ContinuousMiner::SeedFromPrefix(options, seed_day, continuous);
  if (!miner.ok()) {
    std::fprintf(stderr, "%s\n", miner.status().ToString().c_str());
    return 1;
  }

  // Stream 120 days, snapshotting monthly.
  for (int day = 1; day <= 120; ++day) {
    for (uint32_t hour = 0; hour < kHoursPerDay; ++hour) {
      (*miner)->Append(HourInstant(&symbols, &rng, day, hour, kNewJobDay));
    }
    if (day % 30 == 0) PrintSnapshot(**miner, symbols, day);
  }

  // The drift report names the new 15:00 job. Reseed: in a real system we
  // would rescan recent history; here we restart the miner with the union
  // of old and drifted letters and replay the last 30 days.
  std::printf("\nReseeding with drifted letters included...\n");
  std::vector<Letter> letters = (*miner)->space().letters();
  for (const Letter& drifted : (*miner)->DriftedLetters()) {
    letters.push_back(drifted);
  }
  auto reseeded = stream::ContinuousMiner::Create(options, letters, continuous);
  if (!reseeded.ok()) {
    std::fprintf(stderr, "%s\n", reseeded.status().ToString().c_str());
    return 1;
  }
  for (int day = 121; day <= 150; ++day) {
    for (uint32_t hour = 0; hour < kHoursPerDay; ++hour) {
      (*reseeded)->Append(HourInstant(&symbols, &rng, day, hour, kNewJobDay));
    }
  }
  PrintSnapshot(**reseeded, symbols, 150);
  return 0;
}
