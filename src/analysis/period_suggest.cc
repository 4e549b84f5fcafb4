#include "analysis/period_suggest.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/letter_counts.h"

namespace ppm::analysis {

namespace {

/// Quantized ranking: concentration rounded to 2 decimals (sampling noise
/// grows as m shrinks), ties broken toward the smaller period.
void SortScores(std::vector<PeriodScore>* scores) {
  std::stable_sort(scores->begin(), scores->end(),
                   [](const PeriodScore& a, const PeriodScore& b) {
                     const int64_t qa = std::llround(a.concentration * 100);
                     const int64_t qb = std::llround(b.concentration * 100);
                     if (qa != qb) return qa > qb;
                     return a.period < b.period;
                   });
}

/// One `PeriodScore` per (period, feature): that feature's best offset at
/// that period. Shared by both public entry points.
Result<std::vector<PeriodScore>> ComputePerFeature(
    const tsdb::TimeSeries& series, uint32_t period_low,
    uint32_t period_high) {
  if (period_low < 1) {
    return Status::InvalidArgument("period_low must be positive");
  }
  if (period_high < period_low) {
    return Status::InvalidArgument("period_high below period_low");
  }
  if (series.length() == 0) {
    return Status::InvalidArgument("empty series");
  }

  // Overall per-feature densities (one pass): the letters of period 1.
  LetterCounts overall(1);
  for (const tsdb::FeatureSet& instant : series.instants()) {
    overall.Add(0, instant);
  }
  const double length = static_cast<double>(series.length());

  // Per-period position histograms, the structure of scan 1 of
  // Algorithm 3.4.
  std::vector<PeriodScore> entries;
  for (uint32_t period = period_low; period <= period_high; ++period) {
    const uint64_t m = series.length() / period;
    if (m < 2) continue;
    LetterCounts counts(period);
    const uint64_t covered = m * period;
    for (uint64_t t = 0; t < covered; ++t) {
      counts.Add(static_cast<uint32_t>(t % period), series.at(t));
    }
    std::map<tsdb::FeatureId, PeriodScore> best_of_feature;
    counts.ForEachNonZero([&](const Letter& letter, uint64_t count) {
      const double confidence =
          static_cast<double>(count) / static_cast<double>(m);
      const double density =
          static_cast<double>(overall.count(Letter{0, letter.feature})) /
          length;
      const double concentration = confidence - density;
      PeriodScore& best = best_of_feature[letter.feature];
      if (best.period == 0 || concentration > best.concentration) {
        best.period = period;
        best.concentration = concentration;
        best.confidence = confidence;
        best.position = letter.position;
        best.feature = letter.feature;
      }
    });
    for (const auto& [feature, score] : best_of_feature) {
      if (score.concentration >= 0.0) entries.push_back(score);
    }
  }
  return entries;
}

}  // namespace

Result<std::vector<PeriodScore>> SuggestPeriods(const tsdb::TimeSeries& series,
                                                uint32_t period_low,
                                                uint32_t period_high) {
  PPM_ASSIGN_OR_RETURN(const std::vector<PeriodScore> entries,
                       ComputePerFeature(series, period_low, period_high));
  std::map<uint32_t, PeriodScore> best_of_period;
  for (const PeriodScore& entry : entries) {
    PeriodScore& best = best_of_period[entry.period];
    if (best.period == 0 || entry.concentration > best.concentration) {
      best = entry;
    }
  }
  std::vector<PeriodScore> scores;
  scores.reserve(best_of_period.size());
  for (const auto& [period, score] : best_of_period) scores.push_back(score);
  SortScores(&scores);
  return scores;
}

Result<std::vector<PeriodScore>> SuggestPeriodsPerFeature(
    const tsdb::TimeSeries& series, uint32_t period_low,
    uint32_t period_high) {
  PPM_ASSIGN_OR_RETURN(std::vector<PeriodScore> entries,
                       ComputePerFeature(series, period_low, period_high));
  SortScores(&entries);
  return entries;
}

std::vector<PeriodScore> FundamentalPeriods(
    const std::vector<PeriodScore>& scores, double tolerance) {
  // Keyed by (period, feature): works for both the aggregate and the
  // per-feature rankings.
  std::map<std::pair<uint32_t, tsdb::FeatureId>, PeriodScore> score_of;
  for (const PeriodScore& score : scores) {
    score_of.emplace(std::make_pair(score.period, score.feature), score);
  }
  // q is a harmonic of divisor d when d already explains q's best letter:
  // same feature, same offset modulo d, comparable concentration. A multiple
  // whose letter is a *different* signal (e.g. a weekly pattern on top of a
  // daily one) is kept.
  const auto explains = [tolerance](const PeriodScore& d,
                                    const PeriodScore& q) {
    return d.feature == q.feature && q.position % d.period == d.position &&
           d.concentration >= q.concentration - tolerance;
  };
  std::vector<PeriodScore> fundamentals;
  for (const PeriodScore& score : scores) {
    bool harmonic = false;
    for (uint32_t divisor = 1; divisor * divisor <= score.period; ++divisor) {
      if (score.period % divisor != 0) continue;
      for (const uint32_t d : {divisor, score.period / divisor}) {
        if (d == score.period || d < 2) continue;
        const auto it = score_of.find(std::make_pair(d, score.feature));
        if (it != score_of.end() && explains(it->second, score)) {
          harmonic = true;
        }
      }
      if (harmonic) break;
    }
    if (!harmonic) fundamentals.push_back(score);
  }
  return fundamentals;
}

Result<std::vector<double>> OccurrenceAutocorrelation(
    const tsdb::TimeSeries& series, tsdb::FeatureId feature, uint32_t lag_low,
    uint32_t lag_high) {
  if (lag_low < 1) return Status::InvalidArgument("lag_low must be positive");
  if (lag_high < lag_low) {
    return Status::InvalidArgument("lag_high below lag_low");
  }
  if (lag_high >= series.length()) {
    return Status::InvalidArgument("lag_high exceeds series length");
  }

  std::vector<uint64_t> occurrences;
  for (uint64_t t = 0; t < series.length(); ++t) {
    if (series.at(t).Test(feature)) occurrences.push_back(t);
  }

  std::vector<double> result;
  result.reserve(lag_high - lag_low + 1);
  for (uint32_t lag = lag_low; lag <= lag_high; ++lag) {
    uint64_t recur = 0;
    uint64_t eligible = 0;
    for (const uint64_t t : occurrences) {
      if (t + lag >= series.length()) continue;
      ++eligible;
      if (series.at(t + lag).Test(feature)) ++recur;
    }
    result.push_back(eligible > 0 ? static_cast<double>(recur) /
                                        static_cast<double>(eligible)
                                  : 0.0);
  }
  return result;
}

}  // namespace ppm::analysis
