// Direct unit tests of the shared derivation step (Algorithm 4.2) against
// a hand-constructed hit store, independent of any miner.

#include "core/derivation.h"

#include <gtest/gtest.h>

#include "core/hit_store.h"

namespace ppm {
namespace {

Bitset MaskOf(std::initializer_list<uint32_t> bits) {
  Bitset mask;
  for (uint32_t bit : bits) mask.Set(bit);
  return mask;
}

/// Space with letters 0=a@0, 1=b@1, 2=c@2 over period 3.
F1ScanResult MakeF1(uint64_t m, uint64_t min_count,
                    std::vector<uint64_t> letter_counts) {
  F1ScanResult f1;
  f1.num_periods = m;
  f1.min_count = min_count;
  f1.space = LetterSpace(3, {Letter{0, 0}, Letter{1, 1}, Letter{2, 2}});
  f1.letter_counts = std::move(letter_counts);
  return f1;
}

TEST(DerivationTest, DerivesFromHitCounts) {
  const F1ScanResult f1 = MakeF1(10, 5, {9, 8, 7});
  TreeHitStore store(f1.space.full_mask(), 3);
  // 5x {a,b,c}, 3x {a,b}, 2x {b,c}.
  for (int i = 0; i < 5; ++i) store.AddHit(MaskOf({0, 1, 2}));
  for (int i = 0; i < 3; ++i) store.AddHit(MaskOf({0, 1}));
  for (int i = 0; i < 2; ++i) store.AddHit(MaskOf({1, 2}));

  MiningResult result;
  const DerivationStats stats = DeriveFrequentPatterns(
      f1, 0,
      [&store](const Bitset& mask) { return store.CountSuperpatterns(mask); },
      &result);
  result.Canonicalize();

  // Level 1: a(9), b(8), c(7). Level 2: ab=8, ac=5, bc=7. Level 3: abc=5.
  EXPECT_EQ(result.size(), 7u);
  EXPECT_EQ(stats.max_level_reached, 3u);
  EXPECT_EQ(stats.candidates_evaluated, 4u);  // 3 pairs + 1 triple.

  const Pattern abc = f1.space.MaskToPattern(MaskOf({0, 1, 2}));
  const FrequentPattern* found = result.Find(abc);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 5u);
  EXPECT_DOUBLE_EQ(found->confidence, 0.5);
}

TEST(DerivationTest, InfrequentPairPrunesTriple) {
  const F1ScanResult f1 = MakeF1(10, 6, {9, 8, 7});
  TreeHitStore store(f1.space.full_mask(), 3);
  for (int i = 0; i < 5; ++i) store.AddHit(MaskOf({0, 1, 2}));
  for (int i = 0; i < 3; ++i) store.AddHit(MaskOf({0, 1}));
  for (int i = 0; i < 2; ++i) store.AddHit(MaskOf({1, 2}));

  MiningResult result;
  const DerivationStats stats = DeriveFrequentPatterns(
      f1, 0,
      [&store](const Bitset& mask) { return store.CountSuperpatterns(mask); },
      &result);
  // ab=8, bc=7 frequent; ac=5 < 6 infrequent -> abc never evaluated
  // (its subset ac is missing from the frequent 2-sets).
  EXPECT_EQ(stats.candidates_evaluated, 3u);
  EXPECT_EQ(stats.max_level_reached, 2u);
  EXPECT_EQ(result.size(), 5u);
}

TEST(DerivationTest, LevelOneFiltersBelowThresholdLetters) {
  // Letter c's count (4) is below min_count (5): it must not be emitted nor
  // participate in candidate generation. (This path is exercised by the
  // streaming miner's fixed letter space.)
  const F1ScanResult f1 = MakeF1(10, 5, {9, 8, 4});
  VerticalHitStore store(3);
  for (int i = 0; i < 6; ++i) store.AddHit(MaskOf({0, 1}));

  MiningResult result;
  const DerivationStats stats = DeriveFrequentPatterns(
      f1, 0,
      [&store](const Bitset& mask) { return store.CountSuperpatterns(mask); },
      &result);
  result.Canonicalize();
  EXPECT_EQ(result.size(), 3u);  // a, b, ab.
  EXPECT_EQ(stats.candidates_evaluated, 1u);
  for (const auto& entry : result.patterns()) {
    EXPECT_TRUE(entry.pattern.at(2).Empty());
  }
}

TEST(DerivationTest, MaxLettersCap) {
  const F1ScanResult f1 = MakeF1(10, 1, {9, 8, 7});
  TreeHitStore store(f1.space.full_mask(), 3);
  for (int i = 0; i < 9; ++i) store.AddHit(MaskOf({0, 1, 2}));

  MiningResult result;
  const DerivationStats stats = DeriveFrequentPatterns(
      f1, /*max_letters=*/2,
      [&store](const Bitset& mask) { return store.CountSuperpatterns(mask); },
      &result);
  EXPECT_EQ(stats.max_level_reached, 2u);
  for (const auto& entry : result.patterns()) {
    EXPECT_LE(entry.pattern.LetterCount(), 2u);
  }
}

TEST(DerivationTest, EmptyLetterSpace) {
  F1ScanResult f1;
  f1.num_periods = 5;
  f1.min_count = 2;
  f1.space = LetterSpace(3, {});
  MiningResult result;
  const DerivationStats stats = DeriveFrequentPatterns(
      f1, 0, [](const Bitset&) -> uint64_t { return 0; }, &result);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(stats.max_level_reached, 0u);
  EXPECT_EQ(stats.candidates_evaluated, 0u);
}

}  // namespace
}  // namespace ppm
