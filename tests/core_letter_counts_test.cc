#include "core/letter_counts.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace ppm {
namespace {

using Entry = std::pair<Letter, uint64_t>;

std::vector<Entry> NonZero(const LetterCounts& counts) {
  std::vector<Entry> entries;
  counts.ForEachNonZero([&entries](const Letter& letter, uint64_t count) {
    entries.emplace_back(letter, count);
  });
  return entries;
}

tsdb::FeatureSet Features(std::initializer_list<uint32_t> ids) {
  tsdb::FeatureSet features;
  for (const uint32_t id : ids) features.Set(id);
  return features;
}

TEST(LetterCountsTest, ForEachNonZeroAscendsByPositionThenFeature) {
  LetterCounts counts(3);
  counts.Add(2, Features({5, 1}));
  counts.Add(0, Features({9}));
  counts.Add(Letter{1, 3}, 4);
  counts.Add(0, Features({2, 9}));
  counts.Add(1, Features({}));  // An empty instant counts nothing.
  EXPECT_EQ(NonZero(counts), (std::vector<Entry>{{Letter{0, 2}, 1},
                                                 {Letter{0, 9}, 2},
                                                 {Letter{1, 3}, 4},
                                                 {Letter{2, 1}, 1},
                                                 {Letter{2, 5}, 1}}));
  EXPECT_EQ(counts.count(Letter{0, 9}), 2u);
  EXPECT_EQ(counts.count(Letter{0, 100}), 0u);  // Beyond the row: zero.
}

TEST(LetterCountsTest, RowsGrowPastAWordBoundary) {
  LetterCounts counts(1);
  counts.Add(0, Features({3, 63}));
  const uint64_t one_word = counts.ApproxMemoryBytes();
  counts.Add(0, Features({3, 64, 130}));  // A feature set of three words.
  EXPECT_GT(counts.ApproxMemoryBytes(), one_word);
  EXPECT_EQ(NonZero(counts), (std::vector<Entry>{{Letter{0, 3}, 2},
                                                 {Letter{0, 63}, 1},
                                                 {Letter{0, 64}, 1},
                                                 {Letter{0, 130}, 1}}));
}

TEST(LetterCountsTest, MergeSumsTablesOfDifferentRowWidths) {
  LetterCounts narrow(2);
  narrow.Add(0, Features({1}));
  narrow.Add(1, Features({0, 200}));
  LetterCounts wide(2);
  wide.Add(0, Features({1, 100}));
  wide.Add(1, Features({0}));

  LetterCounts merged = narrow;
  merged.Merge(wide);
  EXPECT_EQ(NonZero(merged), (std::vector<Entry>{{Letter{0, 1}, 2},
                                                 {Letter{0, 100}, 1},
                                                 {Letter{1, 0}, 2},
                                                 {Letter{1, 200}, 1}}));
  // Merging is addition: either order gives the same table.
  LetterCounts other_way = wide;
  other_way.Merge(narrow);
  EXPECT_EQ(merged, other_way);
}

TEST(LetterCountsTest, RemoveToZeroDropsTheLetter) {
  LetterCounts counts(2);
  counts.Add(Letter{1, 7}, 3);
  counts.Add(Letter{1, 2}, 1);
  counts.Remove(Letter{1, 7}, 2);
  EXPECT_EQ(counts.count(Letter{1, 7}), 1u);
  counts.Remove(Letter{1, 7}, 1);
  EXPECT_EQ(NonZero(counts), (std::vector<Entry>{{Letter{1, 2}, 1}}));

  // Equality ignores the width a removed letter left behind.
  LetterCounts fresh(2);
  fresh.Add(Letter{1, 2}, 1);
  EXPECT_EQ(counts, fresh);
  fresh.Add(Letter{0, 0}, 1);
  EXPECT_NE(counts, fresh);
}

TEST(LetterCountsTest, ApproxMemoryBytesTracksRowCapacity) {
  const uint64_t header = 4 * sizeof(std::vector<uint64_t>);
  LetterCounts counts(4);
  EXPECT_EQ(counts.ApproxMemoryBytes(), header);
  counts.Add(Letter{2, 9}, 1);  // Row 2 holds ids 0..9.
  EXPECT_EQ(counts.ApproxMemoryBytes(), header + 10 * sizeof(uint64_t));
  counts.Add(Letter{2, 4}, 1);  // Within the row: no growth.
  counts.Add(Letter{0, 19}, 1);
  EXPECT_EQ(counts.ApproxMemoryBytes(), header + 30 * sizeof(uint64_t));
  // Once every id below 20 is seen everywhere, the table sits exactly at
  // its bound.
  for (uint32_t position = 0; position < 4; ++position) {
    counts.Add(Letter{position, 19}, 1);
  }
  EXPECT_EQ(counts.ApproxMemoryBytes(), LetterCounts::BoundBytes(4, 20));
}

}  // namespace
}  // namespace ppm
