#include "util/bitset.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "util/random.h"

namespace ppm {
namespace {

TEST(BitsetTest, StartsEmpty) {
  Bitset bits;
  EXPECT_TRUE(bits.Empty());
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_FALSE(bits.Test(0));
  EXPECT_FALSE(bits.Test(1000));
  EXPECT_EQ(bits.FindFirst(), Bitset::kNoBit);
}

TEST(BitsetTest, SetTestClear) {
  Bitset bits;
  bits.Set(3);
  bits.Set(64);   // Crosses a word boundary.
  bits.Set(191);  // Third word.
  EXPECT_TRUE(bits.Test(3));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(191));
  EXPECT_FALSE(bits.Test(4));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Clear(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2u);
  bits.Clear(9999);  // Beyond capacity: no-op.
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitsetTest, PresizedConstructor) {
  Bitset bits(130);
  EXPECT_TRUE(bits.Empty());
  bits.Set(129);
  EXPECT_TRUE(bits.Test(129));
}

TEST(BitsetTest, EqualityIgnoresCapacity) {
  Bitset a;
  a.Set(5);
  Bitset b(1024);
  b.Set(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(500);
  EXPECT_NE(a, b);
  b.Clear(500);
  EXPECT_EQ(a, b);
}

TEST(BitsetTest, SubsetAndIntersects) {
  Bitset a, b;
  a.Set(1);
  a.Set(70);
  b.Set(1);
  b.Set(70);
  b.Set(130);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));

  Bitset c;
  c.Set(2);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(c.IsSubsetOf(b) == false);

  Bitset empty;
  EXPECT_TRUE(empty.IsSubsetOf(a));
  EXPECT_FALSE(empty.Intersects(a));
}

TEST(BitsetTest, SetOperations) {
  Bitset a, b;
  a.Set(0);
  a.Set(65);
  b.Set(65);
  b.Set(200);

  Bitset u = a;
  u.UnionWith(b);
  EXPECT_TRUE(u.Test(0));
  EXPECT_TRUE(u.Test(65));
  EXPECT_TRUE(u.Test(200));
  EXPECT_EQ(u.Count(), 3u);

  Bitset i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(65));

  Bitset d = a;
  d.SubtractWith(b);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(0));
}

TEST(BitsetTest, FindNextAndForEachAscending) {
  Bitset bits;
  const std::vector<uint32_t> expected = {0, 63, 64, 127, 128, 300};
  for (uint32_t bit : expected) bits.Set(bit);

  std::vector<uint32_t> via_find;
  for (uint32_t bit = bits.FindFirst(); bit != Bitset::kNoBit;
       bit = bits.FindNext(bit + 1)) {
    via_find.push_back(bit);
  }
  EXPECT_EQ(via_find, expected);
  EXPECT_EQ(bits.ToVector(), expected);
}

TEST(BitsetTest, FindLastSkipsClearedHighWords) {
  Bitset bits(256);
  EXPECT_EQ(bits.FindLast(), Bitset::kNoBit);
  bits.Set(0);
  EXPECT_EQ(bits.FindLast(), 0u);
  bits.Set(63);
  bits.Set(64);
  EXPECT_EQ(bits.FindLast(), 64u);
  bits.Set(200);
  bits.Clear(200);  // Capacity stays, the highest bit does not.
  EXPECT_EQ(bits.FindLast(), 64u);
}

TEST(BitsetTest, ResetClearsEverything) {
  Bitset bits;
  bits.Set(10);
  bits.Set(100);
  bits.Reset();
  EXPECT_TRUE(bits.Empty());
  EXPECT_EQ(bits, Bitset());
}

TEST(BitsetTest, OrderingIsTotalAndConsistent) {
  Bitset a, b, c;
  a.Set(1);
  b.Set(2);
  c.Set(1);
  c.Set(2);
  EXPECT_TRUE(a < b);   // {1} < {2} numerically.
  EXPECT_TRUE(b < c);   // {2} < {1,2}.
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(a < a);
  // Capacity must not affect ordering.
  Bitset wide(512);
  wide.Set(1);
  EXPECT_FALSE(a < wide);
  EXPECT_FALSE(wide < a);
}

TEST(BitsetTest, WorksAsUnorderedKey) {
  std::unordered_set<Bitset, BitsetHash> set;
  Bitset a;
  a.Set(7);
  set.insert(a);
  Bitset b(256);
  b.Set(7);
  EXPECT_EQ(set.count(b), 1u);
}

// Randomized differential test against std::set<uint32_t>.
TEST(BitsetPropertyTest, MatchesReferenceSemantics) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    Bitset bits;
    std::set<uint32_t> reference;
    for (int op = 0; op < 200; ++op) {
      const uint32_t index = static_cast<uint32_t>(rng.NextBelow(300));
      if (rng.NextBool(0.6)) {
        bits.Set(index);
        reference.insert(index);
      } else {
        bits.Clear(index);
        reference.erase(index);
      }
    }
    EXPECT_EQ(bits.Count(), reference.size());
    EXPECT_EQ(bits.ToVector(),
              std::vector<uint32_t>(reference.begin(), reference.end()));
    for (uint32_t probe = 0; probe < 300; ++probe) {
      EXPECT_EQ(bits.Test(probe), reference.count(probe) > 0);
    }
  }
}

TEST(BitsetPropertyTest, SubsetMatchesReference) {
  Rng rng(99);
  for (int round = 0; round < 100; ++round) {
    Bitset a, b;
    std::set<uint32_t> ra, rb;
    for (int i = 0; i < 30; ++i) {
      const uint32_t bit = static_cast<uint32_t>(rng.NextBelow(100));
      if (rng.NextBool(0.5)) {
        a.Set(bit);
        ra.insert(bit);
      }
      if (rng.NextBool(0.5)) {
        b.Set(bit);
        rb.insert(bit);
      }
    }
    const bool ref_subset =
        std::includes(rb.begin(), rb.end(), ra.begin(), ra.end());
    EXPECT_EQ(a.IsSubsetOf(b), ref_subset);
  }
}

}  // namespace
}  // namespace ppm
