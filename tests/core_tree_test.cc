#include "core/max_subpattern_tree.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/hit_store.h"
#include "util/random.h"

namespace ppm {
namespace {

Bitset MaskOf(std::initializer_list<uint32_t> bits) {
  Bitset mask;
  for (uint32_t bit : bits) mask.Set(bit);
  return mask;
}

Bitset FullMask(uint32_t n) {
  Bitset mask;
  for (uint32_t bit = 0; bit < n; ++bit) mask.Set(bit);
  return mask;
}

TEST(MaxSubpatternTreeTest, StartsWithRootOnly) {
  MaxSubpatternTree tree(FullMask(4), 4);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.num_hits(), 0u);
  EXPECT_EQ(tree.total_hit_count(), 0u);
}

TEST(MaxSubpatternTreeTest, InsertRootHit) {
  MaxSubpatternTree tree(FullMask(4), 4);
  tree.Insert(FullMask(4));
  tree.Insert(FullMask(4));
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.num_hits(), 1u);
  EXPECT_EQ(tree.total_hit_count(), 2u);
  EXPECT_EQ(tree.CountSuperpatterns(MaskOf({0, 3})), 2u);
}

TEST(MaxSubpatternTreeTest, InsertCreatesPathNodesWithZeroCount) {
  // Paper Section 4: inserting *b1*d* under C_max = a{b1,b2}*d* creates the
  // node with count 1 plus missing ancestors with count 0.
  // Letters: 0=a@0, 1=b1@1, 2=b2@1, 3=d@3. *b1*d* = {1,3}, missing {0,2}.
  MaxSubpatternTree tree(FullMask(4), 4);
  tree.Insert(MaskOf({1, 3}));
  // Path: root -> remove 0 -> remove 2. Creates 2 new nodes.
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_EQ(tree.num_hits(), 1u);

  // Interior node {1,2,3} exists with count 0.
  std::map<std::vector<uint32_t>, uint64_t> nodes;
  tree.ForEachNode([&nodes](const Bitset& mask, uint64_t count) {
    nodes[mask.ToVector()] = count;
  });
  ASSERT_TRUE(nodes.contains({1, 2, 3}));
  EXPECT_EQ((nodes[{1, 2, 3}]), 0u);
  ASSERT_TRUE(nodes.contains({1, 3}));
  EXPECT_EQ((nodes[{1, 3}]), 1u);
}

TEST(MaxSubpatternTreeTest, ReinsertIncrementsExistingNode) {
  MaxSubpatternTree tree(FullMask(4), 4);
  tree.Insert(MaskOf({1, 3}));
  tree.Insert(MaskOf({1, 3}));
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_EQ(tree.num_hits(), 1u);
  EXPECT_EQ(tree.total_hit_count(), 2u);
}

TEST(MaxSubpatternTreeTest, SharedPrefixPathsShareNodes) {
  MaxSubpatternTree tree(FullMask(4), 4);
  tree.Insert(MaskOf({1, 3}));  // missing {0,2}
  tree.Insert(MaskOf({1, 2}));  // missing {0,3}
  // Both paths go through node {1,2,3} (missing 0).
  std::map<std::vector<uint32_t>, uint64_t> nodes;
  tree.ForEachNode([&nodes](const Bitset& mask, uint64_t count) {
    nodes[mask.ToVector()] = count;
  });
  EXPECT_EQ(tree.num_nodes(), 4u);  // root, {1,2,3}, {1,3}, {1,2}.
  EXPECT_TRUE(nodes.contains({1, 2, 3}));
}

TEST(MaxSubpatternTreeTest, CountSuperpatternsSumsAncestors) {
  // Mirror of the paper's Example 4.3 flavor: several hits, counts derived
  // by summing over superpattern nodes.
  MaxSubpatternTree tree(FullMask(4), 4);
  tree.Insert(FullMask(4));          // a{b1,b2}*d*      x10
  for (int i = 0; i < 9; ++i) tree.Insert(FullMask(4));
  tree.Insert(MaskOf({1, 2, 3}));    // *{b1,b2}*d*      x50
  for (int i = 0; i < 49; ++i) tree.Insert(MaskOf({1, 2, 3}));
  tree.Insert(MaskOf({0, 1, 3}));    // ab1*d*           x8
  for (int i = 0; i < 7; ++i) tree.Insert(MaskOf({0, 1, 3}));

  // freq(*b1*d*) = hits of all supersets of {1,3}: 10 + 50 + 8 = 68.
  EXPECT_EQ(tree.CountSuperpatterns(MaskOf({1, 3})), 68u);
  // freq(a***?) -- letter {0}: 10 + 8 = 18.
  EXPECT_EQ(tree.CountSuperpatterns(MaskOf({0})), 18u);
  // freq(a{b1,b2}*d*) = 10.
  EXPECT_EQ(tree.CountSuperpatterns(FullMask(4)), 10u);
  // freq of empty mask = all hits.
  EXPECT_EQ(tree.CountSuperpatterns(Bitset()), 68u);
}

TEST(MaxSubpatternTreeTest, ReachableAncestorHits) {
  MaxSubpatternTree tree(FullMask(4), 4);
  tree.Insert(FullMask(4));
  tree.Insert(MaskOf({1, 2, 3}));
  tree.Insert(MaskOf({1, 3}));

  const auto ancestors = tree.ReachableAncestorHits(MaskOf({1, 3}));
  // Proper superpatterns with nonzero count: full and {1,2,3}.
  EXPECT_EQ(ancestors.size(), 2u);
  for (const Bitset& mask : ancestors) {
    EXPECT_TRUE(MaskOf({1, 3}).IsSubsetOf(mask));
    EXPECT_NE(mask, MaskOf({1, 3}));
  }
}

TEST(MaxSubpatternTreeTest, NodeCountBoundedByHitsTimesLetters) {
  // Section 4 analysis: total nodes < n_d * |H| (+1 for the root).
  Rng rng(321);
  const uint32_t n = 10;
  MaxSubpatternTree tree(FullMask(n), n);
  for (int i = 0; i < 200; ++i) {
    Bitset mask;
    for (uint32_t bit = 0; bit < n; ++bit) {
      if (rng.NextBool(0.5)) mask.Set(bit);
    }
    if (mask.Count() < 2) continue;
    tree.Insert(mask);
  }
  EXPECT_LE(tree.num_nodes(), uint64_t{n} * tree.num_hits() + 1);
}

// Differential test: the tree and the vertical store must both agree with a
// flat multiset, through insertions, evictions, and re-insertions that
// reuse freed vertical slots.
TEST(HitStorePropertyTest, TreeAndVerticalMatchFlatCounting) {
  Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    const uint32_t n = 3 + static_cast<uint32_t>(rng.NextBelow(8));
    MaxSubpatternTree tree(FullMask(n), n);
    VerticalHitStore vertical(n);
    std::vector<Bitset> hits;
    const auto add_hits = [&](int num_hits) {
      for (int i = 0; i < num_hits; ++i) {
        Bitset mask;
        for (uint32_t bit = 0; bit < n; ++bit) {
          if (rng.NextBool(0.4)) mask.Set(bit);
        }
        if (mask.Count() < 2) continue;
        tree.Insert(mask);
        vertical.AddHit(mask);
        hits.push_back(mask);
      }
    };
    add_hits(1 + static_cast<int>(rng.NextBelow(60)));
    for (size_t i = 0; i < hits.size();) {
      if (rng.NextBool(0.3)) {
        tree.Remove(hits[i], 1);
        vertical.RemoveHits(hits[i], 1);
        hits.erase(hits.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    add_hits(static_cast<int>(rng.NextBelow(20)));

    // Check a sample of query masks, including empty and full.
    for (int q = 0; q < 40; ++q) {
      Bitset query;
      for (uint32_t bit = 0; bit < n; ++bit) {
        if (rng.NextBool(0.3)) query.Set(bit);
      }
      uint64_t expected = 0;
      for (const Bitset& hit : hits) {
        if (query.IsSubsetOf(hit)) ++expected;
      }
      EXPECT_EQ(tree.CountSuperpatterns(query), expected);
      EXPECT_EQ(vertical.CountSuperpatterns(query), expected);
    }
    EXPECT_EQ(tree.CountSuperpatterns(Bitset()), hits.size());
    EXPECT_EQ(vertical.CountSuperpatterns(Bitset()), hits.size());
    EXPECT_EQ(vertical.CountSuperpatterns(FullMask(n + 1)), 0u);
    EXPECT_EQ(tree.num_hits(), vertical.num_entries());
  }
}

TEST(VerticalHitStoreTest, SlotsAcrossWordsAndQueriesPastStackScratch) {
  // 150 slots span three column words; 80 letters let a query carry more
  // columns than the per-call stack buffer holds.
  const uint32_t n = VerticalHitStore::kStackLetters + 16;
  Rng rng(77);
  VerticalHitStore store(n);
  std::map<Bitset, uint64_t> hits;
  while (hits.size() < 150) {
    Bitset mask;
    for (uint32_t bit = 0; bit < n; ++bit) {
      if (rng.NextBool(0.95)) mask.Set(bit);
    }
    const uint64_t count = 1 + rng.NextBelow(3);
    store.AddHits(mask, count);
    hits[mask] += count;
  }
  ASSERT_EQ(store.num_entries(), 150u);

  // Sparse random queries, plus every stored mask (about 76 letters each,
  // past kStackLetters) so each slot, the partial last word included, is
  // queried at least once.
  std::vector<Bitset> queries;
  for (int q = 0; q < 30; ++q) {
    Bitset query;
    for (uint32_t bit = 0; bit < n; ++bit) {
      if (rng.NextBool(0.05)) query.Set(bit);
    }
    queries.push_back(query);
  }
  for (const auto& [hit, count] : hits) queries.push_back(hit);
  for (const Bitset& query : queries) {
    uint64_t expected = 0;
    for (const auto& [hit, count] : hits) {
      if (query.IsSubsetOf(hit)) expected += count;
    }
    EXPECT_EQ(store.CountSuperpatterns(query), expected);
  }
}

TEST(VerticalHitStoreTest, FreedSlotIsReusedWithoutStaleColumnBits) {
  VerticalHitStore store(6);
  store.AddHits(MaskOf({0, 1, 2}), 3);  // slot 0
  store.AddHits(MaskOf({3, 4}), 2);     // slot 1
  store.RemoveHits(MaskOf({0, 1, 2}), 1);
  EXPECT_EQ(store.CountSuperpatterns(MaskOf({0, 2})), 2u);
  store.RemoveHits(MaskOf({0, 1, 2}), 2);  // slot 0 freed
  EXPECT_EQ(store.num_entries(), 1u);
  EXPECT_EQ(store.CountSuperpatterns(MaskOf({0})), 0u);

  store.AddHits(MaskOf({1, 5}), 4);  // reuses slot 0
  EXPECT_EQ(store.num_units(), 2u);
  EXPECT_EQ(store.CountSuperpatterns(MaskOf({0})), 0u);
  EXPECT_EQ(store.CountSuperpatterns(MaskOf({2})), 0u);
  EXPECT_EQ(store.CountSuperpatterns(MaskOf({1})), 4u);
  EXPECT_EQ(store.CountSuperpatterns(MaskOf({1, 5})), 4u);
  EXPECT_EQ(store.CountSuperpatterns(MaskOf({1, 2})), 0u);
  EXPECT_EQ(store.CountSuperpatterns(Bitset()), 6u);

  // Slot order: the reused slot 0 comes first.
  std::vector<std::pair<std::vector<uint32_t>, uint64_t>> visited;
  store.ForEachHit([&visited](const Bitset& mask, uint64_t count) {
    visited.emplace_back(mask.ToVector(), count);
  });
  const std::vector<std::pair<std::vector<uint32_t>, uint64_t>> expected = {
      {{1, 5}, 4}, {{3, 4}, 2}};
  EXPECT_EQ(visited, expected);
}

TEST(HitStoreTest, FactoryDispatch) {
  const Bitset full = FullMask(3);
  auto tree_store = MakeHitStore(HitStoreKind::kMaxSubpatternTree, full, 3);
  auto vertical_store = MakeHitStore(HitStoreKind::kVertical, full, 3);
  tree_store->AddHit(MaskOf({0, 1}));
  vertical_store->AddHit(MaskOf({0, 1}));
  EXPECT_EQ(tree_store->CountSuperpatterns(MaskOf({0})), 1u);
  EXPECT_EQ(vertical_store->CountSuperpatterns(MaskOf({0})), 1u);
  EXPECT_EQ(tree_store->num_entries(), 1u);
  EXPECT_EQ(vertical_store->num_entries(), 1u);
  // The tree also reports interior nodes.
  EXPECT_GE(tree_store->num_units(), tree_store->num_entries());
}

}  // namespace
}  // namespace ppm
