#include "core/pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_set>

#include "core/mining_result.h"
#include "util/random.h"

namespace ppm {
namespace {

using tsdb::SymbolTable;
using tsdb::TimeSeries;

TEST(PatternTest, AllStarByDefault) {
  Pattern pattern(4);
  EXPECT_EQ(pattern.period(), 4u);
  EXPECT_EQ(pattern.LLength(), 0u);
  EXPECT_EQ(pattern.LetterCount(), 0u);
  EXPECT_TRUE(pattern.IsEmpty());
  for (uint32_t i = 0; i < 4; ++i) EXPECT_TRUE(pattern.IsStarAt(i));
}

TEST(PatternTest, LLengthVsLetterCount) {
  // Paper's example: a{b,c}*d* is of length 5, L-length 3, 4 letters.
  Pattern pattern(5);
  pattern.AddLetter(0, 0);  // a
  pattern.AddLetter(1, 1);  // b
  pattern.AddLetter(1, 2);  // c
  pattern.AddLetter(3, 3);  // d
  EXPECT_EQ(pattern.LLength(), 3u);
  EXPECT_EQ(pattern.LetterCount(), 4u);
  EXPECT_FALSE(pattern.IsStarAt(0));
  EXPECT_TRUE(pattern.IsStarAt(2));
}

TEST(PatternTest, RemoveLetter) {
  Pattern pattern(2);
  pattern.AddLetter(0, 7);
  pattern.RemoveLetter(0, 7);
  EXPECT_TRUE(pattern.IsEmpty());
}

TEST(PatternTest, SubpatternRelation) {
  Pattern big(3);
  big.AddLetter(0, 0);
  big.AddLetter(1, 1);
  big.AddLetter(1, 2);

  Pattern small(3);
  small.AddLetter(1, 1);

  EXPECT_TRUE(small.IsSubpatternOf(big));
  EXPECT_FALSE(big.IsSubpatternOf(small));
  EXPECT_TRUE(big.IsSubpatternOf(big));
  EXPECT_TRUE(Pattern(3).IsSubpatternOf(small));  // All-star below everything.

  Pattern other_period(4);
  EXPECT_FALSE(other_period.IsSubpatternOf(big));
  EXPECT_FALSE(small.IsSubpatternOf(other_period));
}

TEST(PatternTest, MatchesSegment) {
  TimeSeries series;
  series.AppendNamed({"a"});        // t=0
  series.AppendNamed({"b", "c"});   // t=1
  series.AppendNamed({});           // t=2
  series.AppendNamed({"a", "b"});   // t=3 (second segment)
  series.AppendNamed({"b"});        // t=4
  series.AppendNamed({"d"});        // t=5
  const auto a = *series.symbols().Lookup("a");
  const auto b = *series.symbols().Lookup("b");
  const auto c = *series.symbols().Lookup("c");

  Pattern pattern(3);
  pattern.AddLetter(0, a);
  pattern.AddLetter(1, b);
  EXPECT_TRUE(pattern.MatchesSegment(series, 0));
  EXPECT_TRUE(pattern.MatchesSegment(series, 3));

  pattern.AddLetter(1, c);  // Now requires both b and c at offset 1.
  EXPECT_TRUE(pattern.MatchesSegment(series, 0));
  EXPECT_FALSE(pattern.MatchesSegment(series, 3));

  // All-star matches everything.
  EXPECT_TRUE(Pattern(3).MatchesSegment(series, 0));
}

TEST(PatternTest, UnionAndIntersect) {
  Pattern a(3), b(3);
  a.AddLetter(0, 1);
  a.AddLetter(1, 2);
  b.AddLetter(1, 2);
  b.AddLetter(2, 3);

  const Pattern u = a.UnionWith(b);
  EXPECT_EQ(u.LetterCount(), 3u);
  EXPECT_TRUE(a.IsSubpatternOf(u));
  EXPECT_TRUE(b.IsSubpatternOf(u));

  const Pattern i = a.IntersectWith(b);
  EXPECT_EQ(i.LetterCount(), 1u);
  EXPECT_TRUE(i.IsSubpatternOf(a));
  EXPECT_TRUE(i.IsSubpatternOf(b));
  EXPECT_TRUE(i.at(1).Test(2));
}

TEST(PatternTest, FormatSingleAndGroupAndStar) {
  SymbolTable symbols;
  const auto a = symbols.Intern("a");
  const auto b1 = symbols.Intern("b1");
  const auto b2 = symbols.Intern("b2");
  const auto d = symbols.Intern("d");

  Pattern pattern(5);
  pattern.AddLetter(0, a);
  pattern.AddLetter(1, b1);
  pattern.AddLetter(1, b2);
  pattern.AddLetter(3, d);
  EXPECT_EQ(pattern.Format(symbols), "a {b1,b2} * d *");
}

TEST(PatternTest, ParseRoundTrip) {
  SymbolTable symbols;
  auto parsed = Pattern::Parse("a {b1,b2} * d *", &symbols);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->period(), 5u);
  EXPECT_EQ(parsed->LetterCount(), 4u);
  EXPECT_EQ(parsed->Format(symbols), "a {b1,b2} * d *");
}

TEST(PatternTest, ParseErrors) {
  SymbolTable symbols;
  EXPECT_FALSE(Pattern::Parse("", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("   ", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("{}", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("{a", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("a}b", &symbols).ok());
  EXPECT_FALSE(Pattern::Parse("a,b", &symbols).ok());
}

TEST(PatternTest, ParseSingleStarIsValidEmptyPattern) {
  SymbolTable symbols;
  auto parsed = Pattern::Parse("* * *", &symbols);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->period(), 3u);
  EXPECT_TRUE(parsed->IsEmpty());
}

TEST(PatternTest, EqualityAndHash) {
  Pattern a(3), b(3), c(3);
  a.AddLetter(0, 1);
  b.AddLetter(0, 1);
  c.AddLetter(1, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(PatternHash()(a), PatternHash()(b));

  std::unordered_set<Pattern, PatternHash> set;
  set.insert(a);
  EXPECT_EQ(set.count(b), 1u);
  EXPECT_EQ(set.count(c), 0u);
}

TEST(PatternPropertyTest, FormatParseRoundTripOnRandomPatterns) {
  // Random patterns over random alphabets: Format then Parse must be the
  // identity (given the same symbol table).
  ppm::Rng rng(2025);
  SymbolTable symbols;
  for (int f = 0; f < 12; ++f) symbols.Intern("sym" + std::to_string(f));
  for (int round = 0; round < 200; ++round) {
    const uint32_t period = 1 + static_cast<uint32_t>(rng.NextBelow(8));
    Pattern pattern(period);
    bool nonempty = false;
    for (uint32_t position = 0; position < period; ++position) {
      const int letters = static_cast<int>(rng.NextBelow(3));
      for (int i = 0; i < letters; ++i) {
        pattern.AddLetter(position,
                          static_cast<tsdb::FeatureId>(rng.NextBelow(12)));
        nonempty = true;
      }
    }
    if (!nonempty) pattern.AddLetter(0, 0);
    auto reparsed = Pattern::Parse(pattern.Format(symbols), &symbols);
    ASSERT_TRUE(reparsed.ok()) << pattern.Format(symbols);
    EXPECT_EQ(*reparsed, pattern) << pattern.Format(symbols);
  }
}

TEST(PatternPropertyTest, SubpatternRelationIsPartialOrder) {
  ppm::Rng rng(9);
  std::vector<Pattern> patterns;
  for (int i = 0; i < 20; ++i) {
    Pattern pattern(4);
    for (uint32_t position = 0; position < 4; ++position) {
      if (rng.NextBool(0.5)) {
        pattern.AddLetter(position,
                          static_cast<tsdb::FeatureId>(rng.NextBelow(4)));
      }
    }
    patterns.push_back(std::move(pattern));
  }
  for (const Pattern& a : patterns) {
    EXPECT_TRUE(a.IsSubpatternOf(a));  // Reflexive.
    for (const Pattern& b : patterns) {
      // Antisymmetric.
      if (a.IsSubpatternOf(b) && b.IsSubpatternOf(a)) {
        EXPECT_EQ(a, b);
      }
      for (const Pattern& c : patterns) {
        // Transitive.
        if (a.IsSubpatternOf(b) && b.IsSubpatternOf(c)) {
          EXPECT_TRUE(a.IsSubpatternOf(c));
        }
      }
      // Meet/join interact correctly with the order.
      EXPECT_TRUE(a.IntersectWith(b).IsSubpatternOf(a));
      EXPECT_TRUE(a.IsSubpatternOf(a.UnionWith(b)));
    }
  }
}

TEST(PatternPropertyTest, CanonicalizeSortsByLetterCountThenPatternOrder) {
  // Shuffled random patterns, some with feature ids past the first bitset
  // word and many sharing a letter count, must come out sorted under the
  // canonical comparator with every (pattern, count) pair kept.
  ppm::Rng rng(64);
  for (int round = 0; round < 20; ++round) {
    const uint32_t period = 1 + static_cast<uint32_t>(rng.NextBelow(6));
    std::map<std::string, uint64_t> expected;
    MiningResult result;
    SymbolTable symbols;
    for (int f = 0; f < 140; ++f) symbols.Intern("f" + std::to_string(f));
    for (int i = 0; i < 300; ++i) {
      Pattern pattern(period);
      const int letters = 1 + static_cast<int>(rng.NextBelow(4));
      for (int l = 0; l < letters; ++l) {
        const uint32_t feature = static_cast<uint32_t>(
            rng.NextBool(0.3) ? 60 + rng.NextBelow(80) : rng.NextBelow(8));
        pattern.AddLetter(static_cast<uint32_t>(rng.NextBelow(period)),
                          feature);
      }
      if (!expected.emplace(pattern.Format(symbols), i).second) continue;
      FrequentPattern& entry = result.patterns().emplace_back();
      entry.pattern = std::move(pattern);
      entry.count = static_cast<uint64_t>(i);
    }
    result.Canonicalize();
    EXPECT_TRUE(std::is_sorted(
        result.patterns().begin(), result.patterns().end(),
        [](const FrequentPattern& a, const FrequentPattern& b) {
          const uint32_t la = a.pattern.LetterCount();
          const uint32_t lb = b.pattern.LetterCount();
          if (la != lb) return la < lb;
          return a.pattern < b.pattern;
        }));
    ASSERT_EQ(result.size(), expected.size());
    for (const FrequentPattern& entry : result.patterns()) {
      EXPECT_EQ(expected.at(entry.pattern.Format(symbols)), entry.count);
    }
  }
}

TEST(PatternTest, CanonicalOrderIsStrictWeak) {
  std::vector<Pattern> patterns;
  for (uint32_t pos = 0; pos < 3; ++pos) {
    for (uint32_t f = 0; f < 3; ++f) {
      Pattern p(3);
      p.AddLetter(pos, f);
      patterns.push_back(p);
    }
  }
  std::sort(patterns.begin(), patterns.end());
  for (size_t i = 0; i + 1 < patterns.size(); ++i) {
    EXPECT_TRUE(patterns[i] < patterns[i + 1] ||
                patterns[i] == patterns[i + 1]);
    EXPECT_FALSE(patterns[i + 1] < patterns[i]);
  }
  // Shorter periods order first.
  EXPECT_TRUE(Pattern(2) < Pattern(3));
}

}  // namespace
}  // namespace ppm
