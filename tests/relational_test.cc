#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "relational/database.h"
#include "relational/projection.h"
#include "relational/relation.h"
#include "relational/sorted_index.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace cqc {
namespace {

TEST(RelationTest, SealSortsAndDedups) {
  Relation r("R", 2);
  r.Insert({3, 1});
  r.Insert({1, 2});
  r.Insert({3, 1});
  r.Insert({1, 1});
  r.Seal();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.At(0, 0), 1u);
  EXPECT_EQ(r.At(0, 1), 1u);
  EXPECT_EQ(r.At(1, 0), 1u);
  EXPECT_EQ(r.At(1, 1), 2u);
  EXPECT_EQ(r.At(2, 0), 3u);
}

TEST(RelationTest, ActiveDomains) {
  Relation r("R", 2);
  r.Insert({3, 10});
  r.Insert({1, 10});
  r.Insert({3, 20});
  r.Seal();
  EXPECT_EQ(r.ActiveDomain(0), (std::vector<Value>{1, 3}));
  EXPECT_EQ(r.ActiveDomain(1), (std::vector<Value>{10, 20}));
}

TEST(RelationTest, Contains) {
  Relation r("R", 3);
  r.Insert({1, 2, 3});
  r.Insert({4, 5, 6});
  r.Seal();
  EXPECT_TRUE(r.Contains(Tuple{1, 2, 3}));
  EXPECT_TRUE(r.Contains(Tuple{4, 5, 6}));
  EXPECT_FALSE(r.Contains(Tuple{1, 2, 4}));
  EXPECT_FALSE(r.Contains(Tuple{0, 0, 0}));
}

TEST(RelationTest, EmptyRelation) {
  Relation r("R", 2);
  r.Seal();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains(Tuple{1, 2}));
  EXPECT_TRUE(r.ActiveDomain(0).empty());
}

TEST(SortedIndexTest, PermutedOrder) {
  Relation r("R", 2);
  r.Insert({1, 9});
  r.Insert({2, 5});
  r.Insert({3, 5});
  r.Seal();
  const SortedIndex& idx = r.GetIndex({1, 0});
  // Sorted by column 1 first: (5,2),(5,3),(9,1).
  EXPECT_EQ(idx.ValueAt(0, 0), 5u);
  EXPECT_EQ(idx.ValueAt(1, 0), 2u);
  EXPECT_EQ(idx.ValueAt(0, 2), 9u);
  EXPECT_EQ(idx.ValueAt(1, 2), 1u);
}

TEST(SortedIndexTest, RefineAndRange) {
  Relation r("R", 2);
  for (Value a = 1; a <= 5; ++a)
    for (Value b = 1; b <= 4; ++b) r.Insert({a, b});
  r.Seal();
  const SortedIndex& idx = r.GetIndex({0, 1});
  RowRange root = idx.Root();
  EXPECT_EQ(root.size(), 20u);
  RowRange a3 = idx.Refine(root, 0, 3);
  EXPECT_EQ(a3.size(), 4u);
  RowRange b24 = idx.RefineRange(a3, 1, 2, 4);
  EXPECT_EQ(b24.size(), 3u);
  RowRange missing = idx.Refine(root, 0, 42);
  EXPECT_TRUE(missing.empty());
  RowRange inverted = idx.RefineRange(root, 0, 4, 2);
  EXPECT_TRUE(inverted.empty());
}

TEST(SortedIndexTest, CountDistinct) {
  Relation r("R", 2);
  r.Insert({1, 1});
  r.Insert({1, 2});
  r.Insert({2, 1});
  r.Insert({5, 9});
  r.Seal();
  const SortedIndex& idx = r.GetIndex({0, 1});
  EXPECT_EQ(idx.CountDistinct(idx.Root(), 0), 3u);
  RowRange a1 = idx.Refine(idx.Root(), 0, 1);
  EXPECT_EQ(idx.CountDistinct(a1, 1), 2u);
}

TEST(SortedIndexTest, MinMaxAndNextDistinct) {
  Relation r("R", 1);
  for (Value v : {5, 2, 9, 2, 7}) r.Insert({v});
  r.Seal();
  const SortedIndex& idx = r.GetIndex({0});
  RowRange root = idx.Root();
  EXPECT_EQ(idx.MinValue(root, 0), 2u);
  EXPECT_EQ(idx.MaxValue(root, 0), 9u);
  size_t pos = idx.NextDistinct(root, 0, 2);
  EXPECT_EQ(idx.ValueAt(0, pos), 5u);
}

TEST(SortedIndexTest, MatchesRelationUnderRandomData) {
  Database db;
  Rng rng(123);
  Relation* r = db.AddRelation("R", 3);
  for (int i = 0; i < 500; ++i)
    r->Insert({rng.UniformRange(1, 20), rng.UniformRange(1, 20),
               rng.UniformRange(1, 20)});
  r->Seal();
  const SortedIndex& idx = r->GetIndex({2, 0, 1});
  // Every refinement chain should reproduce Relation::Contains.
  Rng probe(55);
  for (int i = 0; i < 200; ++i) {
    Tuple t{probe.UniformRange(1, 20), probe.UniformRange(1, 20),
            probe.UniformRange(1, 20)};
    RowRange range = idx.Root();
    range = idx.Refine(range, 0, t[2]);
    range = idx.Refine(range, 1, t[0]);
    range = idx.Refine(range, 2, t[1]);
    EXPECT_EQ(!range.empty(), r->Contains(t));
  }
}

// Sorted adversarial columns: long duplicate runs, 1-element runs,
// near-miss tails, extreme values, and random mixtures.
std::vector<std::vector<Value>> AdversarialColumns() {
  std::vector<std::vector<Value>> cols;
  cols.push_back({});                     // empty
  cols.push_back({7});                    // singleton
  cols.push_back(std::vector<Value>(300, 42));  // one giant run
  {
    std::vector<Value> c;  // runs of varied lengths incl. 1
    for (size_t len : {1, 2, 3, 1, 5, 17, 1, 64, 257, 1, 33})
      c.insert(c.end(), len, c.empty() ? 0 : c.back() + 1);
    cols.push_back(std::move(c));
  }
  {
    std::vector<Value> c(500);  // strictly increasing (all runs length 1)
    for (size_t i = 0; i < c.size(); ++i) c[i] = i * 3 + 1;
    cols.push_back(std::move(c));
  }
  {
    std::vector<Value> c;  // near-miss tail: v-1 repeated, then v, then max
    c.insert(c.end(), 130, 999);
    c.push_back(1000);
    c.insert(c.end(), 40, UINT64_MAX - 1);
    c.insert(c.end(), 17, UINT64_MAX);
    cols.push_back(std::move(c));
  }
  Rng rng(123);
  for (size_t n : {9, 31, 100, 1000, 4097}) {
    std::vector<Value> c(n);  // random with duplicates, then sorted
    for (auto& v : c) v = rng.Uniform(n / 2 + 1) * 7;
    std::sort(c.begin(), c.end());
    cols.push_back(std::move(c));
  }
  return cols;
}

TEST(SortedColumnTest, GallopSeekGEMatchesLowerBoundEverywhere) {
  const auto columns = AdversarialColumns();
  Rng rng(7);
  for (const auto& col : columns) {
    const size_t end = col.size();
    std::vector<Value> probes = {0, 1, UINT64_MAX, UINT64_MAX - 1};
    for (int i = 0; i < 40 && !col.empty(); ++i) {
      const Value v = col[rng.Uniform(end)];
      probes.push_back(v);
      probes.push_back(v == 0 ? 0 : v - 1);
      probes.push_back(v == UINT64_MAX ? v : v + 1);
    }
    std::vector<size_t> begins = {0};
    if (end > 0) begins.insert(begins.end(), {end / 2, end - 1, end});
    for (size_t begin : begins) {
      for (Value v : probes) {
        const size_t want =
            std::lower_bound(col.data() + begin, col.data() + end, v) -
            col.data();
        EXPECT_EQ(GallopSeekGE(col.data(), begin, end, v), want)
            << "n=" << end << " begin=" << begin << " v=" << v;
      }
    }
  }
}

TEST(SortedColumnTest, RunEndInColumnMatchesLinearReference) {
  const auto columns = AdversarialColumns();
  for (const auto& col : columns) {
    const size_t end = col.size();
    // Every position, not just run heads: the contract is
    // "first i in (pos, end) with col[i] != col[pos]".
    for (size_t pos = 0; pos < end; ++pos) {
      size_t want = pos + 1;
      while (want < end && col[want] == col[pos]) ++want;
      ASSERT_EQ(RunEndInColumn(col.data(), pos, end), want)
          << "n=" << end << " pos=" << pos;
    }
  }
}

TEST(DatabaseTest, AddFindSeal) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 2});
  db.SealAll();
  EXPECT_EQ(db.Find("R"), r);
  EXPECT_EQ(db.Find("S"), nullptr);
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, FallbackChaining) {
  Database base;
  testing::AddRelation(base, "R", 1, {{1}});
  Database local;
  testing::AddRelation(local, "S", 1, {{2}});
  local.SetFallback(&base);
  EXPECT_NE(local.Find("S"), nullptr);
  EXPECT_NE(local.Find("R"), nullptr);
  EXPECT_EQ(local.Find("T"), nullptr);
  EXPECT_EQ(base.Find("S"), nullptr);
}

TEST(ProjectionTest, DistinctProjection) {
  Database db;
  Relation* r = testing::AddRelation(db, "R", 3,
                                     {{1, 2, 3}, {1, 2, 4}, {5, 2, 3}});
  auto p = ProjectDistinct(*r, {1, 0}, "P");
  EXPECT_EQ(p->size(), 2u);  // (2,1) and (2,5)
  EXPECT_TRUE(p->Contains(Tuple{2, 1}));
  EXPECT_TRUE(p->Contains(Tuple{2, 5}));
}

TEST(ProjectionTest, FilterProjectConstantsAndRepeats) {
  Database db;
  // Example 3: R'(x,y) = R(x,y,a) with a = 7.
  Relation* r = testing::AddRelation(
      db, "R", 3, {{1, 2, 7}, {1, 3, 8}, {4, 5, 7}, {4, 5, 7}});
  auto rp = FilterProject(*r, {{2, 7}}, {}, {0, 1}, "Rp");
  EXPECT_EQ(rp->size(), 2u);
  EXPECT_TRUE(rp->Contains(Tuple{1, 2}));
  EXPECT_TRUE(rp->Contains(Tuple{4, 5}));
  // S'(y,z) = S(y,y,z).
  Relation* s = testing::AddRelation(db, "S", 3,
                                     {{2, 2, 9}, {2, 3, 9}, {4, 4, 1}});
  auto sp = FilterProject(*s, {}, {{0, 1}}, {0, 2}, "Sp");
  EXPECT_EQ(sp->size(), 2u);
  EXPECT_TRUE(sp->Contains(Tuple{2, 9}));
  EXPECT_TRUE(sp->Contains(Tuple{4, 1}));
}

}  // namespace
}  // namespace cqc
