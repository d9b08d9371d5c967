// RepCache tests: hit/miss accounting, canonical-key sharing, LRU
// eviction, error paths, end-to-end serving, and the single-flight
// guarantee under concurrent requests for the same key.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "plan/rep_cache.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::OracleAnswer;
using testing::SortedCopy;

Database MakeTriangleDb(uint64_t m = 8) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", m);
  return db;
}

constexpr char kTriangle[] = "Q^bfb(x,y,z) = R(x,y), R(y,z), R(z,x)";

TEST(RepCache, SecondGetIsAHit) {
  Database db = MakeTriangleDb();
  RepCache cache(&db);
  auto first = cache.Get(kTriangle, 1.2);
  ASSERT_TRUE(first.ok()) << first.status().message();
  auto second = cache.Get(kTriangle, 1.2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RepCache, AlphaRenamedQuerySharesTheEntry) {
  Database db = MakeTriangleDb();
  RepCache cache(&db);
  auto a = cache.Get("Q^bfb(x,y,z) = R(x,y), R(y,z), R(z,x)", 1.2);
  auto b = cache.Get("Q^bfb(u,v,w) = R(u,v), R(v,w), R(w,u)", 1.2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(RepCache, BudgetIsPartOfTheKey) {
  Database db = MakeTriangleDb();
  RepCache cache(&db);
  auto a = cache.Get(kTriangle, 2.0);
  auto b = cache.Get(kTriangle, 1.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().get(), b.value().get());
  EXPECT_EQ(cache.stats().builds, 2u);
  // The tighter budget may not pick a larger-space structure.
  EXPECT_LE(b.value()->plan().predicted_log_space,
            a.value()->plan().predicted_log_space + 1e-6);
}

TEST(RepCache, LruEvictionKeepsHandlesAlive) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.capacity = 2;
  RepCache cache(&db, options);
  auto a = cache.Get(kTriangle, 1.0);
  auto b = cache.Get(kTriangle, 1.5);
  auto c = cache.Get(kTriangle, 2.0);  // evicts the 1.0 entry
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The evicted handle still serves (shared ownership)...
  auto e = a.value()->rep().Answer({1, 9});
  EXPECT_TRUE(e.ok());
  // ...and re-requesting it is a fresh build.
  auto a2 = cache.Get(kTriangle, 1.0);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(cache.stats().builds, 4u);
  EXPECT_NE(a.value().get(), a2.value().get());
}

TEST(RepCache, ErrorsAreReportedAndNotCached) {
  Database db = MakeTriangleDb();
  RepCache cache(&db);
  EXPECT_FALSE(cache.Get("not a view").ok());           // parse error
  auto missing = cache.Get("Q^bf(x,y) = NOPE(x,y)");    // unknown relation
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(cache.stats().build_failures, 1u);
  EXPECT_EQ(cache.size(), 0u);
  // A failed key retries (and fails again) instead of serving the error.
  EXPECT_FALSE(cache.Get("Q^bf(x,y) = NOPE(x,y)").ok());
  EXPECT_EQ(cache.stats().build_failures, 2u);
}

TEST(RepCache, ServesCorrectAnswersIncludingNormalizedViews) {
  Database db;
  testing::AddRelation(db, "R", 3, {{1, 2, 7}, {1, 3, 7}, {2, 2, 5}});
  RepCache cache(&db);
  // Constant in the body: the entry owns the derived aux relation.
  auto entry = cache.Get("Q^bf(x,y) = R(x,y,7)");
  ASSERT_TRUE(entry.ok()) << entry.status().message();
  auto parsed = ParseAdornedView("Q^bf(x,y) = R(x,y,7)");
  ASSERT_TRUE(parsed.ok());
  for (Value x : {Value{1}, Value{2}, Value{3}}) {
    auto e = entry.value()->rep().Answer({x});
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(SortedCopy(CollectAll(*e.value())),
              OracleAnswer(parsed.value(), db, {x}));
  }
  EXPECT_FALSE(entry.value()->plan().Explain().empty());
}

TEST(RepCache, SingleFlightCoalescesConcurrentBuilds) {
  // A bigger instance so the build takes long enough for real overlap.
  Database db = MakeTriangleDb(24);
  RepCache cache(&db);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedRep>> got(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto r = cache.Get(kTriangle, 1.4);
      if (r.ok())
        got[t] = r.value();
      else
        ++failures;
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t].get(), got[0].get());
  const RepCacheStats stats = cache.stats();
  // The heart of single-flight: exactly one build ever ran, and every
  // other request either coalesced onto it or hit the finished entry.
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, (uint64_t)kThreads - 1);
}

TEST(RepCache, DeltaStatsCountOnlySuccessfulAbsorbs) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.planner.churn_per_request = 0.5;  // plan an updatable structure
  RepCache cache(&db, options);
  auto entry = cache.Get(kTriangle);
  ASSERT_TRUE(entry.ok()) << entry.status().message();
  ASSERT_TRUE(entry.value()->rep().capabilities().updatable);

  ASSERT_TRUE(
      cache.ApplyDelta(entry.value()->key(), {UpdateOp::Insert("R", {1, 2})})
          .ok());
  EXPECT_EQ(cache.stats().deltas_applied, 1u);
  EXPECT_EQ(cache.stats().delta_failures, 0u);

  // A malformed op (arity mismatch) is a *failure*, not an application:
  // the old accounting counted the entry before the absorb ran.
  EXPECT_FALSE(cache
                   .ApplyDelta(entry.value()->key(),
                               {UpdateOp::Insert("R", {1, 2, 3})})
                   .ok());
  EXPECT_EQ(cache.stats().deltas_applied, 1u);
  EXPECT_EQ(cache.stats().delta_failures, 1u);

  // A batch this view never reads touches nothing and counts nothing.
  ASSERT_TRUE(
      cache.ApplyDelta(entry.value()->key(), {UpdateOp::Insert("S", {1, 2})})
          .ok());
  EXPECT_EQ(cache.stats().deltas_applied, 1u);
  EXPECT_EQ(cache.stats().delta_failures, 1u);
  cache.WaitForRebuilds();
}

TEST(RepCache, LiteralDerivedLookingNameIsNotInvalidated) {
  // A *base* relation whose own name matches the derived-relation pattern
  // must not be routed as if it were derived from "R". The old heuristic
  // (substring match on "__n") invalidated this entry on every R mutation.
  Database db;
  testing::AddRelation(db, "R__n2", 2, {{1, 2}, {2, 3}});
  testing::AddRelation(db, "R", 2, {{5, 6}});
  RepCache cache(&db);
  auto looks_derived = cache.Get("Q^bf(x,y) = R__n2(x,y)");
  ASSERT_TRUE(looks_derived.ok()) << looks_derived.status().message();
  auto over_r = cache.Get("Q^bf(x,y) = R(x,y)");
  ASSERT_TRUE(over_r.ok());

  ASSERT_TRUE(
      cache.ApplyDelta(over_r.value()->key(), {UpdateOp::Insert("R", {7, 8})})
          .ok());
  // Only the entry actually reading R was invalidated.
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 1u);
  auto again = cache.Get("Q^bf(x,y) = R__n2(x,y)");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), looks_derived.value().get());  // a hit
}

TEST(RepCache, GenuinelyDerivedEntriesStillInvalidate) {
  // The counterpart guard: views the normalizer rewrote (constant in the
  // body -> aux relation R__n0) must still be invalidated when the base
  // relation mutates — a static copy of a filtered R cannot absorb deltas.
  Database db;
  testing::AddRelation(db, "R", 3, {{1, 2, 7}, {2, 3, 7}});
  RepCache cache(&db);
  auto entry = cache.Get("Q^bf(x,y) = R(x,y,7)");
  ASSERT_TRUE(entry.ok()) << entry.status().message();
  ASSERT_FALSE(entry.value()->derived_sources().empty());
  ASSERT_TRUE(
      cache.ApplyDelta(entry.value()->key(), {UpdateOp::Insert("R", {3, 4, 7})})
          .ok());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RepCache, ByteBudgetEvictsLruEntries) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.max_resident_bytes = 1;  // every built entry exceeds this
  RepCache cache(&db, options);
  auto a = cache.Get(kTriangle, 1.0);
  ASSERT_TRUE(a.ok());
  // The most recent entry is never evicted, even over budget.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().byte_evictions, 0u);
  auto b = cache.Get(kTriangle, 2.0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().byte_evictions, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // not a capacity eviction
  EXPECT_GT(cache.stats().resident_bytes, 0u);
  // The evicted handle still serves (shared ownership).
  EXPECT_TRUE(a.value()->rep().Answer({1, 9}).ok());
}

TEST(RepCache, SnapshotPersistAndMmapRestart) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  // A fresh directory: leftover snapshots from a previous run would make
  // the very first Get a (legitimate) mmap hit.
  const std::filesystem::path snap_dir =
      std::filesystem::path(::testing::TempDir()) / "cqc_snapshot_restart";
  std::filesystem::remove_all(snap_dir);
  std::filesystem::create_directories(snap_dir);
  options.snapshot_dir = snap_dir.string();
  // PersistEntry needs a compressed structure; pin the planner to one.
  options.planner.only_kind = RepKind::kCompressed;
  RepCache cache(&db, options);
  auto entry = cache.Get(kTriangle);
  ASSERT_TRUE(entry.ok()) << entry.status().message();
  EXPECT_FALSE(entry.value()->from_snapshot());
  ASSERT_FALSE(cache.SnapshotPath(entry.value()->key()).empty());
  Status persisted = cache.PersistEntry(entry.value()->key());
  ASSERT_TRUE(persisted.ok()) << persisted.message();

  // "Restart": a fresh cache over the same database and directory serves
  // the snapshot zero-copy instead of re-planning and re-building.
  RepCache revived_cache(&db, options);
  auto revived = revived_cache.Get(kTriangle);
  ASSERT_TRUE(revived.ok()) << revived.status().message();
  EXPECT_TRUE(revived.value()->from_snapshot());
  EXPECT_EQ(revived_cache.stats().mmap_loads, 1u);
  auto parsed = ParseAdornedView(kTriangle);
  ASSERT_TRUE(parsed.ok());
  const testing::ViewOracle oracle(parsed.value(), db);
  for (const BoundValuation& vb : oracle.InterestingBoundValuations()) {
    auto e = revived.value()->rep().Answer(vb);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(CollectAll(*e.value()), oracle.Answer(vb));
  }

  // Re-persisting over the entry's OWN backing file must not disturb the
  // live mapping (save goes through a temp file + rename, so the mapped
  // inode survives the overwrite — a plain truncating write would SIGBUS).
  ASSERT_TRUE(revived_cache.PersistEntry(revived.value()->key()).ok());
  auto still = revived.value()->rep().Answer({1, 9});
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(CollectAll(*still.value()), oracle.Answer({1, 9}));

  // A snapshot that no longer matches the data must NOT serve: a cache
  // over a different database falls back to a fresh build.
  Database other = MakeTriangleDb(9);
  RepCache stale_cache(&other, options);
  auto rebuilt = stale_cache.Get(kTriangle);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  EXPECT_FALSE(rebuilt.value()->from_snapshot());
  EXPECT_EQ(stale_cache.stats().mmap_loads, 0u);

  // Without a snapshot_dir, persisting is a clean error.
  RepCache plain(&db);
  auto p = plain.Get(kTriangle);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(plain.PersistEntry(p.value()->key()).ok());
}

TEST(RepCache, DistinctKeysBuildIndependently) {
  Database db = MakeTriangleDb(12);
  RepCache cache(&db);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Two distinct budgets -> two entries, built concurrently.
      auto r = cache.Get(kTriangle, t % 2 == 0 ? 1.1 : 1.9);
      if (!r.ok()) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace cqc
