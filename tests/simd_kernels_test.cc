// Differential suite for the SIMD kernel layer (src/simd/): every kernel
// must be BIT-IDENTICAL to its scalar twin at every dispatch level the
// machine supports. Levels differ in instruction choice only — the suite
// sweeps simd::SupportedLevels() over randomized and adversarial inputs
// and compares against independent scalar references computed here (not
// against the kernels' own scalar table, except where noted).
//
// The CQC_FORCE_SCALAR=1 environment override is resolved once at static
// init, so it cannot be toggled from inside a test process; the scalar CI
// job (.github/workflows/ci.yml, job scalar-fallback) runs this whole
// binary — and the full suite — under the override instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "core/bitpack.h"
#include "core/updatable_rep.h"
#include "relational/hash_index.h"
#include "relational/relation.h"
#include "simd/kernels.h"
#include "simd/simd_caps.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::OracleAnswer;
using testing::SortedCopy;

// Restores the detected dispatch level after each test so a failing sweep
// cannot leave the rest of the suite pinned to a stale level.
class SimdKernelsTest : public ::testing::Test {
 protected:
  ~SimdKernelsTest() override { simd::SetLevel(simd::Detected()); }
};

TEST_F(SimdKernelsTest, DetectionAndLevelClamping) {
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  EXPECT_EQ(levels.back(), simd::Detected());
  for (size_t i = 1; i < levels.size(); ++i)
    EXPECT_LT((int)levels[i - 1], (int)levels[i]);

  for (simd::Level l : levels) {
    EXPECT_EQ(simd::SetLevel(l), l);
    EXPECT_EQ(simd::Active(), l);
    EXPECT_NE(simd::LevelName(l), nullptr);
  }
  // A level this machine cannot run clamps to something runnable instead
  // of dispatching into illegal instructions.
#if defined(__aarch64__)
  const simd::Level foreign = simd::Level::kAVX2;
#else
  const simd::Level foreign = simd::Level::kNEON;
#endif
  const simd::Level got = simd::SetLevel(foreign);
  EXPECT_NE(got, foreign);
  EXPECT_EQ(got, simd::Active());
}

TEST_F(SimdKernelsTest, UnpackRowsMatchesUnpackRowRandomized) {
  Rng rng(20260808);
  const std::vector<uint32_t> width_menu = {0,  1,  3,  7,  8,  13, 21,
                                            31, 32, 33, 47, 63, 64};
  for (int trial = 0; trial < 60; ++trial) {
    const int arity = 1 + (int)rng.Uniform(6);
    const size_t rows = 1 + rng.Uniform(600);
    std::vector<uint32_t> widths(arity);
    for (auto& w : widths) w = width_menu[rng.Uniform(width_menu.size())];
    std::vector<Value> flat(rows * arity);
    for (size_t r = 0; r < rows; ++r)
      for (int c = 0; c < arity; ++c) {
        const uint32_t w = widths[c];
        Value v = 0;
        if (w == 64) {
          v = rng.Bernoulli(0.05) ? UINT64_MAX : rng.Next();
        } else if (w > 0) {
          const Value cap = (Value(1) << w) - 1;
          v = rng.Bernoulli(0.05) ? cap : rng.Next() & cap;
        }
        flat[r * arity + c] = v;
      }
    // Pack() derives widths from the data; force each column's planned
    // width by planting its max value in row 0.
    for (int c = 0; c < arity; ++c)
      if (widths[c] > 0)
        flat[c] = widths[c] == 64 ? UINT64_MAX : (Value(1) << widths[c]) - 1;
      else
        flat[c] = 0;
    const PackedTuplePool pool = PackedTuplePool::Pack(flat, arity, rows);

    std::vector<Value> want(rows * arity);
    for (size_t r = 0; r < rows; ++r) pool.UnpackRow(r, &want[r * arity]);
    ASSERT_EQ(want, flat);  // the per-row path itself round-trips

    for (simd::Level level : simd::SupportedLevels()) {
      ASSERT_EQ(simd::SetLevel(level), level);
      // Random windows plus the boundary shapes: full pool, single row,
      // ragged tail (n not a multiple of the 4-row gather block).
      std::vector<std::pair<size_t, size_t>> windows = {
          {0, rows}, {0, 1}, {rows - 1, 1}};
      const size_t ragged = rows % 4 + 1;  // not a multiple of the block
      if (ragged <= rows) windows.emplace_back(rows - ragged, ragged);
      for (int i = 0; i < 6; ++i) {
        const size_t first = rng.Uniform(rows);
        windows.emplace_back(first, 1 + rng.Uniform(rows - first));
      }
      std::vector<Value> got;
      for (auto [first, n] : windows) {
        got.assign(n * arity, 0xDEADBEEF);
        pool.UnpackRows(first, n, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data() + first * arity,
                                 n * arity * sizeof(Value)))
            << "level=" << simd::LevelName(level) << " arity=" << arity
            << " rows=" << rows << " window=[" << first << "," << n << ")";
      }
    }
  }
}

TEST_F(SimdKernelsTest, MatchTagsAndMatchEmptyMatchBitwiseReference) {
  Rng rng(99);
  alignas(64) uint8_t fps[simd::kGroupWidth];
  alignas(64) uint32_t rows[simd::kGroupWidth];
  for (int trial = 0; trial < 500; ++trial) {
    for (auto& f : fps) f = (uint8_t)rng.Uniform(4);  // force collisions
    for (auto& r : rows)
      r = rng.Bernoulli(0.3) ? ~0u : (uint32_t)rng.Uniform(100);
    const uint8_t tag = (uint8_t)rng.Uniform(4);
    uint32_t want_tags = 0, want_empty = 0;
    for (size_t i = 0; i < simd::kGroupWidth; ++i) {
      if (fps[i] == tag) want_tags |= 1u << i;
      if (rows[i] == ~0u) want_empty |= 1u << i;
    }
    for (simd::Level level : simd::SupportedLevels()) {
      ASSERT_EQ(simd::SetLevel(level), level);
      ASSERT_EQ(simd::MatchTags(fps, tag), want_tags)
          << "level=" << simd::LevelName(level);
      ASSERT_EQ(simd::MatchEmpty(rows, ~0u), want_empty)
          << "level=" << simd::LevelName(level);
    }
  }
}

TEST_F(SimdKernelsTest, HashContainsBatchMatchesContains) {
  Rng rng(5);
  Relation rel("R", 3);
  for (int i = 0; i < 2000; ++i)
    rel.Insert({rng.Uniform(64), rng.Uniform(64), rng.Uniform(64)});
  rel.Seal();
  const HashIndex& idx = rel.GetHashIndex();

  std::vector<Value> probes;  // ~half planted hits, ~half in-domain misses
  const size_t kProbes = 1000;
  for (size_t i = 0; i < kProbes; ++i) {
    if (rng.Bernoulli(0.5)) {
      const size_t row = rng.Uniform(rel.size());
      for (int c = 0; c < 3; ++c) probes.push_back(rel.At(row, c));
    } else {
      for (int c = 0; c < 3; ++c) probes.push_back(rng.Uniform(64) + 64);
    }
  }
  std::vector<uint8_t> want(kProbes);
  for (size_t i = 0; i < kProbes; ++i)
    want[i] = idx.Contains(TupleSpan(probes.data() + i * 3, 3)) ? 1 : 0;
  ASSERT_NE(std::count(want.begin(), want.end(), 1), 0);
  ASSERT_NE(std::count(want.begin(), want.end(), 0), 0);

  for (simd::Level level : simd::SupportedLevels()) {
    ASSERT_EQ(simd::SetLevel(level), level);
    // n values straddling the 8-probe prefetch block and its tails.
    for (size_t n : {(size_t)0, (size_t)1, (size_t)7, (size_t)8, (size_t)9,
                     (size_t)64, kProbes}) {
      std::vector<uint8_t> got(n, 0xEE);
      idx.ContainsBatch(probes.data(), n, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "level=" << simd::LevelName(level) << " n=" << n;
    }
  }
}

TEST_F(SimdKernelsTest, TombstoneFilterMatchesOracleUnderChurn) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 5);
  const AdornedView view = TriangleView("fff");
  UpdatableRepOptions opt;
  opt.rep.tau = 2.0;
  opt.rebuild_fraction = 1e9;  // keep tombstones live (no auto-rebuild)
  auto rep = UpdatableRep::Build(view, db, opt);
  ASSERT_TRUE(rep.ok()) << rep.status().message();

  // Current edge set, replayed into a fresh database for the oracle.
  std::set<Tuple> edges;
  const Relation* r0 = db.Find("R");
  for (size_t i = 0; i < r0->size(); ++i)
    edges.insert({r0->At(i, 0), r0->At(i, 1)});

  Rng rng(31);
  for (int round = 0; round < 4; ++round) {
    // Delete a slice of surviving edges (drives the tombstone filter) and
    // insert a few new ones (exercises delta + snapshot mixing).
    std::vector<Tuple> alive(edges.begin(), edges.end());
    for (int i = 0; i < 8 && !alive.empty(); ++i) {
      const Tuple& t = alive[rng.Uniform(alive.size())];
      if (!edges.count(t)) continue;
      ASSERT_TRUE(rep.value()->Delete("R", t).ok());
      edges.erase(t);
    }
    for (int i = 0; i < 4; ++i) {
      Value a = rng.UniformRange(1, 12), b = rng.UniformRange(1, 12);
      if (a == b || edges.count({a, b})) continue;
      ASSERT_TRUE(rep.value()->Insert("R", {a, b}).ok());
      edges.insert({a, b});
    }

    Database current;
    Relation* rel = current.AddRelation("R", 2);
    for (const Tuple& t : edges) rel->Insert(t);
    rel->Seal();
    const std::vector<Tuple> want = OracleAnswer(view, current, {});

    // The block filter (ContainsBatch over staged candidates) must agree
    // with the oracle at every dispatch level — and with itself across
    // levels, single-tuple and batched drains alike.
    std::vector<Tuple> scalar_single;
    for (simd::Level level : simd::SupportedLevels()) {
      ASSERT_EQ(simd::SetLevel(level), level);
      std::vector<Tuple> single = CollectAll(*rep.value()->Answer({}));
      const TupleBuffer batched =
          CollectAllBatched(*rep.value()->Answer({}), view.num_free(), 33);
      std::vector<Tuple> batched_tuples;
      for (size_t i = 0; i < batched.size(); ++i) {
        const TupleSpan t = batched[i];
        batched_tuples.emplace_back(t.begin(), t.end());
      }
      EXPECT_EQ(SortedCopy(single), want)
          << "level=" << simd::LevelName(level) << " round=" << round;
      EXPECT_EQ(batched_tuples, single)
          << "level=" << simd::LevelName(level) << " round=" << round;
      if (level == simd::Level::kScalar)
        scalar_single = single;
      else
        EXPECT_EQ(single, scalar_single)
            << "level=" << simd::LevelName(level) << " round=" << round;
    }
  }
  EXPECT_EQ(rep.value()->num_rebuilds(), 0);
}

}  // namespace
}  // namespace cqc
