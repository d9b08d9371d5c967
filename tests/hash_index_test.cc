// The probe-path overhaul: hash-vs-sorted membership agreement, the
// bit-packed candidate pool, and parallel rep builds.
//
//  * HashIndex must agree with the sorted-trie membership walk on every
//    present and absent tuple, under randomized inserts with duplicates
//    (set semantics collapse them at Seal).
//  * BoundAtom::ContainsValuation (now one hash probe through the cached
//    column scatter) must agree with the reference bf-trie refinement walk.
//  * PackedTuplePool round-trips arbitrary rows branch-free, including
//    zero-width and 64-bit-wide columns.
//  * Serialization (CQCREP03) must round-trip byte-identically:
//    save -> load -> save produces the same file bytes.
//  * Parallel builds (par::SetBuildThreads > 1) must produce byte-identical
//    structures to serial builds.
#include <gtest/gtest.h>

#include <fstream>

#include "core/bitpack.h"
#include "core/compressed_rep.h"
#include "core/serialization.h"
#include "exec/par_util.h"
#include "join/bound_atom.h"
#include "query/parser.h"
#include "relational/hash_index.h"
#include "relational/relation.h"
#include "relational/sorted_index.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::ViewOracle;

bool SortedContains(const Relation& rel, TupleSpan t) {
  std::vector<int> identity;
  for (int c = 0; c < rel.arity(); ++c) identity.push_back(c);
  const SortedIndex& idx = rel.GetIndex(identity);
  RowRange r = idx.Root();
  for (int level = 0; level < rel.arity() && !r.empty(); ++level)
    r = idx.Refine(r, level, t[level]);
  return !r.empty();
}

TEST(HashIndex, AgreesWithSortedMembershipUnderRandomizedInserts) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    const int arity = 1 + (int)rng.Uniform(4);
    const uint64_t domain = 1 + rng.Uniform(50);
    Relation rel("R", arity);
    const size_t inserts = 200 + rng.Uniform(800);
    std::vector<Tuple> inserted;
    for (size_t i = 0; i < inserts; ++i) {
      Tuple t(arity);
      for (int c = 0; c < arity; ++c) t[c] = rng.Uniform(domain);
      rel.Insert(t);
      inserted.push_back(t);
      if (rng.Bernoulli(0.3)) rel.Insert(t);  // duplicate insert
    }
    rel.Seal();
    const HashIndex& hash = rel.GetHashIndex();
    EXPECT_EQ(hash.num_rows(), rel.size());
    // Every inserted tuple is present; random tuples agree both ways.
    for (const Tuple& t : inserted) {
      EXPECT_TRUE(hash.Contains(t)) << "seed " << seed;
      EXPECT_TRUE(rel.Contains(t));
    }
    for (int i = 0; i < 2000; ++i) {
      Tuple t(arity);
      for (int c = 0; c < arity; ++c) t[c] = rng.Uniform(domain + 3);
      EXPECT_EQ(hash.Contains(t), SortedContains(rel, t))
          << "seed " << seed << " probe " << i;
    }
  }
}

TEST(HashIndex, ContainsValuationAgreesWithTrieWalk) {
  Database db;
  Rng rng(5);
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i)
    rows.push_back({rng.Uniform(9), rng.Uniform(9), rng.Uniform(9)});
  AddRelation(db, "R", 3, rows);
  auto view = ParseAdornedView("Q^bff(x,y,z) = R(x,y,z)");
  ASSERT_TRUE(view.ok());
  const AdornedView& v = view.value();
  BoundAtom atom(v.cq().atoms()[0], *db.Find("R"), v.bound_vars(),
                 v.free_vars());

  // Reference: refine the bf trie level by level.
  auto reference = [&](TupleSpan vb, TupleSpan vf) {
    RowRange r = atom.SeekBound(vb);
    for (int i = 0; i < atom.num_free() && !r.empty(); ++i)
      r = atom.bf_index().Refine(r, atom.num_bound() + i,
                                 vf[atom.free_positions()[i]]);
    return !r.empty();
  };
  for (int i = 0; i < 5000; ++i) {
    Tuple vb{rng.Uniform(10)};
    Tuple vf{rng.Uniform(10), rng.Uniform(10)};
    EXPECT_EQ(atom.ContainsValuation(vb, vf), reference(vb, vf))
        << "probe " << i;
  }
}

TEST(PackedTuplePool, RoundTripsRandomRows) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int arity = (int)rng.Uniform(6);  // includes arity 0
    const size_t rows = rng.Uniform(200);
    std::vector<Value> flat;
    for (size_t r = 0; r < rows; ++r)
      for (int c = 0; c < arity; ++c) {
        // Mix widths: constants (width 0), small ints, full 64-bit.
        const int kind = (int)((r + c) % 3);
        flat.push_back(kind == 0 ? 0
                       : kind == 1 ? rng.Uniform(1000)
                                   : rng.Next());
      }
    PackedTuplePool pool = PackedTuplePool::Pack(flat, arity, rows);
    EXPECT_EQ(pool.size(), rows);
    Tuple buf(arity);
    for (size_t r = 0; r < rows; ++r) {
      pool.UnpackRow(r, buf.data());
      for (int c = 0; c < arity; ++c) {
        EXPECT_EQ(buf[c], flat[r * arity + c]) << "row " << r << " col " << c;
        EXPECT_EQ(pool.At(r, c), flat[r * arity + c]);
      }
      EXPECT_TRUE(pool.RowEquals(r, buf));
      if (arity > 0) {
        Tuple other = buf;
        other[rng.Uniform(arity)] ^= 1;
        EXPECT_FALSE(pool.RowEquals(r, other));
      }
    }
    // Rebuild from serialized parts: identical content.
    PackedTuplePool re = PackedTuplePool::FromFlatParts(
        arity, rows, pool.widths(), pool.words());
    for (size_t r = 0; r < rows; ++r)
      for (int c = 0; c < arity; ++c)
        EXPECT_EQ(re.At(r, c), flat[r * arity + c]);
  }
}

TEST(PackedTuplePool, AllZeroAndTrailingZeroColumns) {
  {
    // Every column width 0: the pool holds no payload words, and reads
    // must not touch memory.
    const std::vector<Value> flat{0, 0, 0, 0};
    PackedTuplePool pool = PackedTuplePool::Pack(flat, 2, 2);
    EXPECT_TRUE(pool.words().empty());
    EXPECT_EQ(pool.At(1, 1), 0u);
    EXPECT_TRUE(pool.RowEquals(0, Tuple{0, 0}));
    EXPECT_FALSE(pool.RowEquals(0, Tuple{0, 1}));
  }
  {
    // Trailing width-0 column whose bit offset lands exactly on the end of
    // a full payload word.
    const std::vector<Value> flat{~0ull, 0};
    PackedTuplePool pool = PackedTuplePool::Pack(flat, 2, 1);
    EXPECT_EQ(pool.At(0, 0), ~0ull);
    EXPECT_EQ(pool.At(0, 1), 0u);
    EXPECT_TRUE(pool.RowEquals(0, Tuple{~0ull, 0}));
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(Serialization, ByteIdenticalResave) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 16);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 4.0;
  auto original = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(original.ok());
  const std::string p1 = ::testing::TempDir() + "/rep_v03_a.bin";
  const std::string p2 = ::testing::TempDir() + "/rep_v03_b.bin";
  ASSERT_TRUE(SaveCompressedRep(*original.value(), p1).ok());
  auto loaded = LoadCompressedRep(view, db, p1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(SaveCompressedRep(*loaded.value(), p2).ok());
  const std::string b1 = FileBytes(p1);
  const std::string b2 = FileBytes(p2);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2) << "save -> load -> save must be byte-identical";
}

// Serial and parallel builds must produce identical structures: same
// serialized bytes, same answers. Forces the parallel paths (atom binding,
// dictionary subtree sweeps, parallel sorts) even on single-core CI.
TEST(ParallelBuild, MatchesSerialBuildByteForByte) {
  const AdornedView view = TriangleView("bfb");
  // One oracle for both builds (the naive join dominates this test's run
  // time under sanitizers), over data sealed serially.
  par::SetBuildThreads(1);
  Database reference_db;
  MakeTripartiteTriangleGraph(reference_db, "R", 20);
  const ViewOracle oracle(view, reference_db);
  const auto requests = oracle.InterestingBoundValuations();
  auto build_and_save = [&](int threads, const std::string& path) {
    par::SetBuildThreads(threads);
    Database db;  // fresh db per build: Seal/index builds run under
                  // the configured thread count
    MakeTripartiteTriangleGraph(db, "R", 20);
    CompressedRepOptions copt;
    copt.tau = 2.0;  // deep tree: many dictionary subtrees
    auto rep = CompressedRep::Build(view, db, copt);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
    // Sanity: answers match the oracle under this thread count.
    for (size_t i = 0; i < std::min<size_t>(requests.size(), 4); ++i) {
      EXPECT_EQ(CollectAll(*rep.value()->Answer(requests[i])),
                oracle.Answer(requests[i]));
    }
    par::SetBuildThreads(0);
  };
  const std::string serial_path = ::testing::TempDir() + "/rep_serial.bin";
  const std::string par_path = ::testing::TempDir() + "/rep_parallel.bin";
  build_and_save(1, serial_path);
  build_and_save(4, par_path);
  EXPECT_EQ(FileBytes(serial_path), FileBytes(par_path))
      << "parallel build diverged from serial build";
}

TEST(ParallelBuild, ParallelSortMatchesStdSort) {
  par::SetBuildThreads(4);
  Rng rng(3);
  for (size_t n : {size_t{0}, size_t{1}, size_t{1000}, size_t{1u << 16}}) {
    std::vector<uint64_t> a(n);
    for (auto& x : a) x = rng.Uniform(997);  // many duplicates
    std::vector<uint64_t> b = a;
    par::ParallelSort(a.begin(), a.end(), std::less<uint64_t>());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "n " << n;
  }
  par::SetBuildThreads(0);
}

}  // namespace
}  // namespace cqc
