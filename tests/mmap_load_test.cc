// Read-vs-map differential suite: a rep loaded in RepFile::Mode::kMap
// (zero-copy mmap) must be observationally identical to one loaded in
// RepFile::Mode::kRead (aligned heap buffer) on every enumeration API —
// Answer, AnswerRange, NextBatch, Resume, AnswerExists — across the
// standard view families, and a save -> load -> save round trip must
// reproduce the file byte for byte in both modes. Plus RepFile unit
// coverage of both modes and a concurrent-probe smoke test for the lazily
// built dictionary slots.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cursor.h"
#include "core/rep_file.h"
#include "core/serialization.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::ViewOracle;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<Tuple> DrainInSmallBatches(TupleEnumerator& e, int arity) {
  TupleBuffer buf(arity);
  std::vector<Tuple> out;
  constexpr size_t kBatch = 3;  // deliberately tiny: many refill boundaries
  for (;;) {
    buf.Clear();
    const size_t n = e.NextBatch(&buf, kBatch);
    for (size_t i = 0; i < n; ++i) out.push_back(buf[i].ToTuple());
    if (n < kBatch) break;
  }
  return out;
}

/// Runs every serving API on both reps for every interesting bound
/// valuation and requires byte-identical streams.
void ExpectIdenticalServing(const AdornedView& view, const Database& db,
                            const CompressedRep& heap,
                            const CompressedRep& mapped) {
  const ViewOracle oracle(view, db);
  for (const BoundValuation& vb : oracle.InterestingBoundValuations()) {
    const std::vector<Tuple> expect = CollectAll(*heap.Answer(vb));
    EXPECT_EQ(CollectAll(*mapped.Answer(vb)), expect);
    EXPECT_EQ(expect, oracle.Answer(vb));
    EXPECT_EQ(mapped.AnswerExists(vb), heap.AnswerExists(vb));
    if (view.num_free() == 0) continue;

    // Range-restricted enumeration: the full range and an answer-derived
    // subrange (endpoints taken from actual outputs, so it is non-trivial).
    {
      auto full = mapped.AnswerRange(vb, mapped.FullRange());
      EXPECT_EQ(CollectAll(*full), expect);
    }
    if (expect.size() >= 2) {
      const FInterval sub{expect[1], expect[expect.size() / 2]};
      EXPECT_EQ(CollectAll(*mapped.AnswerRange(vb, sub)),
                CollectAll(*heap.AnswerRange(vb, sub)));
    }

    // Batched drain with many refill boundaries.
    {
      auto e = mapped.Answer(vb);
      EXPECT_EQ(DrainInSmallBatches(*e, view.num_free()), expect);
    }

    // Pause mid-stream on the mapped rep, resume on both: identical tails.
    if (!expect.empty()) {
      CursorEnumerator paused(mapped.Answer(vb));
      Tuple t;
      const size_t consumed = (expect.size() + 1) / 2;
      for (size_t i = 0; i < consumed; ++i) ASSERT_TRUE(paused.Next(&t));
      const std::vector<Tuple> expect_tail(expect.begin() + consumed,
                                           expect.end());
      auto resumed_m = mapped.Resume(vb, paused.cursor());
      ASSERT_TRUE(resumed_m.ok()) << resumed_m.status().message();
      EXPECT_EQ(CollectAll(*resumed_m.value()), expect_tail);
      auto resumed_h = heap.Resume(vb, paused.cursor());
      ASSERT_TRUE(resumed_h.ok()) << resumed_h.status().message();
      EXPECT_EQ(CollectAll(*resumed_h.value()), expect_tail);
    }
  }
}

/// Build -> save -> load both ways -> differential serving -> re-save the
/// mapped rep and require byte identity with the original file.
void RunFamily(const std::string& name, const AdornedView& view,
               const Database& db, double tau) {
  SCOPED_TRACE(name + " tau=" + std::to_string(tau));
  CompressedRepOptions copt;
  copt.tau = tau;
  auto built = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const std::string path = TempPath(name + ".cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*built.value(), path).ok());

  auto heap = LoadCompressedRep(view, db, path, nullptr, RepFile::Mode::kRead);
  ASSERT_TRUE(heap.ok()) << heap.status().message();
  auto mapped = LoadCompressedRep(view, db, path, nullptr, RepFile::Mode::kMap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  // Read mode: a heap-buffer backing, charged in full — at least every
  // payload byte the rep borrows from it.
  ASSERT_NE(heap.value()->backing(), nullptr);
  EXPECT_FALSE(heap.value()->backing()->mapped());
  EXPECT_GE(heap.value()->ResidentBytes(), heap.value()->stats().mapped_bytes);
  EXPECT_GE(heap.value()->ResidentBytes(), heap.value()->backing()->size());
  EXPECT_EQ(heap.value()->stats().mapped_bytes,
            mapped.value()->stats().mapped_bytes);
  ASSERT_NE(mapped.value()->backing(), nullptr);
  EXPECT_TRUE(mapped.value()->backing()->mapped());
  if (mapped.value()->stats().tree_nodes > 0) {
    EXPECT_GT(mapped.value()->stats().mapped_bytes, 0u);
  }
  // Both loaders agree with the builder on the structural stats.
  EXPECT_EQ(mapped.value()->stats().tree_nodes,
            built.value()->stats().tree_nodes);
  EXPECT_EQ(mapped.value()->stats().dict_entries,
            built.value()->stats().dict_entries);

  ExpectIdenticalServing(view, db, *heap.value(), *mapped.value());

  // Both loaded reps must serialize back to the identical file.
  const std::string bytes = ReadFileBytes(path);
  ASSERT_FALSE(bytes.empty());
  const std::string resaved = TempPath(name + "_resave.cqcrep");
  for (const CompressedRep* rep : {heap.value().get(), mapped.value().get()}) {
    ASSERT_TRUE(SaveCompressedRep(*rep, resaved).ok());
    EXPECT_EQ(bytes, ReadFileBytes(resaved));
  }
}

TEST(MmapLoadTest, TriangleBoundAcrossTaus) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  for (double tau : {1.0, 2.0, 16.0})
    RunFamily("mmap_tri_bfb", TriangleView("bfb"), db, tau);
}

TEST(MmapLoadTest, TriangleFullEnumeration) {
  Database db;
  MakeRandomGraph(db, "R", 10, 45, true, 13);
  RunFamily("mmap_tri_fff", TriangleView("fff"), db, 4.0);
}

TEST(MmapLoadTest, StarJoin) {
  Database db;
  for (int i = 1; i <= 3; ++i)
    MakeRandomGraph(db, "R" + std::to_string(i), 10, 40, false, 70 + i);
  RunFamily("mmap_star3", StarView(3), db, 4.0);
}

TEST(MmapLoadTest, PathFullEnumeration) {
  Database db;
  MakePathRelations(db, "R", 3, 8, 40, 21);
  RunFamily("mmap_path_ffff", PathView(3, "ffff"), db, 4.0);
}

TEST(MmapLoadTest, PathBoundPrefix) {
  Database db;
  MakePathRelations(db, "R", 3, 9, 45, 33);
  RunFamily("mmap_path_bfff", PathView(3, "bfff"), db, 2.0);
}

TEST(MmapLoadTest, BooleanView) {
  Database db;
  testing::AddRelation(db, "R", 2, {{1, 2}, {3, 4}});
  auto view = ParseAdornedView("Q^bb(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  RunFamily("mmap_boolean", view.value(), db, 1.0);
  CompressedRepOptions copt;
  auto rep = CompressedRep::Build(view.value(), db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("mmap_boolean_probe.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  auto mapped =
      LoadCompressedRep(view.value(), db, path, nullptr, RepFile::Mode::kMap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_TRUE(mapped.value()->AnswerExists({1, 2}));
  EXPECT_FALSE(mapped.value()->AnswerExists({1, 4}));
}

constexpr RepFile::Mode kModes[] = {RepFile::Mode::kRead,
                                    RepFile::Mode::kMap};

const char* ModeName(RepFile::Mode mode) {
  return mode == RepFile::Mode::kMap ? "map" : "read";
}

TEST(MmapLoadTest, ConcurrentProbesOnFreshMapping) {
  // A loaded dictionary builds its probe slots lazily on the first
  // FindValuation (std::call_once): hammer a fresh load in each mode from
  // several threads at once and require every stream to be correct.
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("mmap_concurrent.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  const ViewOracle oracle(view, db);
  const std::vector<BoundValuation> vbs = oracle.InterestingBoundValuations();

  for (RepFile::Mode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    auto loaded = LoadCompressedRep(view, db, path, nullptr, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    std::vector<std::vector<std::vector<Tuple>>> got(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (const BoundValuation& vb : vbs)
          got[t].push_back(CollectAll(*loaded.value()->Answer(vb)));
      });
    }
    for (auto& th : threads) th.join();
    for (size_t i = 0; i < vbs.size(); ++i) {
      const std::vector<Tuple> expect = oracle.Answer(vbs[i]);
      for (int t = 0; t < 4; ++t) EXPECT_EQ(got[t][i], expect);
    }
  }
}

TEST(MmapLoadTest, ResidentBytesAccounting) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  // Built reps: resident == logical total.
  EXPECT_EQ(rep.value()->ResidentBytes(), rep.value()->stats().TotalBytes());
  const std::string path = TempPath("mmap_resident.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());

  // Read mode: the owned share plus the whole heap buffer.
  auto read = LoadCompressedRep(view, db, path, nullptr, RepFile::Mode::kRead);
  ASSERT_TRUE(read.ok()) << read.status().message();
  const auto& rstats = read.value()->stats();
  EXPECT_EQ(read.value()->ResidentBytes(),
            rstats.TotalBytes() - rstats.mapped_bytes +
                read.value()->backing()->size());

  // Map mode: the borrowed share is bounded by the logical total, and the
  // charge by the owned share plus the file's resident pages.
  auto mapped = LoadCompressedRep(view, db, path, nullptr, RepFile::Mode::kMap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  const auto& stats = mapped.value()->stats();
  EXPECT_EQ(stats.mapped_bytes, rstats.mapped_bytes);
  EXPECT_LE(stats.mapped_bytes, stats.TotalBytes());
  EXPECT_LE(mapped.value()->ResidentBytes(),
            stats.TotalBytes() + mapped.value()->backing()->size());
}

TEST(RepFileTest, OpenErrorsAndEmptyFiles) {
  const std::string empty = TempPath("repfile_empty.bin");
  std::ofstream(empty, std::ios::binary).flush();
  for (RepFile::Mode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    EXPECT_FALSE(RepFile::Open(TempPath("repfile_missing.bin"), mode).ok());
    auto opened = RepFile::Open(empty, mode);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_EQ(opened.value()->size(), 0u);
    EXPECT_EQ(opened.value()->ResidentBytes(), 0u);
    EXPECT_FALSE(opened.value()->mapped());
  }
}

TEST(RepFileTest, MapsBytesFaithfully) {
  const std::string path = TempPath("repfile_bytes.bin");
  std::string payload;
  for (int i = 0; i < 10000; ++i) payload.push_back((char)(i * 131 % 251));
  std::ofstream(path, std::ios::binary) << payload;
  for (RepFile::Mode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    auto opened = RepFile::Open(path, mode);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    const RepFile& f = *opened.value();
    ASSERT_EQ(f.size(), payload.size());
    EXPECT_EQ(f.mapped(), mode == RepFile::Mode::kMap);
    // Loaded columns are borrowed in place: the base must be 64-byte
    // aligned in both modes.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(f.data()) % 64, 0u);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(f.data()), f.size()),
              payload);
    if (f.mapped()) {
      // Touching every byte makes the mapping resident, never beyond the
      // file.
      EXPECT_LE(f.ResidentBytes(), f.size() + 4096);
    } else {
      EXPECT_EQ(f.ResidentBytes(), f.size());
    }
  }
}

#if defined(__linux__)
TEST(RepFileTest, MapModeHoldsNoFd) {
  // The mapping keeps the file alive, so a mapped handle (and every cached
  // snapshot built on one) must not pin a descriptor.
  const std::string path = TempPath("repfile_fd.bin");
  std::ofstream(path, std::ios::binary) << std::string(8192, 'x');
  auto open_fds = [] {
    size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
      (void)e;
      ++n;
    }
    return n;
  };
  const size_t before = open_fds();
  auto opened = RepFile::Open(path, RepFile::Mode::kMap);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ASSERT_TRUE(opened.value()->mapped());
  EXPECT_EQ(open_fds(), before);
}
#endif

TEST(RepFileTest, ReadModeOutlivesTheFile) {
  // A read-mode handle owns its bytes: deleting the file after the open
  // must not disturb a rep served from it.
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 9);
  AdornedView view = TriangleView("bfb");
  CompressedRepOptions copt;
  copt.tau = 2.0;
  auto rep = CompressedRep::Build(view, db, copt);
  ASSERT_TRUE(rep.ok());
  const std::string path = TempPath("repfile_unlinked.cqcrep");
  ASSERT_TRUE(SaveCompressedRep(*rep.value(), path).ok());
  auto read = LoadCompressedRep(view, db, path, nullptr, RepFile::Mode::kRead);
  ASSERT_TRUE(read.ok()) << read.status().message();
  ASSERT_EQ(std::remove(path.c_str()), 0);
  const ViewOracle oracle(view, db);
  for (const BoundValuation& vb : oracle.InterestingBoundValuations())
    EXPECT_EQ(CollectAll(*read.value()->Answer(vb)), oracle.Answer(vb));
}

}  // namespace
}  // namespace cqc
