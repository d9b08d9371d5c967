// Differential suite for the AnswerRep adapters: every adapter entry point
// must be byte-identical to the equivalent direct call on the underlying
// structure (Answer, AnswerRange, Resume, NextBatch), across the
// property-sweep query families — plus the hardening contract: malformed
// requests come back as Status errors, not crashes.
#include <gtest/gtest.h>

#include "core/cursor.h"
#include "plan/answer_rep.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::InterestingBoundValuations;
using testing::OracleAnswer;
using testing::SortedCopy;

constexpr RepKind kAllKinds[] = {RepKind::kCompressed, RepKind::kDecomposed,
                                 RepKind::kDirect, RepKind::kMaterialized};

std::unique_ptr<AnswerRep> MustBuild(RepKind kind, const AdornedView& view,
                                     const Database& db, double tau = 4.0) {
  RepBuildSpec spec;
  spec.kind = kind;
  spec.compressed.tau = tau;
  auto rep = BuildAnswerRep(spec, view, db);
  CQC_CHECK(rep.ok()) << RepKindName(kind) << ": " << rep.status().message();
  return std::move(rep).value();
}

/// The "direct call" side of the differential: bypasses the adapter and
/// invokes the concrete structure's own Answer.
std::vector<Tuple> DirectAnswer(const AnswerRep& rep,
                                const BoundValuation& vb) {
  switch (rep.kind()) {
    case RepKind::kCompressed:
      return CollectAll(*static_cast<const CompressedAnswerRep&>(rep)
                             .underlying()
                             .Answer(vb));
    case RepKind::kDecomposed:
      return CollectAll(*static_cast<const DecomposedAnswerRep&>(rep)
                             .underlying()
                             .Answer(vb));
    case RepKind::kDirect:
      return CollectAll(
          *static_cast<const DirectAnswerRep&>(rep).underlying().Answer(vb));
    case RepKind::kMaterialized:
      return CollectAll(*static_cast<const MaterializedAnswerRep&>(rep)
                             .underlying()
                             .Answer(vb));
  }
  return {};
}

std::vector<Tuple> AdapterAnswer(const AnswerRep& rep,
                                 const BoundValuation& vb) {
  auto e = rep.Answer(vb);
  CQC_CHECK(e.ok()) << e.status().message();
  return CollectAll(*e.value());
}

/// Runs the full differential battery for one (view, db) pair.
void CheckFamily(const AdornedView& view, const Database& db,
                 const Database* aux_db = nullptr) {
  SCOPED_TRACE(view.ToString());
  const int mu = view.num_free();
  for (RepKind kind : kAllKinds) {
    SCOPED_TRACE(RepKindName(kind));
    RepBuildSpec spec;
    spec.kind = kind;
    spec.compressed.tau = 4.0;
    auto built = BuildAnswerRep(spec, view, db, aux_db);
    ASSERT_TRUE(built.ok()) << built.status().message();
    const AnswerRep& rep = *built.value();
    EXPECT_EQ(rep.kind(), kind);

    // Cap the battery per structure: an evenly spaced sample (plus the
    // trailing guaranteed misses) keeps the naive-oracle cost sane under
    // ASan while still covering hits, partial hits, and misses.
    std::vector<BoundValuation> vbs =
        InterestingBoundValuations(view, db, aux_db);
    if (vbs.size() > 13) {
      std::vector<BoundValuation> sampled;
      for (size_t i = 0; i < 11; ++i)
        sampled.push_back(vbs[i * (vbs.size() - 2) / 11]);
      sampled.push_back(vbs[vbs.size() - 2]);
      sampled.push_back(vbs.back());
      vbs = std::move(sampled);
    }
    for (const BoundValuation& vb : vbs) {
      const std::vector<Tuple> direct = DirectAnswer(rep, vb);
      const std::vector<Tuple> via_adapter = AdapterAnswer(rep, vb);
      // Byte-identical: same tuples in the same order.
      ASSERT_EQ(via_adapter, direct);
      EXPECT_EQ(SortedCopy(via_adapter),
                OracleAnswer(view, db, vb, aux_db));

      // NextBatch shares the stream with Next and never drops/duplicates.
      {
        auto e = rep.Answer(vb);
        ASSERT_TRUE(e.ok());
        TupleBuffer batch = CollectAllBatched(*e.value(), mu, 3);
        ASSERT_EQ(batch.size(), direct.size());
        for (size_t i = 0; i < batch.size(); ++i)
          EXPECT_EQ(batch[i].ToTuple(), direct[i]);
      }

      // Existence and count agree with the enumeration.
      auto exists = rep.AnswerExists(vb);
      ASSERT_TRUE(exists.ok());
      EXPECT_EQ(exists.value(), !direct.empty());
      auto count = rep.Count(vb);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(count.value(), direct.size());

      // Resume from a cursor taken mid-stream continues the exact suffix.
      if (mu > 0 && direct.size() >= 2) {
        auto e = rep.Answer(vb);
        ASSERT_TRUE(e.ok());
        CursorEnumerator cursored(std::move(e).value());
        Tuple t;
        const size_t pause_at = direct.size() / 2;
        for (size_t i = 0; i < pause_at; ++i) ASSERT_TRUE(cursored.Next(&t));
        auto resumed = rep.Resume(vb, cursored.cursor());
        ASSERT_TRUE(resumed.ok()) << resumed.status().message();
        std::vector<Tuple> suffix = CollectAll(*resumed.value());
        ASSERT_EQ(suffix,
                  std::vector<Tuple>(direct.begin() + pause_at,
                                     direct.end()));
      }

      // AnswerRange clips to the advertised interval where supported.
      if (rep.capabilities().range_restricted && direct.size() >= 2) {
        FInterval range{direct[direct.size() / 3],
                        direct[(2 * direct.size()) / 3]};
        auto ranged = rep.AnswerRange(vb, range);
        ASSERT_TRUE(ranged.ok()) << ranged.status().message();
        std::vector<Tuple> got = CollectAll(*ranged.value());
        std::vector<Tuple> want;
        for (const Tuple& u : direct)
          if (range.Contains(u)) want.push_back(u);
        EXPECT_EQ(got, want);
      }
    }
  }
}

TEST(AnswerRepDifferential, TriangleTripartite) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 5);
  CheckFamily(TriangleView("bfb"), db);
  CheckFamily(TriangleView("fff"), db);
}

TEST(AnswerRepDifferential, FourCycleMixedAdornments) {
  Database db;
  Rng rng(99);
  for (const char* name : {"R", "S", "T", "U"}) {
    std::vector<Tuple> rows;
    for (int i = 0; i < 28; ++i)
      rows.push_back({rng.UniformRange(1, 6), rng.UniformRange(1, 6)});
    testing::AddRelation(db, name, 2, rows);
  }
  for (const char* ad : {"bffb", "bfbf", "ffff", "bbbb"}) {
    auto view = ParseAdornedView(std::string("Q^") + ad +
                                 "(a,b,c,d) = R(a,b), S(b,c), T(c,d), U(d,a)");
    ASSERT_TRUE(view.ok());
    CheckFamily(view.value(), db);
  }
}

TEST(AnswerRepDifferential, Star4) {
  Database db;
  for (int i = 1; i <= 4; ++i)
    MakeRandomGraph(db, "R" + std::to_string(i), 9, 30, false, 60 + i);
  CheckFamily(StarView(4), db);
}

TEST(AnswerRepDifferential, Path5) {
  Database db;
  MakePathRelations(db, "R", 5, 9, 26, 15);
  CheckFamily(PathView(5), db);
}

TEST(AnswerRepDifferential, SetIntersectionZipf) {
  Database db;
  MakeZipfBipartite(db, "R", 25, 60, 300, 0.9, 44);
  CheckFamily(SetIntersectionView(), db);
}

TEST(AnswerRepHardening, ArityMismatchesReturnStatusNotCrash) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  const AdornedView view = TriangleView("bfb");  // expects 2 bound values
  for (RepKind kind : kAllKinds) {
    SCOPED_TRACE(RepKindName(kind));
    auto rep = MustBuild(kind, view, db);
    for (const BoundValuation& bad :
         {BoundValuation{}, BoundValuation{1}, BoundValuation{1, 2, 3}}) {
      EXPECT_FALSE(rep->Answer(bad).ok());
      EXPECT_FALSE(rep->AnswerExists(bad).ok());
      EXPECT_FALSE(rep->Count(bad).ok());
      EXPECT_FALSE(rep->Resume(bad, EnumerationCursor{}).ok());
      ParallelOptions popt;
      popt.num_threads = 2;
      EXPECT_FALSE(rep->ParallelAnswer(bad, popt).ok());
    }
    // Malformed range: wrong arity bounds.
    FInterval bad_range{Tuple{1}, Tuple{2}};  // mu is 1 here... make wrong
    bad_range.lo = {1, 2};
    bad_range.hi = {3, 4};
    auto r = rep->AnswerRange({1, 9}, bad_range);
    EXPECT_FALSE(r.ok());
    // Malformed cursor: off-arity last tuple.
    EnumerationCursor cur;
    cur.emitted = 1;
    cur.has_last = true;
    cur.last = {1, 2, 3};
    EXPECT_FALSE(rep->Resume({1, 9}, cur).ok());
  }
}

TEST(AnswerRepHardening, RangeCarryingCursorsRejectedWhereUnsupported) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  const AdornedView view = TriangleView("bfb");
  EnumerationCursor cur;
  cur.emitted = 1;
  cur.range_lo = {2};
  cur.range_hi = {7};
  // Lex-ordered structures honor the range on resume; the others must
  // refuse the cursor rather than replay tuples outside its range.
  for (RepKind kind : {RepKind::kCompressed, RepKind::kDirect})
    EXPECT_TRUE(MustBuild(kind, view, db)->Resume({1, 9}, cur).ok())
        << RepKindName(kind);
  for (RepKind kind : {RepKind::kDecomposed, RepKind::kMaterialized})
    EXPECT_FALSE(MustBuild(kind, view, db)->Resume({1, 9}, cur).ok())
        << RepKindName(kind);
}

TEST(AnswerRepHardening, RangeUnsupportedIsAnError) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  const AdornedView view = TriangleView("bfb");
  for (RepKind kind : {RepKind::kDecomposed, RepKind::kMaterialized}) {
    auto rep = MustBuild(kind, view, db);
    EXPECT_FALSE(rep->capabilities().range_restricted);
    EXPECT_FALSE(rep->AnswerRange({1, 9}, FInterval{{1}, {9}}).ok());
  }
  for (RepKind kind : {RepKind::kCompressed, RepKind::kDirect}) {
    auto rep = MustBuild(kind, view, db);
    EXPECT_TRUE(rep->capabilities().range_restricted);
  }
}

TEST(AnswerRepHardening, BooleanViewsAnswerThroughEveryKind) {
  Database db;
  testing::AddRelation(db, "R", 2, {{1, 2}, {2, 3}});
  auto view = ParseAdornedView("Q^bb(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  for (RepKind kind : kAllKinds) {
    SCOPED_TRACE(RepKindName(kind));
    auto rep = MustBuild(kind, view.value(), db);
    auto hit = rep->AnswerExists({1, 2});
    auto miss = rep->AnswerExists({2, 1});
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(miss.ok());
    EXPECT_TRUE(hit.value());
    EXPECT_FALSE(miss.value());
    EXPECT_FALSE(rep->AnswerExists({1}).ok());  // arity still validated
  }
}

TEST(AnswerRepCapabilities, TagsMatchTheStructures) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  const AdornedView view = TriangleView("bfb");
  auto compressed = MustBuild(RepKind::kCompressed, view, db);
  EXPECT_TRUE(compressed->capabilities().lex_ordered);
  EXPECT_TRUE(compressed->capabilities().low_delay_resume);
  EXPECT_TRUE(compressed->capabilities().sharded);
  auto decomposed = MustBuild(RepKind::kDecomposed, view, db);
  EXPECT_FALSE(decomposed->capabilities().lex_ordered);
  EXPECT_TRUE(decomposed->capabilities().counting);
  auto materialized = MustBuild(RepKind::kMaterialized, view, db);
  EXPECT_TRUE(materialized->capabilities().lex_ordered);
  EXPECT_TRUE(materialized->capabilities().counting);
  EXPECT_FALSE(materialized->capabilities().sharded);
  for (RepKind kind : kAllKinds) {
    auto rep = MustBuild(kind, view, db);
    EXPECT_GT(rep->SpaceBytes(), 0u);
    EXPECT_FALSE(rep->Describe().empty());
  }
}

/// Every built adapter advertises exactly what the planner predicts for its
/// kind (KindCapabilities, which Planner::PlanView prints and picks by), for
/// a view with free variables and a boolean one, with and without the
/// aggregate annotations.
TEST(AnswerRepCapabilities, BuiltAdaptersMatchThePlannerPrediction) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  for (const AdornedView& view : {TriangleView("bfb"), TriangleView("bbb")}) {
    SCOPED_TRACE(view.ToString());
    for (RepKind kind : {RepKind::kCompressed, RepKind::kDecomposed,
                         RepKind::kDirect, RepKind::kMaterialized,
                         RepKind::kUpdatable}) {
      for (bool with_aggregates : {false, true}) {
        SCOPED_TRACE(std::string(RepKindName(kind)) +
                     (with_aggregates ? " +agg" : ""));
        RepBuildSpec spec;
        spec.kind = kind;
        spec.compressed.tau = 4.0;
        spec.compressed.build_aggregates = with_aggregates;
        spec.updatable.rep.tau = 4.0;
        spec.updatable.rep.build_aggregates = with_aggregates;
        auto rep = BuildAnswerRep(spec, view, db);
        ASSERT_TRUE(rep.ok()) << rep.status().message();
        // Only the annotated Theorem-1 kinds take the flag (planner.cc).
        const bool annotated = with_aggregates &&
                               (kind == RepKind::kCompressed ||
                                kind == RepKind::kUpdatable);
        EXPECT_EQ(CapabilityTags(rep.value()->capabilities()),
                  CapabilityTags(
                      KindCapabilities(kind, view.num_free(), annotated)));
      }
    }
  }
}

/// ParallelAnswer through the adapter matches the sequential stream (ordered
/// mode for the sharded compressed structure; multiset for decomposed).
TEST(AnswerRepParallel, AdapterParallelMatchesSequential) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 6);
  const AdornedView view = TriangleView("bfb");
  ParallelOptions popt;
  popt.num_threads = 3;
  for (RepKind kind : kAllKinds) {
    SCOPED_TRACE(RepKindName(kind));
    auto rep = MustBuild(kind, view, db);
    for (Value a = 1; a <= 6; ++a) {
      const BoundValuation vb{a, 12 + a};
      std::vector<Tuple> seq = AdapterAnswer(*rep, vb);
      auto par = rep->ParallelAnswer(vb, popt);
      ASSERT_TRUE(par.ok());
      std::vector<Tuple> got = CollectAll(*par.value());
      if (rep->capabilities().lex_ordered)
        EXPECT_EQ(got, seq);
      else
        EXPECT_EQ(SortedCopy(got), SortedCopy(seq));
    }
  }
}

}  // namespace
}  // namespace cqc
