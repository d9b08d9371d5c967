// The end-to-end update pipeline (docs/update-semantics.md): churn-aware
// planning, the UpdatableAnswerRep adapter, RepCache::ApplyDelta routing
// (in-place deltas for updatable entries, invalidation for static ones),
// background snapshot folds on the shared pool, and reader consistency
// while all of that churns.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "plan/planner.h"
#include "plan/rep_cache.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::InterestingBoundValuations;
using testing::ViewOracle;
using testing::SortedCopy;

// One property-sweep family: a view, its generator, and the mutation
// domain for random scripts.
struct Family {
  std::string name;
  AdornedView view;
  std::vector<std::string> relations;
  Value domain;  // tuples draw values from [1, domain]
};

std::vector<Family> MakeFamilies(Database& db, uint64_t seed) {
  std::vector<Family> out;
  MakeRandomGraph(db, "R", 10, 45, true, seed);
  out.push_back({"triangle", TriangleView("bfb"), {"R"}, 10});
  for (int i = 1; i <= 3; ++i)
    MakeRandomGraph(db, "S" + std::to_string(i), 8, 25, false,
                    seed * 100 + i);
  {
    AdornedView star = StarView(3);
    // StarView names its relations R1..Rn; rebuild against S1..S3 instead
    // so the star family mutates relations disjoint from the triangle's.
    auto parsed = ParseAdornedView(
        "Q^" + std::string("bbbf") +
        "(x1,x2,x3,z) = S1(x1,z), S2(x2,z), S3(x3,z)");
    out.push_back({"star3", parsed.value(), {"S1", "S2", "S3"}, 8});
    (void)star;
  }
  MakePathRelations(db, "P", 4, 9, 26, seed + 5);
  {
    auto parsed = ParseAdornedView(
        "Q^bffff(x1,x2,x3,x4,x5) = P1(x1,x2), P2(x2,x3), P3(x3,x4), "
        "P4(x4,x5)");
    out.push_back({"path4", parsed.value(), {"P1", "P2", "P3", "P4"}, 9});
  }
  MakeSetFamily(db, "T", 7, 12, 60, 1.1, seed + 9);
  {
    auto parsed = ParseAdornedView("Q^bbf(s1,s2,z) = T(s1,z), T(s2,z)");
    out.push_back({"setint", parsed.value(), {"T"}, 12});
  }
  return out;
}

/// Mirrors the current content of `rels` after a script, for oracles and
/// from-scratch rebuilds.
class DataMirror {
 public:
  DataMirror(const Database& db, const std::vector<std::string>& rels) {
    for (const std::string& name : rels) {
      const Relation* r = db.Find(name);
      CQC_CHECK(r != nullptr) << name;
      arity_[name] = r->arity();
      std::set<Tuple>& rows = data_[name];
      Tuple row(r->arity());
      for (size_t i = 0; i < r->size(); ++i) {
        for (int c = 0; c < r->arity(); ++c) row[c] = r->At(i, c);
        rows.insert(row);
      }
    }
  }

  void Apply(const UpdateOp& op) {
    if (op.kind == UpdateOp::kInsert)
      data_[op.relation].insert(op.tuple);
    else
      data_[op.relation].erase(op.tuple);
  }

  Database Materialize() const {
    Database out;
    for (const auto& [name, rows] : data_)
      AddRelation(out, name, arity_.at(name),
                  std::vector<Tuple>(rows.begin(), rows.end()));
    return out;
  }

  UpdateOp RandomOp(Rng& rng, const std::vector<std::string>& rels,
                    Value domain) {
    const std::string& rel = rels[rng.Uniform(rels.size())];
    Tuple t;
    for (int c = 0; c < arity_.at(rel); ++c)
      t.push_back(rng.UniformRange(1, (uint64_t)domain));
    const bool del = rng.Uniform(3) == 0;  // 2:1 insert:delete mix
    return del ? UpdateOp::Delete(rel, std::move(t))
               : UpdateOp::Insert(rel, std::move(t));
  }

 private:
  std::map<std::string, std::set<Tuple>> data_;
  std::map<std::string, int> arity_;
};

void ExpectMatchesOracle(const AnswerRep& rep, const AdornedView& view,
                         const Database& now, const std::string& context) {
  const ViewOracle oracle(view, now);
  for (const BoundValuation& vb : oracle.InterestingBoundValuations()) {
    auto got = rep.Answer(vb);
    ASSERT_TRUE(got.ok()) << context;
    std::vector<Tuple> tuples = CollectAll(*got.value());
    std::vector<Tuple> sorted = SortedCopy(tuples);
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << context << ": duplicates emitted";
    EXPECT_EQ(sorted, oracle.Answer(vb)) << context;
  }
}

TEST(UpdatePipelineTest, PlannerPricesChurn) {
  Database db;
  MakeRandomGraph(db, "R", 30, 200, true, 3);
  AdornedView view = TriangleView("bfb");
  Planner planner(&db);

  // Static workload: the updatable candidate is not even scored.
  PlannerOptions static_opt;
  auto static_plan = planner.PlanView(view, static_opt);
  ASSERT_TRUE(static_plan.ok());
  EXPECT_NE(static_plan.value().kind(), RepKind::kUpdatable);
  for (const PlanCandidate& c : static_plan.value().candidates)
    EXPECT_NE(c.kind, RepKind::kUpdatable);

  // Churny workload: updatable is scored, chosen over static structures
  // (which pay the invalidate+rebuild amortization), and its rebuild
  // fraction shrinks as churn drops.
  PlannerOptions churn_opt;
  churn_opt.churn_per_request = 0.5;
  auto churn_plan = planner.PlanView(view, churn_opt);
  ASSERT_TRUE(churn_plan.ok());
  EXPECT_EQ(churn_plan.value().kind(), RepKind::kUpdatable);
  EXPECT_GT(churn_plan.value().spec.updatable.rebuild_fraction, 0.0);
  EXPECT_LE(churn_plan.value().spec.updatable.rebuild_fraction, 0.5);

  PlannerOptions low_churn = churn_opt;
  low_churn.churn_per_request = 0.001;
  auto low_plan = planner.PlanView(view, low_churn);
  ASSERT_TRUE(low_plan.ok());
  EXPECT_LT(low_plan.value().spec.updatable.rebuild_fraction,
            churn_plan.value().spec.updatable.rebuild_fraction);

  // Explain mentions the churn pricing.
  EXPECT_NE(churn_plan.value().Explain().find("churn"), std::string::npos);
}

TEST(UpdatePipelineTest, AnswerRepAdapterContract) {
  Database db;
  MakeRandomGraph(db, "R", 12, 50, true, 9);
  AdornedView view = TriangleView("bfb");
  RepBuildSpec spec;
  spec.kind = RepKind::kUpdatable;
  spec.updatable.rep.tau = 2.0;
  auto rep = BuildAnswerRep(spec, view, db);
  ASSERT_TRUE(rep.ok()) << rep.status().message();
  EXPECT_EQ(rep.value()->kind(), RepKind::kUpdatable);
  EXPECT_TRUE(rep.value()->capabilities().updatable);
  EXPECT_FALSE(rep.value()->capabilities().lex_ordered);
  EXPECT_EQ(std::string(RepKindName(rep.value()->kind())), "updatable");
  EXPECT_EQ(ParseRepKind("updatable"), RepKind::kUpdatable);

  // Hardened entry points still validate requests.
  EXPECT_FALSE(rep.value()->Answer({1}).ok());
  // Unsupported capabilities return errors, not crashes.
  EXPECT_FALSE(
      rep.value()->AnswerRange({1, 2}, FInterval{{0}, {100}}).ok());

  // Static adapters refuse deltas.
  RepBuildSpec direct;
  direct.kind = RepKind::kDirect;
  auto d = BuildAnswerRep(direct, view, db);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d.value()->ApplyDelta({UpdateOp::Insert("R", {1, 2})}).ok());
}

TEST(UpdatePipelineTest, ThousandOpScriptsMatchScratchAcrossFamilies) {
  Database db;
  std::vector<Family> families = MakeFamilies(db, 21);
  for (const Family& fam : families) {
    RepBuildSpec spec;
    spec.kind = RepKind::kUpdatable;
    spec.updatable.rep.tau = 3.0;
    spec.updatable.rebuild_fraction = 0.3;
    auto rep = BuildAnswerRep(spec, fam.view, db);
    ASSERT_TRUE(rep.ok()) << fam.name << ": " << rep.status().message();

    DataMirror mirror(db, fam.relations);
    Rng rng(fam.name.size() * 31 + 7);
    const int kOps = 1000;
    for (int i = 0; i < kOps; ++i) {
      UpdateOp op = mirror.RandomOp(rng, fam.relations, fam.domain);
      mirror.Apply(op);
      ASSERT_TRUE(rep.value()->ApplyDelta({std::move(op)}).ok()) << fam.name;
      if (i % 250 == 249) {
        Database now = mirror.Materialize();
        ExpectMatchesOracle(*rep.value(), fam.view, now,
                            fam.name + " @op " + std::to_string(i));
      }
    }
    // Final state: the maintained structure, a from-scratch compressed
    // rebuild, and the naive oracle all agree — through the AnswerRep
    // interface.
    Database final_db = mirror.Materialize();
    RepBuildSpec scratch;
    scratch.kind = RepKind::kCompressed;
    scratch.compressed.tau = 3.0;
    auto fresh = BuildAnswerRep(scratch, fam.view, final_db);
    ASSERT_TRUE(fresh.ok()) << fam.name;
    for (const BoundValuation& vb :
         InterestingBoundValuations(fam.view, final_db)) {
      auto a = rep.value()->Answer(vb);
      auto b = fresh.value()->Answer(vb);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(SortedCopy(CollectAll(*a.value())),
                SortedCopy(CollectAll(*b.value())))
          << fam.name;
    }
  }
}

constexpr char kTriangleText[] = "Q^bfb(x,y,z) = R(x,y), R(y,z), R(z,x)";

RepCacheOptions ChurnyCacheOptions() {
  RepCacheOptions options;
  options.planner.churn_per_request = 0.5;
  return options;
}

TEST(UpdatePipelineTest, RepCacheRoutesDeltasAndMatchesScratch) {
  Database db;
  MakeRandomGraph(db, "R", 10, 45, true, 33);
  RepCache cache(&db, ChurnyCacheOptions());
  auto entry = cache.Get(kTriangleText);
  ASSERT_TRUE(entry.ok()) << entry.status().message();
  ASSERT_TRUE(entry.value()->rep().capabilities().updatable)
      << entry.value()->plan().Explain();

  AdornedView view = TriangleView("bfb");
  DataMirror mirror(db, {"R"});
  Rng rng(5);
  const int kOps = 1000;
  UpdateBatch batch;
  for (int i = 0; i < kOps; ++i) {
    UpdateOp op = mirror.RandomOp(rng, {"R"}, 10);
    mirror.Apply(op);
    batch.push_back(std::move(op));
    if (batch.size() == 25 || i + 1 == kOps) {
      ASSERT_TRUE(cache.ApplyDelta(entry.value()->key(), batch).ok());
      batch.clear();
    }
  }
  cache.WaitForRebuilds();
  RepCacheStats stats = cache.stats();
  EXPECT_GT(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.rebuilds_scheduled, stats.rebuilds_completed);

  Database final_db = mirror.Materialize();
  ExpectMatchesOracle(entry.value()->rep(), view, final_db,
                      "rep-cache script");
  // A second Get is still a hit on the same (mutated) entry.
  auto again = cache.Get(kTriangleText);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), entry.value().get());
}

TEST(UpdatePipelineTest, RepCacheInvalidatesStaticEntries) {
  Database db;
  MakeRandomGraph(db, "R", 10, 45, true, 33);
  RepCache cache(&db);  // churn 0: planner picks a static structure
  auto entry = cache.Get(kTriangleText);
  ASSERT_TRUE(entry.ok());
  ASSERT_FALSE(entry.value()->rep().capabilities().updatable);
  EXPECT_EQ(cache.size(), 1u);

  ASSERT_TRUE(cache
                  .ApplyDelta(entry.value()->key(),
                              {UpdateOp::Insert("R", {1, 2})})
                  .ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // The live handle still serves its (stale) build.
  auto e = entry.value()->rep().Answer({1, 9});
  ASSERT_TRUE(e.ok());

  // A delta addressed at a dropped/unknown key is an explicit error.
  EXPECT_FALSE(cache
                   .ApplyDelta(entry.value()->key(),
                               {UpdateOp::Insert("R", {2, 3})})
                   .ok());
}

TEST(UpdatePipelineTest, RepCacheConcurrentReadersDuringChurnAndRebuilds) {
  Database db;
  MakeRandomGraph(db, "R", 12, 60, true, 44);
  RepCacheOptions options = ChurnyCacheOptions();
  RepCache cache(&db, options);
  auto entry = cache.Get(kTriangleText);
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(entry.value()->rep().capabilities().updatable);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> failures{0};
  auto reader = [&] {
    Rng rng(std::hash<std::thread::id>{}(std::this_thread::get_id()) |
            1);
    while (!stop.load(std::memory_order_relaxed)) {
      BoundValuation vb{rng.UniformRange(1, 12), rng.UniformRange(1, 12)};
      auto stream = entry.value()->rep().Answer(vb);
      if (!stream.ok()) {
        ++failures;
        continue;
      }
      std::vector<Tuple> got = CollectAll(*stream.value());
      std::set<Tuple> seen;
      for (const Tuple& t : got) {
        // Every emitted tuple is well-formed (arity 1, in-domain) and the
        // stream is duplicate-free — a torn swap would surface here (and
        // under ASan in CI) as garbage values or repeats.
        if (t.size() != 1 || t[0] < 1 || t[0] > 12 ||
            !seen.insert(t).second) {
          ++failures;
          break;
        }
      }
      ++reads;
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  DataMirror mirror(db, {"R"});
  Rng rng(6);
  for (int round = 0; round < 40; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 20; ++i) {
      UpdateOp op = mirror.RandomOp(rng, {"R"}, 12);
      mirror.Apply(op);
      batch.push_back(std::move(op));
    }
    ASSERT_TRUE(cache.ApplyDelta(entry.value()->key(), batch).ok());
  }
  cache.WaitForRebuilds();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  RepCacheStats stats = cache.stats();
  // Folds were scheduled, all completed, and they coalesced: strictly
  // fewer folds than deltas (one per threshold crossing, not per batch).
  EXPECT_GT(stats.rebuilds_completed, 0u);
  EXPECT_EQ(stats.rebuilds_scheduled, stats.rebuilds_completed);
  EXPECT_LT(stats.rebuilds_scheduled, stats.deltas_applied);

  // Readers done: final differential check against the mirror.
  Database final_db = mirror.Materialize();
  ExpectMatchesOracle(entry.value()->rep(), TriangleView("bfb"), final_db,
                      "concurrent churn");
}

TEST(UpdatePipelineTest, CliStyleScriptThroughPlannerAuto) {
  // --plan auto with churn: the planner must pick updatable on its own and
  // the adapter must serve interleaved mutations and queries.
  Database db;
  MakeRandomGraph(db, "R", 10, 40, true, 2);
  Planner planner(&db);
  PlannerOptions popt;
  popt.churn_per_request = 1.0;
  AdornedView view = TriangleView("bfb");
  auto plan = planner.PlanView(view, popt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().kind(), RepKind::kUpdatable) << plan.value().Explain();
  auto rep = planner.BuildPlan(view, plan.value());
  ASSERT_TRUE(rep.ok());

  DataMirror mirror(db, {"R"});
  Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    UpdateOp op = mirror.RandomOp(rng, {"R"}, 10);
    mirror.Apply(op);
    ASSERT_TRUE(rep.value()->ApplyDelta({std::move(op)}).ok());
  }
  Database now = mirror.Materialize();
  ExpectMatchesOracle(*rep.value(), view, now, "planner-auto script");
}

}  // namespace
}  // namespace cqc
