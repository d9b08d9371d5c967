// Planner unit tests: budget monotonicity (a tightened space budget never
// selects a larger-space plan), feasibility flags, candidate restriction,
// boolean views, and end-to-end agreement of the built plan with the naive
// oracle. Plus the canonical cache key used by the serving layer.
#include <gtest/gtest.h>

#include <cmath>

#include "plan/planner.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::InterestingBoundValuations;
using testing::OracleAnswer;
using testing::SortedCopy;

TEST(CatalogStats, CollectsSizesAndLogs) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 6);
  auto stats = CollectCatalogStats(TriangleView("bfb"), db);
  ASSERT_TRUE(stats.ok());
  const Relation* r = db.Find("R");
  EXPECT_EQ(stats.value().log_sizes.size(), 3u);  // one per atom
  for (double ls : stats.value().log_sizes)
    EXPECT_NEAR(ls, std::log((double)r->size()), 1e-12);
  EXPECT_NEAR(stats.value().log_n, std::log((double)r->size()), 1e-12);
  // The three atoms share one relation: |D| counts it once.
  EXPECT_EQ(stats.value().total_tuples, r->size());
  EXPECT_GT(stats.value().input_bytes, 0u);
}

TEST(CatalogStats, MissingRelationIsAnError) {
  Database db;
  EXPECT_FALSE(CollectCatalogStats(TriangleView("bfb"), db).ok());
}

TEST(Planner, TightenedBudgetNeverSelectsLargerSpacePlan) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 8);
  const AdornedView view = TriangleView("bfb");
  Planner planner(&db);
  double prev_space = 1e300;
  // Descending budgets: predicted space of the selected plan must be
  // non-increasing, and every within-budget plan must actually fit.
  for (double budget : {3.0, 2.0, 1.6, 1.3, 1.1, 1.0, 0.9, 0.5}) {
    PlannerOptions popt;
    popt.space_budget_exponent = budget;
    auto plan = planner.PlanView(view, popt);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    const Plan& p = plan.value();
    EXPECT_LE(p.predicted_log_space, prev_space + 1e-6)
        << "budget exponent " << budget;
    prev_space = p.predicted_log_space;
    if (p.within_budget)
      EXPECT_LE(p.predicted_log_space, p.log_space_budget + 1e-6);
  }
}

TEST(Planner, UnlimitedBudgetPicksAConstantDelayPlan) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 8);
  Planner planner(&db);
  auto plan = planner.PlanView(TriangleView("bfb"));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().within_budget);
  EXPECT_NEAR(plan.value().predicted_log_delay, 0.0, 1e-9);
  EXPECT_EQ(plan.value().candidates.size(), 4u);
}

TEST(Planner, ImpossibleBudgetFallsBackToSmallestSpace) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 8);
  Planner planner(&db);
  PlannerOptions popt;
  popt.space_budget_exponent = 0.1;  // below linear space
  auto plan = planner.PlanView(TriangleView("bfb"), popt);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().within_budget);
  // The fallback is the smallest-space buildable candidate.
  for (const PlanCandidate& c : plan.value().candidates)
    if (c.feasible)
      EXPECT_GE(c.predicted_log_space,
                plan.value().predicted_log_space - 1e-6);
}

TEST(Planner, RestrictedCandidatesAreHonored) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 8);
  Planner planner(&db);
  for (RepKind kind : {RepKind::kCompressed, RepKind::kDecomposed,
                       RepKind::kDirect, RepKind::kMaterialized}) {
    PlannerOptions popt;
    popt.only_kind = kind;
    auto plan = planner.PlanView(TriangleView("bfb"), popt);
    ASSERT_TRUE(plan.ok()) << RepKindName(kind);
    EXPECT_EQ(plan.value().spec.kind, kind);
  }
}

TEST(Planner, BooleanViewUsesProp1) {
  Database db;
  testing::AddRelation(db, "R", 2, {{1, 2}, {2, 3}});
  auto view = ParseAdornedView("Q^bb(x,y) = R(x,y)");
  ASSERT_TRUE(view.ok());
  Planner planner(&db);
  auto plan = planner.PlanView(view.value());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().spec.kind, RepKind::kCompressed);
  EXPECT_NEAR(plan.value().tau(), 1.0, 1e-9);
  EXPECT_NEAR(plan.value().predicted_log_delay, 0.0, 1e-9);
}

TEST(Planner, ExplainNamesEveryCandidate) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 6);
  Planner planner(&db);
  PlannerOptions popt;
  popt.space_budget_exponent = 1.2;
  auto plan = planner.PlanView(TriangleView("bfb"), popt);
  ASSERT_TRUE(plan.ok());
  const std::string text = plan.value().Explain();
  EXPECT_NE(text.find("plan:"), std::string::npos);
  for (const char* name :
       {"materialized", "compressed", "decomposed", "direct"})
    EXPECT_NE(text.find(name), std::string::npos) << text;
  EXPECT_NE(text.find("budget"), std::string::npos);
}

TEST(Planner, BuiltPlansMatchTheOracleAcrossBudgets) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  const AdornedView view = TriangleView("bfb");
  Planner planner(&db);
  // A small evenly spaced request sample keeps the naive-oracle cost sane
  // under ASan; each budget may select a different structure.
  std::vector<BoundValuation> vbs = InterestingBoundValuations(view, db);
  if (vbs.size() > 8) {
    std::vector<BoundValuation> sampled;
    for (size_t i = 0; i < 8; ++i)
      sampled.push_back(vbs[i * vbs.size() / 8]);
    vbs = std::move(sampled);
  }
  for (double budget : {-1.0, 2.0, 1.2, 1.0}) {
    PlannerOptions popt;
    popt.space_budget_exponent = budget;
    auto plan = planner.PlanView(view, popt);
    ASSERT_TRUE(plan.ok());
    auto rep = planner.BuildPlan(view, plan.value());
    ASSERT_TRUE(rep.ok()) << rep.status().message();
    for (const BoundValuation& vb : vbs) {
      auto e = rep.value()->Answer(vb);
      ASSERT_TRUE(e.ok());
      EXPECT_EQ(SortedCopy(CollectAll(*e.value())),
                OracleAnswer(view, db, vb));
    }
  }
}

TEST(Planner, NonNaturalViewIsRejected) {
  Database db;
  testing::AddRelation(db, "R", 2, {{1, 1}, {2, 3}});
  auto view = ParseAdornedView("Q^f(x) = R(x,x)");  // repeated variable
  ASSERT_TRUE(view.ok());
  Planner planner(&db);
  EXPECT_FALSE(planner.PlanView(view.value()).ok());
  // After normalization it plans fine.
  auto normalized = NormalizeView(view.value(), db);
  ASSERT_TRUE(normalized.ok());
  Planner aux_planner(&db, &normalized.value().aux_db);
  EXPECT_TRUE(aux_planner.PlanView(normalized.value().view).ok());
}

TEST(CanonicalViewKey, InvariantUnderAlphaRenaming) {
  auto a = ParseAdornedView("Q^bf(x,y) = R(x,y), S(y,x)");
  auto b = ParseAdornedView("Q^bf(u,v) = R(u,v), S(v,u)");
  auto c = ParseAdornedView("Q^fb(x,y) = R(x,y), S(y,x)");   // adornment
  auto d = ParseAdornedView("Q^bf(x,y) = R(x,y), S(x,y)");   // join shape
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_EQ(CanonicalViewKey(a.value()), CanonicalViewKey(b.value()));
  EXPECT_NE(CanonicalViewKey(a.value()), CanonicalViewKey(c.value()));
  EXPECT_NE(CanonicalViewKey(a.value()), CanonicalViewKey(d.value()));
}

}  // namespace
}  // namespace cqc
