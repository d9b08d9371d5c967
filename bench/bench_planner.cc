// bench_planner — the cost-based planner against every fixed structure.
//
// For each of four workload families (triangle on the tripartite worst
// case, the §1 co-author view on Zipf data, path, set-intersection) and a
// per-family space budget Sigma = N^B, this bench:
//   1. builds each *fixed* structure choice under the same budget (the
//      restricted planner picks tau / the delay assignment for the tunable
//      structures; materialized and direct have no knobs),
//   2. builds the planner's *auto* choice over all candidates,
//   3. measures build time, resident bytes, and per-request delay
//      percentiles (in deterministic abstract ops) through the unified
//      AnswerRep interface, and
//   4. reports the plan-choice regret: auto's p95 delay minus the best
//      fixed structure whose *measured* footprint fits the budget.
//
// Budget compliance convention: a budget of Sigma tuple-units allows
// Sigma * 8 bytes per head column (one 64-bit word per column per unit).
// BENCH_planner.json carries one record per (family, structure) plus the
// auto record with regret fields, so plan quality is tracked across PRs.
#include <cmath>
#include <cstdio>
#include "bench/bench_common.h"
#include "plan/planner.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace {

using namespace cqc;

std::vector<double> ToDouble(const std::vector<uint64_t>& xs) {
  return std::vector<double>(xs.begin(), xs.end());
}

struct Measured {
  std::string label;
  bool is_auto = false;
  RepKind kind = RepKind::kDirect;
  Plan plan;
  double build_seconds = 0;
  size_t space_bytes = 0;
  bool measured_within_budget = false;
  double delay_ops_p50 = 0, delay_ops_p95 = 0, delay_ops_max = 0;
  bench::RequestStats stats;
};

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  bench::BenchReport report("planner");
  int families = 0;
  int matched = 0;

  struct FamilyCase {
    std::string name;
    double budget;
  };
  for (const FamilyCase fc :
       {FamilyCase{"triangle_bfb", 1.2}, FamilyCase{"coauthor_bff", 1.3},
        FamilyCase{"path4", 1.6}, FamilyCase{"setint_bbf", 1.2}}) {
    // --- family setup -------------------------------------------------------
    Database db;
    std::vector<BoundValuation> requests;
    std::optional<AdornedView> view;
    if (fc.name == "triangle_bfb") {
      MakeTripartiteTriangleGraph(db, "R", 40);
      view = TriangleView("bfb");
      for (Value a = 1; a <= 20; ++a) requests.push_back({a, 80 + a});
    } else if (fc.name == "coauthor_bff") {
      // The §1 graph-analytics application on the Zipf-skewed DBLP-style
      // workload: a few prolific authors create the heavy co-author lists.
      MakeZipfBipartite(db, "R", 400, 1500, 8000, 1.2, 5);
      view = CoauthorView();
      for (Value a = 1; a <= 23; ++a) requests.push_back({a});
      requests.push_back({0});
      requests.push_back({999999999});
    } else if (fc.name == "path4") {
      MakePathRelations(db, "R", 4, 60, 400, 7);
      view = PathView(4);
      const Relation* r1 = db.Find("R1");
      const Relation* r4 = db.Find("R4");
      Rng rng(11);
      for (int i = 0; i < 25; ++i)
        requests.push_back(
            {r1->At(rng.UniformRange(0, r1->size() - 1), 0),
             r4->At(rng.UniformRange(0, r4->size() - 1), 1)});
    } else {
      MakeSetFamily(db, "R", 60, 1500, 9000, 1.1, 3);
      view = SetIntersectionView();
      for (Value s1 = 1; s1 <= 5; ++s1)
        for (Value s2 = s1 + 1; s2 <= s1 + 5; ++s2)
          requests.push_back({s1, s2});
    }

    auto stats = CollectCatalogStats(*view, db);
    CQC_CHECK(stats.ok()) << stats.status().message();
    const double log_n = stats.value().log_n;
    const int head_arity = view->num_bound() + view->num_free();
    const double budget_bytes =
        std::exp(fc.budget * log_n) * 8.0 * head_arity;
    bench::Banner(
        StrFormat("planner: %s", fc.name.c_str()),
        StrFormat("budget Sigma = N^%.1f (N = %.0f, %s): auto choice should "
                  "match the best budget-fitting fixed structure",
                  fc.budget, std::exp(log_n),
                  bench::HumanBytes((size_t)budget_bytes).c_str()));

    // --- build + measure every candidate ------------------------------------
    Planner planner(&db);
    std::vector<Measured> measured;
    auto run = [&](const std::string& label, bool is_auto,
                   const PlannerOptions& popt) {
      auto planned = planner.PlanView(*view, popt);
      if (!planned.ok()) {
        std::printf("  %-18s plan failed: %s\n", label.c_str(),
                    planned.status().message().c_str());
        return;
      }
      Measured m;
      m.label = label;
      m.is_auto = is_auto;
      m.plan = std::move(planned).value();
      m.kind = m.plan.spec.kind;
      auto rep = planner.BuildPlan(*view, m.plan);
      if (!rep.ok()) {
        std::printf("  %-18s build failed: %s\n", label.c_str(),
                    rep.status().message().c_str());
        return;
      }
      m.build_seconds = rep.value()->build_seconds();
      m.space_bytes = rep.value()->SpaceBytes();
      m.measured_within_budget = (double)m.space_bytes <= budget_bytes;
      m.stats = bench::MeasureRep(requests, *rep.value());
      m.delay_ops_p50 =
          bench::Percentile(ToDouble(m.stats.request_delay_ops), 50);
      m.delay_ops_p95 =
          bench::Percentile(ToDouble(m.stats.request_delay_ops), 95);
      m.delay_ops_max = (double)m.stats.worst_delay_ops;
      measured.push_back(std::move(m));
    };

    PlannerOptions base;
    base.space_budget_exponent = fc.budget;
    for (RepKind kind : {RepKind::kMaterialized, RepKind::kCompressed,
                         RepKind::kDecomposed, RepKind::kDirect}) {
      PlannerOptions popt = base;
      popt.only_kind = kind;
      run(RepKindName(kind), /*is_auto=*/false, popt);
    }
    run("auto", /*is_auto=*/true, base);

    // --- regret: auto vs the best budget-fitting fixed structure ------------
    const Measured* auto_m = nullptr;
    const Measured* best_fixed = nullptr;
    for (const Measured& m : measured) {
      if (m.is_auto) {
        auto_m = &m;
      } else if (m.measured_within_budget &&
                 (best_fixed == nullptr ||
                  m.delay_ops_p95 < best_fixed->delay_ops_p95)) {
        best_fixed = &m;
      }
    }

    bench::Table table({"structure", "plan", "build s", "space", "fits",
                        "delay ops p50", "p95", "max", "total s", "tuples"});
    for (const Measured& m : measured) {
      table.AddRow(
          {m.label, RepKindName(m.kind),
           StrFormat("%.3f", m.build_seconds),
           bench::HumanBytes(m.space_bytes),
           m.measured_within_budget ? "yes" : "NO",
           StrFormat("%.0f", m.delay_ops_p50),
           StrFormat("%.0f", m.delay_ops_p95),
           StrFormat("%.0f", m.delay_ops_max),
           StrFormat("%.4f", m.stats.total_seconds),
           StrFormat("%zu", m.stats.total_tuples)});
      bench::JsonObject& rec = report.AddRecord();
      rec.Set("family", fc.name)
          .Set("structure", m.label)
          .Set("is_auto", m.is_auto ? 1 : 0)
          .Set("chosen_kind", RepKindName(m.kind))
          .Set("tau", m.plan.spec.compressed.tau)
          .Set("budget_exponent", fc.budget)
          .Set("budget_bytes", (unsigned long long)budget_bytes)
          .Set("predicted_space_exp", m.plan.predicted_log_space / log_n)
          .Set("predicted_delay_exp", m.plan.predicted_log_delay / log_n)
          .Set("build_seconds", m.build_seconds)
          .Set("space_bytes", (unsigned long long)m.space_bytes)
          .Set("within_budget", m.measured_within_budget ? 1 : 0)
          .Set("delay_ops_p50", m.delay_ops_p50)
          .Set("delay_ops_p95", m.delay_ops_p95)
          .Set("delay_ops_max", m.delay_ops_max)
          .SetRequestStats("answer", m.stats);
      if (m.is_auto && best_fixed != nullptr) {
        rec.Set("best_fixed", best_fixed->label)
            .Set("regret_delay_ops_p95",
                 m.delay_ops_p95 - best_fixed->delay_ops_p95)
            .Set("regret_total_seconds",
                 m.stats.total_seconds - best_fixed->stats.total_seconds);
      }
    }
    table.Print();

    if (auto_m != nullptr && best_fixed != nullptr) {
      ++families;
      // Deterministic ops: a correct plan choice reproduces the best fixed
      // structure's delays exactly; allow 10% headroom for near-ties.
      const bool ok = auto_m->measured_within_budget &&
                      auto_m->delay_ops_p95 <=
                          best_fixed->delay_ops_p95 * 1.10 + 16;
      matched += ok ? 1 : 0;
      std::printf(
          "  auto chose %s (p95 %.0f ops) vs best fixed %s (p95 %.0f ops): "
          "%s\n",
          RepKindName(auto_m->kind), auto_m->delay_ops_p95,
          best_fixed->label.c_str(), best_fixed->delay_ops_p95,
          ok ? "MATCH" : "REGRET");
      std::printf("%s", auto_m->plan.Explain().c_str());
    }
  }

  std::printf("\nplanner matched the best budget-fitting fixed structure on "
              "%d/%d families\n",
              matched, families);
  return 0;
}
