// Experiment E12 (§8 extension): maintenance cost under mutations.
//
// Part 1 measures amortized insert cost across rebuild thresholds and the
// answering overhead a pending delta adds (the original insert-only E12,
// now with a 25% deletion mix). Part 2 is the serving headline: sustained
// query throughput on the triangle view while a configurable churn rate
// (mutations per request, half inserts / half deletes) flows through the
// plan-layer update pipeline — planner-priced updatable structure,
// AnswerRep::ApplyDelta, amortized snapshot folds. BENCH_updates.json
// records one drain_single_mtps series per churn rate; the perf gate
// (tools/bench_compare.py) compares them against bench/baselines/.
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "core/updatable_rep.h"
#include "plan/planner.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/catalog.h"
#include "workload/generators.h"

namespace {

using namespace cqc;

void RunRebuildFractionTable() {
  using bench::Table;
  const int num_ops = 2000;
  Table table({"rebuild fraction", "rebuilds", "total update s", "us/update",
               "answer s (200 reqs)", "worst delay (ops)"});
  for (double fraction : {0.05, 0.2, 0.5, 1e9}) {
    Database db;
    MakeRandomGraph(db, "R", 300, 8000, true, 11);
    AdornedView view = TriangleView("bfb");
    UpdatableRepOptions options;
    options.rep.tau = 64.0;
    options.rebuild_fraction = fraction;
    auto rep = UpdatableRep::Build(view, db, options).value();

    Rng rng(3);
    WallTimer update_timer;
    for (int i = 0; i < num_ops; ++i) {
      Value a = rng.UniformRange(1, 300), b = rng.UniformRange(1, 300);
      if (a == b) continue;
      // 3:1 insert:delete mix — the delta carries tombstone mass too.
      if (i % 4 == 3)
        rep->Delete("R", {a, b}).ok();
      else
        rep->Insert("R", {a, b}).ok();
    }
    double update_s = update_timer.Seconds();

    std::vector<BoundValuation> requests;
    for (int i = 0; i < 200; ++i) {
      Value a = rng.UniformRange(1, 300), b = rng.UniformRange(1, 300);
      if (a != b) requests.push_back({a, b});
    }
    WallTimer answer_timer;
    auto s = bench::MeasureRequests(
        requests, [&](const BoundValuation& vb) { return rep->Answer(vb); });
    double answer_s = answer_timer.Seconds();

    table.AddRow(
        {fraction > 1e8 ? "never" : StrFormat("%.2f", fraction),
         StrFormat("%d", rep->num_rebuilds()),
         StrFormat("%.3f", update_s),
         StrFormat("%.1f", update_s * 1e6 / num_ops),
         StrFormat("%.3f", answer_s),
         StrFormat("%llu", (unsigned long long)s.worst_delay_ops)});
  }
  table.Print();
  std::printf(
      "\nreading: smaller fractions rebuild more often (costlier updates,\n"
      "cheaper answers); 'never' leaves all work to the per-request delta\n"
      "joins and tombstone filters.\n");
}

void RunSustainedChurnSweep(bench::BenchReport& report) {
  using bench::Table;
  const int num_requests = 1500;
  Table table({"churn (ops/req)", "plan f", "mutations", "rebuilds",
               "tuples", "total s", "sustained Mtps", "delay p95 (us)"});
  for (double churn : {0.05, 0.2, 1.0}) {
    Database db;
    MakeRandomGraph(db, "R", 300, 8000, true, 11);
    // One bound variable: each request drains the node's full triangle
    // neighborhood, so throughput is tuple-dominated, not setup-dominated.
    AdornedView view = TriangleView("bff");

    // Through the plan layer: the planner prices the churn rate and picks
    // the rebuild fraction; the build returns the AnswerRep adapter.
    Planner planner(&db);
    PlannerOptions popt;
    popt.only_kind = RepKind::kUpdatable;
    popt.churn_per_request = churn;
    Plan plan = planner.PlanView(view, popt).value();
    auto rep = planner.BuildPlan(view, plan).value();
    auto* up = dynamic_cast<UpdatableAnswerRep*>(rep.get());

    Rng rng(17);
    bench::RequestStats stats;
    double carry = 0;  // fractional churn accumulates across requests
    size_t mutations = 0;
    WallTimer total;
    for (int i = 0; i < num_requests; ++i) {
      carry += churn;
      UpdateBatch batch;
      while (carry >= 1.0) {
        carry -= 1.0;
        Value a = rng.UniformRange(1, 300), b = rng.UniformRange(1, 300);
        if (a == b) continue;
        batch.push_back(mutations % 2 == 0 ? UpdateOp::Insert("R", {a, b})
                                           : UpdateOp::Delete("R", {a, b}));
        ++mutations;
      }
      if (!batch.empty()) rep->ApplyDelta(batch).ok();
      auto e = rep->Answer({rng.UniformRange(1, 300)}).value();
      stats.Add(MeasureEnumeration(*e));
    }
    const double total_s = total.Seconds();
    const double mtps =
        total_s > 0 ? (double)stats.total_tuples / total_s / 1e6 : 0;
    const int rebuilds = up->underlying().num_rebuilds();

    table.AddRow({StrFormat("%.2f", churn),
                  StrFormat("%.3g", plan.spec.updatable.rebuild_fraction),
                  StrFormat("%zu", mutations), StrFormat("%d", rebuilds),
                  StrFormat("%zu", stats.total_tuples),
                  StrFormat("%.3f", total_s), StrFormat("%.2f", mtps),
                  StrFormat("%.1f",
                            bench::Percentile(stats.request_delay_us, 95))});

    auto& rec = report.AddRecord();
    rec.Set("experiment", "triangle_sustained_churn");
    rec.Set("structure", StrFormat("updatable@churn=%.2f", churn));
    rec.Set("churn_per_request", churn);
    rec.Set("rebuild_fraction", plan.spec.updatable.rebuild_fraction);
    rec.Set("requests", (unsigned long long)num_requests);
    rec.Set("mutations", (unsigned long long)mutations);
    rec.Set("rebuilds", rebuilds);
    rec.Set("total_seconds", total_s);
    rec.Set("drain_single_mtps", mtps);
    rec.SetRequestStats("single", stats);
  }
  table.Print();
  std::printf(
      "\nreading: sustained Mtps folds mutation cost, tombstone filtering,\n"
      "delta joins, and amortized snapshot folds into one serving number;\n"
      "higher churn shifts work from enumeration to maintenance.\n");
}

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);

  bench::Banner("E12: maintenance under updates (§8 extension)",
                "amortized update ~ rebuild cost * fraction; delta answering "
                "adds O~(|delta| join) per request; deletions filter via "
                "tombstone probes");
  RunRebuildFractionTable();

  bench::Banner("E12b: sustained serving throughput under churn",
                "the update pipeline keeps query throughput within a "
                "constant factor of the static structure at moderate churn");
  cqc::bench::BenchReport report("updates");
  RunSustainedChurnSweep(report);
  return 0;
}
