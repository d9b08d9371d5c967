// Cost-based representation planning: pick (structure, tau) from catalog
// statistics and a space budget.
//
// The paper's §6 optimizers already answer "best tau and cover for Theorem 1
// under a budget" (MinDelayCover) and "best per-bag delay exponents for
// Theorem 2" (OptimizeDelayAssignment); the two baselines bracket the
// tradeoff. The Planner runs all four, prices each candidate in the same
// currency — predicted space and delay as exponents of N — and picks the
// minimum-delay candidate that fits the budget (ties: smaller space, then
// the cheaper structure). This is the decision the repo previously left to
// a hand-picked CLI flag.
//
// Predicted sizes are the paper's asymptotic bounds evaluated on the
// catalog statistics (AGM products over actual relation sizes), not byte
// counts: they order candidates correctly and make budget feasibility a
// clean linear constraint, while measured bytes stay a per-build statistic
// (bench_planner reports predicted-vs-measured and plan regret).
#ifndef CQC_PLAN_PLANNER_H_
#define CQC_PLAN_PLANNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plan/answer_rep.h"
#include "query/adorned_view.h"
#include "relational/database.h"
#include "util/status.h"
#include "workload/catalog.h"

namespace cqc {

struct PlannerOptions {
  /// Space budget exponent B: the structure may use O~(N^B) tuple units,
  /// N = largest relation. Negative = unlimited.
  double space_budget_exponent = -1;
  /// Score only this structure family (forcing a kind for ablations and
  /// `--plan <kind>`); unset = every family. The updatable candidate (§8
  /// extension: Theorem-1 snapshot + signed pending delta) is scored only
  /// for mutable workloads (churn > 0), pinned or not.
  std::optional<RepKind> only_kind;
  /// Expected base-table mutations per access request (the workload churn
  /// rate, recorded into CatalogStats). 0 = static workload: the updatable
  /// candidate is skipped and no maintenance cost is priced in. When > 0,
  /// every static candidate's delay is charged an amortized
  /// invalidate-and-rebuild term (churn * predicted space per request)
  /// while the updatable candidate pays its delta-join + amortized-fold
  /// cost at the planner-optimized rebuild fraction — see
  /// docs/update-semantics.md.
  double churn_per_request = 0;
  /// Fraction of access requests that are grouped aggregates
  /// (COUNT/SUM/MIN/MAX) rather than enumerations, in [0, 1]. When > 0 the
  /// compressed/updatable specs are built with aggregate annotations
  /// (charged as a constant-factor space increase) and every candidate's
  /// delay becomes the request mix: (1-f) * enumeration delay + f * its
  /// aggregate-answer cost (~O(1) for annotated interval arithmetic, the
  /// structure scan for materialized/decomposed folds, the full join drain
  /// for direct).
  double aggregate_fraction = 0;
};

/// One scored candidate. Exponents are log-space values (natural log);
/// divide by log_n for the N^x form.
struct PlanCandidate {
  RepKind kind = RepKind::kDirect;
  double tau = 1.0;
  double predicted_log_space = 0;
  double predicted_log_delay = 0;
  bool feasible = false;
  /// What the candidate's structure would support if built (Explain prints
  /// the full tag set so capability differences — counting, aggregates,
  /// sharding — are visible next to the space/delay exponents).
  RepCapabilities caps;
  std::string note;
};

struct Plan {
  /// What to build (kind plus the structure-specific knobs the scoring
  /// chose: tau + cover, or decomposition + delay assignment).
  RepBuildSpec spec;
  double predicted_log_space = 0;
  double predicted_log_delay = 0;
  /// ln Sigma for the budget (negative = unlimited) and ln N for display.
  double log_space_budget = -1;
  double log_n = 0;
  /// The churn rate the candidates were priced at (0 = static workload).
  double churn_per_request = 0;
  /// The aggregate request fraction the candidates were priced at
  /// (0 = enumeration-only workload).
  double aggregate_fraction = 0;
  /// False when no candidate fit the budget and the planner fell back to
  /// the smallest-space candidate.
  bool within_budget = true;
  /// Every candidate scored, in evaluation order (for explain / tests).
  std::vector<PlanCandidate> candidates;

  double tau() const { return spec.compressed.tau; }
  RepKind kind() const { return spec.kind; }
  /// Multi-line human-readable account of the decision.
  std::string Explain() const;
};

class Planner {
 public:
  /// Both databases must outlive the planner and anything it builds.
  explicit Planner(const Database* db, const Database* aux_db = nullptr)
      : db_(db), aux_db_(aux_db) {}

  /// Scores every applicable candidate for `view` (a natural-join full CQ;
  /// run NormalizeView first) and returns the chosen plan.
  Result<Plan> PlanView(const AdornedView& view,
                        const PlannerOptions& options = {}) const;

  /// Builds the representation a plan chose.
  Result<std::unique_ptr<AnswerRep>> BuildPlan(const AdornedView& view,
                                               const Plan& plan) const;

 private:
  const Database* db_;
  const Database* aux_db_;
};

}  // namespace cqc

#endif  // CQC_PLAN_PLANNER_H_
