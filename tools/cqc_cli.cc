// cqc_cli — build and query a planned answer representation (see Usage()).
//
// Reads one access request per line from stdin (bound values, in head
// order) and prints the matching free-variable tuples. With --plan auto
// (or any plan plus --space-budget B, an exponent: Sigma = N^B) the
// cost-based planner picks the structure and tau and prints its explain
// report to stderr. All serving goes through the AnswerRep interface, so
// every structure gets the same batch drain and (with --threads N > 1)
// the same shard-parallel enumeration where the structure supports it.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/serialization.h"
#include "plan/answer_rep.h"
#include "plan/planner.h"
#include "plan/script.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "relational/csv.h"
#include "util/failpoint.h"
#include "util/request_context.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: cqc_cli --rel NAME=PATH:ARITY [--rel ...] --view VIEW\n"
      "               [--plan auto|compressed|decomposed|direct|materialized|"
      "updatable]\n"
      "               [--tau T] [--space-budget B] [--threads N] [--stats]\n"
      "               [--save PATH] [--load PATH | --load-mmap PATH]\n"
      "               [--mutate] [--churn RATE] [--agg-fraction F]\n"
      "               [--deadline-ms N] [--failpoint SPEC]\n"
      "--deadline-ms N gives every request an N-millisecond deadline; an\n"
      "expired request stops within one batch and reports DEADLINE_EXCEEDED.\n"
      "--failpoint SPEC arms a fault-injection site (site[=p[:skip[:max]]],\n"
      "repeatable; the CQC_FAILPOINTS env var works too — docs/robustness.md\n"
      "has the site catalog).\n"
      "--load reads a CQCREP05 file into heap memory; --load-mmap maps it\n"
      "zero-copy (opens in O(header) time, pages fault in on demand).\n"
      "--agg-fraction F prices F of the requests as grouped aggregates\n"
      "(builds annotations into the compressed/updatable candidates).\n"
      "then: one access request per line on stdin (bound values), or an\n"
      "aggregate request:\n"
      "  agg count <k> [bound...]          grouped COUNT over the first k\n"
      "                                    free variables\n"
      "  agg sum|min|max <var> <k> [bound...]  ring fold of free var <var>\n"
      "each group prints as: key values, count[, aggregate value].\n"
      "with --mutate, stdin is a script of interleaved mutations and\n"
      "queries (docs/update-semantics.md):\n"
      "  + REL v1 v2 ...   insert a tuple into REL\n"
      "  - REL v1 v2 ...   delete a tuple from REL\n"
      "  ? v1 v2 ...       access request (bound values)\n"
      "  agg ...           aggregate request (as above)\n"
      "  rebuild           fold the pending delta into the snapshot now\n"
      "  stats             print the structure state to stderr\n"
      "  # ...             comment\n"
      "a malformed or failed line prints an error naming the line and the\n"
      "process exits nonzero once the script finishes.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqc;
  Database db;
  std::string view_text, save_path, load_path, plan_name = "compressed";
  double tau = 1.0;
  double space_budget = -1;
  double churn = -1;  // <0 = unset; defaults to 0.5 in --mutate mode
  double agg_fraction = 0;
  bool want_stats = false;
  bool load_mmap = false;
  bool mutate = false;
  int threads = 1;
  long deadline_ms = 0;  // 0 = unbounded

  if (int n = failpoint::ArmFromEnv(); n > 0)
    std::fprintf(stderr, "armed %d failpoint(s) from CQC_FAILPOINTS\n", n);

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--rel") {
      std::string spec = next();
      size_t eq = spec.find('=');
      size_t colon = spec.rfind(':');
      if (eq == std::string::npos || colon == std::string::npos ||
          colon < eq) {
        std::fprintf(stderr, "bad --rel spec: %s\n", spec.c_str());
        return 2;
      }
      std::string name = spec.substr(0, eq);
      std::string path = spec.substr(eq + 1, colon - eq - 1);
      int arity = std::atoi(spec.c_str() + colon + 1);
      auto loaded = LoadRelationCsv(db, name, arity, path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().message().c_str());
        return 1;
      }
      std::fprintf(stderr, "loaded %s: %zu tuples\n", name.c_str(),
                   loaded.value()->size());
    } else if (arg == "--view" || arg == "--plan" || arg == "--save" ||
               arg == "--load" || arg == "--load-mmap") {
      std::string& dst = arg == "--view"   ? view_text
                         : arg == "--plan" ? plan_name
                         : arg == "--save" ? save_path
                                           : load_path;
      if (arg == "--load-mmap") load_mmap = true;
      dst = next();
    } else if (arg == "--tau" || arg == "--space-budget" ||
               arg == "--churn" || arg == "--agg-fraction") {
      (arg == "--tau"            ? tau
       : arg == "--space-budget" ? space_budget
       : arg == "--churn"        ? churn
                                 : agg_fraction) = std::atof(next());
    } else if (arg == "--mutate") {
      mutate = true;
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--threads") {
      threads = std::atoi(next());
      if (threads < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 2;
      }
    } else if (arg == "--deadline-ms") {
      deadline_ms = std::atol(next());
      if (deadline_ms < 1) {
        std::fprintf(stderr, "--deadline-ms must be >= 1\n");
        return 2;
      }
    } else if (arg == "--failpoint") {
      const char* spec = next();
      if (!failpoint::ArmSpec(spec)) {
        std::fprintf(stderr, "bad --failpoint spec: %s\n", spec);
        return 2;
      }
    } else {
      Usage();
      return 2;
    }
  }
  if (view_text.empty()) {
    Usage();
    return 2;
  }

  auto parsed = ParseAdornedView(view_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "view: %s\n", parsed.status().message().c_str());
    return 1;
  }
  auto normalized = NormalizeView(parsed.value(), db);
  if (!normalized.ok()) {
    std::fprintf(stderr, "%s\n", normalized.status().message().c_str());
    return 1;
  }
  const AdornedView& view = normalized.value().view;
  const Database* aux = &normalized.value().aux_db;
  if (mutate) {
    // Normalization rewrites atoms with constants / repeated variables
    // into derived aux relations (R__n<k>). Mutations name *base*
    // relations, so the derived copies would silently go stale — reject
    // instead of serving wrong answers (the RepCache guards the same case
    // by invalidating such entries).
    for (const Atom& atom : view.cq().atoms()) {
      if (db.Find(atom.relation) != nullptr) continue;
      std::fprintf(stderr,
                   "--mutate requires a natural-join view (atom %s was "
                   "normalized into a derived relation that updates cannot "
                   "reach)\n",
                   atom.relation.c_str());
      return 2;
    }
  }

  // --mutate serves a mutable workload: the structure must be updatable,
  // and the planner prices the churn rate into the choice.
  if (mutate) {
    if (plan_name == "compressed") plan_name = "updatable";  // default flag
    if (plan_name != "updatable" && plan_name != "auto") {
      std::fprintf(stderr, "--mutate requires --plan updatable or auto\n");
      return 2;
    }
    if (!load_path.empty()) {
      std::fprintf(stderr, "--mutate cannot serve a %s'ed snapshot\n",
                   load_mmap ? "--load-mmap" : "--load");
      return 2;
    }
  }
  if (churn < 0) churn = mutate ? 0.5 : 0;

  std::unique_ptr<AnswerRep> rep;
  if (!load_path.empty()) {
    auto loaded = LoadCompressedRep(
        view, db, load_path, aux,
        load_mmap ? RepFile::Mode::kMap : RepFile::Mode::kRead);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().message().c_str());
      return 1;
    }
    rep = WrapAnswerRep(std::move(loaded).value());
    std::fprintf(stderr, "%s structure from %s\n",
                 load_mmap ? "mapped" : "loaded", load_path.c_str());
  } else {
    // One build path for every mode: the planner scores all candidates for
    // --plan auto and just the requested family otherwise.
    Planner planner(&db, aux);
    PlannerOptions popt;
    popt.space_budget_exponent = space_budget;
    popt.churn_per_request = churn;
    popt.aggregate_fraction = agg_fraction;
    std::optional<RepKind> fixed = ParseRepKind(plan_name);
    if (plan_name != "auto") {
      if (!fixed.has_value()) {
        std::fprintf(stderr, "unknown --plan %s\n", plan_name.c_str());
        return 2;
      }
      popt.only_kind = fixed;
      // The updatable candidate is scored only for mutable workloads.
      if (*fixed == RepKind::kUpdatable && popt.churn_per_request <= 0)
        popt.churn_per_request = 0.5;
    }
    auto planned = planner.PlanView(view, popt);
    if (!planned.ok()) {
      std::fprintf(stderr, "plan: %s\n", planned.status().message().c_str());
      return 1;
    }
    Plan plan = std::move(planned).value();
    if (plan_name == "auto" || space_budget > 0)
      std::fprintf(stderr, "%s", plan.Explain().c_str());
    if (!plan.within_budget) {
      std::fprintf(stderr, "space budget infeasible\n");
      return 1;
    }
    if (fixed == RepKind::kCompressed && space_budget <= 0) {
      plan.spec.compressed.tau = tau;  // manual knob without a budget
      plan.spec.compressed.cover.reset();
    }
    if (fixed == RepKind::kUpdatable && space_budget <= 0 && tau != 1.0) {
      plan.spec.updatable.rep.tau = tau;  // same manual knob, snapshot side
      plan.spec.updatable.rep.cover.reset();
    }
    auto built = planner.BuildPlan(view, plan);
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.status().message().c_str());
      return 1;
    }
    rep = std::move(built).value();
  }

  if (!save_path.empty()) {
    auto* compressed = dynamic_cast<const CompressedAnswerRep*>(rep.get());
    if (compressed == nullptr) {
      std::fprintf(stderr, "--save requires a compressed structure\n");
      return 2;
    }
    Status s = SaveCompressedRep(compressed->underlying(), save_path);
    if (!s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved structure to %s\n", save_path.c_str());
  }
  if (mutate && !rep->capabilities().updatable) {
    // Reachable via --plan auto when a static candidate out-prices the
    // updatable one: refusing beats accepting a script whose mutations
    // all error while queries serve stale data.
    std::fprintf(stderr,
                 "--mutate needs an updatable structure but the plan chose "
                 "%s; raise --churn or use --plan updatable\n",
                 RepKindName(rep->kind()));
    return 2;
  }
  if (want_stats)
    std::fprintf(stderr, "%s build=%.3fs resident=%zuB\n",
                 rep->Describe().c_str(), rep->build_seconds(),
                 rep->ResidentBytes());

  std::fprintf(stderr, "ready: %d bound value(s) per request%s\n",
               view.num_bound(), mutate ? " (--mutate script mode)" : "");
  ParallelOptions popts;
  popts.num_threads = threads;
  popts.ordered = true;

  // Every request gets a fresh context: the deadline clock starts when the
  // request starts, not when the process did.
  auto make_ctx = [&]() -> std::optional<RequestContext> {
    if (deadline_ms <= 0) return std::nullopt;
    return RequestContext::WithTimeout(std::chrono::milliseconds(deadline_ms));
  };

  // One hardened entry point for every structure; --threads N > 1 drains
  // shard-parallel with an order-preserving merge where supported. Returns
  // false if the request errored (stream failed mid-drain, deadline, ...).
  auto serve = [&](const BoundValuation& vb) -> bool {
    const std::optional<RequestContext> ctx = make_ctx();
    const RequestContext* cp = ctx ? &*ctx : nullptr;
    auto stream = threads > 1 ? rep->ParallelAnswer(vb, popts, cp)
                              : rep->Answer(vb, cp);
    if (!stream.ok()) {
      std::fprintf(stderr, "%s\n", stream.status().message().c_str());
      return false;
    }
    TupleEnumerator& e = *stream.value();
    constexpr size_t kBatch = 512;
    TupleBuffer batch(view.num_free());
    size_t count = 0;
    for (;;) {
      batch.Clear();
      const size_t n = e.NextBatch(&batch, kBatch);
      count += n;
      for (size_t j = 0; j < n; ++j) {
        TupleSpan t = batch[j];
        for (size_t c = 0; c < t.size(); ++c)
          std::printf("%s%llu", c ? "," : "", (unsigned long long)t[c]);
        std::printf("\n");
      }
      if (n < kBatch) break;
    }
    // Exhaustion and failure look the same to NextBatch; StreamStatus says
    // which one it was.
    if (Status s = e.StreamStatus(); !s.ok()) {
      std::fprintf(stderr, "request failed after %zu tuple(s): %s\n", count,
                   s.message().c_str());
      return false;
    }
    std::fprintf(stderr, "(%zu tuples)\n", count);
    return true;
  };

  // Grouped ring aggregate over the first k free variables. Each group
  // prints as its key values, the count, and (for SUM/MIN/MAX) the folded
  // value, comma-separated.
  auto serve_agg = [&](const ScriptOp& op) -> bool {
    const std::optional<RequestContext> ctx = make_ctx();
    std::vector<int> group_vars;
    for (int i = 0; i < op.group_arity; ++i) group_vars.push_back(i);
    auto result = rep->AnswerAggregate(op.values, group_vars, op.agg,
                                       ctx ? &*ctx : nullptr);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().message().c_str());
      return false;
    }
    const AggregateResult& r = result.value();
    for (size_t g = 0; g < r.num_groups(); ++g) {
      for (int c = 0; c < r.group_arity; ++c)
        std::printf("%llu,",
                    (unsigned long long)r.keys[g * (size_t)r.group_arity + c]);
      std::printf("%llu", (unsigned long long)r.counts[g]);
      if (!r.values.empty())
        std::printf(",%llu", (unsigned long long)r.values[g]);
      std::printf("\n");
    }
    std::fprintf(stderr, "(%zu groups)\n", r.num_groups());
    return true;
  };

  // One strict parser for both modes (plan/script.h): a malformed line is
  // an error naming the offending token, never a silently wrong request.
  std::string line;
  size_t lineno = 0, errors = 0;
  while (std::getline(std::cin, line)) {
    ++lineno;
    auto parsed = ParseScriptLine(line, mutate);
    if (!parsed.ok()) {
      std::fprintf(stderr, "line %zu: %s\n", lineno,
                   parsed.status().message().c_str());
      ++errors;
      continue;
    }
    const ScriptOp& op = parsed.value();
    switch (op.kind) {
      case ScriptOp::Kind::kNoOp:
        break;
      case ScriptOp::Kind::kQuery:
        if (!serve(op.values)) ++errors;
        break;
      case ScriptOp::Kind::kAggregate:
        if (!serve_agg(op)) ++errors;
        break;
      case ScriptOp::Kind::kInsert:
      case ScriptOp::Kind::kDelete: {
        if (Status s = ValidateMutation(op, db); !s.ok()) {
          std::fprintf(stderr, "line %zu: %s\n", lineno, s.message().c_str());
          ++errors;
          break;
        }
        Status s = rep->ApplyDelta(
            {op.kind == ScriptOp::Kind::kInsert
                 ? UpdateOp::Insert(op.relation, Tuple(op.values))
                 : UpdateOp::Delete(op.relation, Tuple(op.values))});
        if (!s.ok()) {
          std::fprintf(stderr, "line %zu: %s\n", lineno, s.message().c_str());
          ++errors;
        }
        break;
      }
      case ScriptOp::Kind::kRebuild: {
        auto* up = dynamic_cast<UpdatableAnswerRep*>(rep.get());
        if (up == nullptr) {
          std::fprintf(stderr, "rebuild: structure is not updatable\n");
          ++errors;
          break;
        }
        if (Status s = up->Rebuild(); !s.ok()) {
          std::fprintf(stderr, "line %zu: %s\n", lineno, s.message().c_str());
          ++errors;
        }
        break;
      }
      case ScriptOp::Kind::kStats:
        std::fprintf(stderr, "%s\n", rep->Describe().c_str());
        break;
    }
  }
  if (errors > 0) {
    std::fprintf(stderr, "%zu line(s) failed\n", errors);
    return 1;
  }
  return 0;
}
