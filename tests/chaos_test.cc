// Chaos suite (docs/robustness.md): randomized failpoint sweeps under
// concurrent load, the deadline contract across every rep family, and the
// degraded-mode guarantee that fallback answers are byte-identical to the
// planned structure's. Every injected fault must surface as a Status on
// some request — never a crash, a hang, or a silently wrong answer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "core/enumerator.h"
#include "plan/answer_rep.h"
#include "plan/rep_cache.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/failpoint.h"
#include "util/request_context.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::ViewOracle;
using testing::SortedCopy;

constexpr char kTriangle[] = "Q^bfb(x,y,z) = R(x,y), R(y,z), R(z,x)";

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- deadline contract across families --------------------------------------

TEST_F(ChaosTest, ExpiredDeadlineFailsFastOnEveryFamily) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 6);
  auto parsed = ParseAdornedView(kTriangle);
  ASSERT_TRUE(parsed.ok());
  const AdornedView& view = parsed.value();
  // Tripartite ids (m=6): x=1 in A, z=13 in C — a non-empty answer set.
  const BoundValuation vb = {1, 13};

  constexpr RepKind kAllKinds[] = {RepKind::kCompressed, RepKind::kDecomposed,
                                   RepKind::kDirect, RepKind::kMaterialized};
  for (RepKind kind : kAllKinds) {
    SCOPED_TRACE(RepKindName(kind));
    RepBuildSpec spec;
    spec.kind = kind;
    spec.compressed.tau = 2.0;
    auto built = BuildAnswerRep(spec, view, db);
    ASSERT_TRUE(built.ok()) << built.status().message();
    const AnswerRep& rep = *built.value();

    // A request that arrives already expired does no enumeration work:
    // every entry point fails fast with the deadline code.
    RequestContext expired =
        RequestContext::WithDeadline(RequestContext::Clock::now());
    auto stream = rep.Answer(vb, &expired);
    ASSERT_FALSE(stream.ok());
    EXPECT_TRUE(stream.status().IsDeadlineExceeded());

    auto count = rep.Count(vb, &expired);
    ASSERT_FALSE(count.ok());
    EXPECT_TRUE(count.status().IsDeadlineExceeded());

    auto exists = rep.AnswerExists(vb, &expired);
    ASSERT_FALSE(exists.ok());
    EXPECT_TRUE(exists.status().IsDeadlineExceeded());

    auto agg = rep.AnswerAggregate(vb, {0}, AggSpec::Count(), &expired);
    ASSERT_FALSE(agg.ok());
    EXPECT_TRUE(agg.status().IsDeadlineExceeded());

    ParallelOptions popts;
    popts.num_threads = 2;
    auto par = rep.ParallelAnswer(vb, popts, &expired);
    ASSERT_FALSE(par.ok());
    EXPECT_TRUE(par.status().IsDeadlineExceeded());

    // Expiry mid-stream: the drain stops within one batch of the deadline
    // passing and the stream reports why. Cancel() stands in for the clock
    // so the test is deterministic.
    RequestContext live;
    auto open = rep.Answer(vb, &live);
    ASSERT_TRUE(open.ok());
    TupleEnumerator& e = *open.value();
    TupleBuffer batch(view.num_free());
    ASSERT_GT(e.NextBatch(&batch, 2), 0u);
    live.Cancel();
    batch.Clear();
    EXPECT_EQ(e.NextBatch(&batch, 2), 0u);
    EXPECT_TRUE(e.StreamStatus().IsCancelled());
  }
}

// --- degraded mode ----------------------------------------------------------

TEST_F(ChaosTest, DegradedAnswersAreByteIdenticalToThePlannedStructure) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 6);

  // Reference: the structure the planner actually wants, built cleanly.
  RepCache reference(&db);
  auto planned = reference.Get(kTriangle, 1.2);
  ASSERT_TRUE(planned.ok()) << planned.status().message();
  ASSERT_FALSE(planned.value()->degraded());

  // Same query, but the planned build fails once and the cache degrades.
  RepCache cache(&db);
  failpoint::Arm("build/any", {.probability = 1.0, .max_fires = 1});
  auto degraded = cache.Get(kTriangle, 1.2);
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  ASSERT_TRUE(degraded.value()->degraded());

  // Byte-identical: same tuples in the same order, for hits and misses.
  auto parsed = ParseAdornedView(kTriangle);
  ASSERT_TRUE(parsed.ok());
  for (const BoundValuation& vb :
       testing::InterestingBoundValuations(parsed.value(), db)) {
    auto a = degraded.value()->rep().Answer(vb);
    auto b = planned.value()->rep().Answer(vb);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(CollectAll(*a.value()), CollectAll(*b.value()));
  }
}

// --- randomized sweeps ------------------------------------------------------

/// Drains a request end to end. Returns OK only if the stream finished
/// clean AND matched the oracle; a fault comes back as its Status, a
/// wrong answer as kError. Thread-safe (no gtest assertions): the sweep
/// calls this from worker threads.
Status DrainAndCheck(const CachedRep& entry, const ViewOracle& oracle,
                     const BoundValuation& vb, bool parallel) {
  ParallelOptions popts;
  popts.num_threads = 2;
  Result<std::unique_ptr<TupleEnumerator>> stream =
      parallel ? entry.rep().ParallelAnswer(vb, popts)
               : entry.rep().Answer(vb);
  if (!stream.ok()) return stream.status();
  std::vector<Tuple> got = CollectAll(*stream.value());
  if (Status s = stream.value()->StreamStatus(); !s.ok()) return s;
  // The stream finished clean: injected faults elsewhere in the process
  // must not have corrupted it.
  if (SortedCopy(std::move(got)) != oracle.Answer(vb))
    return Status::Error("answer mismatch vs oracle");
  return Status::Ok();
}

TEST_F(ChaosTest, RandomFailpointSweepUnderConcurrentReads) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 5);
  auto parsed = ParseAdornedView(kTriangle);
  ASSERT_TRUE(parsed.ok());
  const ViewOracle oracle(parsed.value(), db);

  const char* kSites[] = {"build/any",       "build/compressed",
                          "build/decomposed", "build/direct",
                          "par/task", "parallel/produce"};

  for (uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    failpoint::DisarmAll();
    Rng rng(seed * 7919 + 13);
    // Arm a random pair of sites at partial probability: some requests
    // fail, some succeed, interleaved on the same structures.
    for (int i = 0; i < 2; ++i) {
      failpoint::Arm(kSites[rng.Uniform(std::size(kSites))],
                     {.probability = 0.3 + 0.4 * rng.NextDouble()});
    }

    RepCacheOptions options;
    options.max_build_attempts = 2;
    options.build_retry_backoff = std::chrono::milliseconds(1);
    options.negative_ttl = std::chrono::milliseconds(20);
    RepCache cache(&db, options);

    // No gtest assertions inside the workers (they are not thread-safe):
    // anomalies are counted and checked after the join.
    std::atomic<uint64_t> ok_ops{0}, failed_ops{0}, anomalies{0};
    auto worker = [&](uint64_t worker_seed) {
      Rng wrng(worker_seed);
      for (int op = 0; op < 20; ++op) {
        auto entry = cache.Get(kTriangle, 1.2);
        if (!entry.ok()) {
          // A fault must surface as a real error, not an empty success.
          if (entry.status().message().empty()) ++anomalies;
          ++failed_ops;
          // Negative-cache windows close on their own; let them.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        BoundValuation vb = {1 + wrng.Uniform(5), 11 + wrng.Uniform(5)};
        Status s =
            DrainAndCheck(*entry.value(), oracle, vb, wrng.Bernoulli(0.5));
        if (s.ok()) {
          ++ok_ops;
        } else if (s.IsUnavailable() || s.IsDeadlineExceeded() ||
                   s.IsCancelled()) {
          ++failed_ops;
        } else {
          ++anomalies;  // wrong answer, or a fault with the wrong code
        }
      }
    };
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t)
        threads.emplace_back(worker, seed * 100 + t + 1);
      for (auto& t : threads) t.join();
    }
    EXPECT_EQ(anomalies.load(), 0u);

    // Recovery: with the faults gone (and the negative window expired) the
    // same cache serves clean.
    failpoint::DisarmAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    auto entry = cache.Get(kTriangle, 1.2);
    ASSERT_TRUE(entry.ok()) << entry.status().message();
    EXPECT_TRUE(
        DrainAndCheck(*entry.value(), oracle, {1, 11}, false).ok());
  }
}

TEST_F(ChaosTest, MutationChaosNeverCorruptsServedAnswers) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  // Mirror of R maintained alongside the structure: an op lands in the
  // mirror iff the cache accepted it (ApplyDelta is all-or-nothing at the
  // injection boundary).
  std::set<Tuple> edges;
  {
    const Relation* r = db.Find("R");
    ASSERT_NE(r, nullptr);
    for (size_t row = 0; row < r->size(); ++row)
      edges.insert({r->At(row, 0), r->At(row, 1)});
  }

  RepCacheOptions options;
  options.planner.churn_per_request = 0.5;
  RepCache cache(&db, options);
  auto entry = cache.Get(kTriangle);
  ASSERT_TRUE(entry.ok()) << entry.status().message();
  ASSERT_TRUE(entry.value()->rep().capabilities().updatable);

  failpoint::Arm("rep_cache/apply_delta", {.probability = 0.3});
  failpoint::Arm("updatable/rebuild", {.probability = 0.3});

  Rng rng(99);
  uint64_t rejected = 0;
  for (int i = 0; i < 300; ++i) {
    UpdateOp op = [&] {
      if (!edges.empty() && rng.Bernoulli(0.4)) {
        auto it = edges.begin();
        std::advance(it, (long)rng.Uniform(edges.size()));
        return UpdateOp::Delete("R", Tuple(*it));
      }
      return UpdateOp::Insert(
          "R", {1 + rng.Uniform(12), 1 + rng.Uniform(12)});
    }();
    Status s = cache.ApplyDelta(entry.value()->key(), {op});
    if (!s.ok()) {
      EXPECT_TRUE(s.IsUnavailable()) << s.message();
      ++rejected;
      continue;  // all-or-nothing: the mirror must not move either
    }
    if (op.kind == UpdateOp::kInsert)
      edges.insert(op.tuple);
    else
      edges.erase(op.tuple);
  }
  EXPECT_GT(rejected, 0u);  // p=0.3 over 300 ops: the fault really fired
  cache.WaitForRebuilds();
  failpoint::DisarmAll();

  // Every served answer matches a from-scratch oracle over the mirror —
  // including if some background snapshot folds failed (the old snapshot
  // plus delta keeps serving) and after a final clean rebuild.
  Database mirror_db;
  AddRelation(mirror_db, "R", 2,
              std::vector<Tuple>(edges.begin(), edges.end()));
  auto parsed = ParseAdornedView(kTriangle);
  ASSERT_TRUE(parsed.ok());
  const ViewOracle oracle(parsed.value(), mirror_db);
  for (const BoundValuation& vb : oracle.InterestingBoundValuations()) {
    auto e = entry.value()->rep().Answer(vb);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(SortedCopy(CollectAll(*e.value())), oracle.Answer(vb));
  }
}

}  // namespace
}  // namespace cqc
