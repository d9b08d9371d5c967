// Fault-tolerance unit tests (docs/robustness.md): the failpoint
// framework, RequestContext deadline/cancellation, ThreadPool exception
// containment and start order, the par::RunTasks fork-join (re-run of
// injected or failed tasks, serial nesting), RepCache retry / negative
// cache / degraded fallback / single-flight failure fan-out, and the strict
// cqc_cli script grammar against a malformed-input corpus.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/enumerator.h"
#include "exec/par_util.h"
#include "exec/thread_pool.h"
#include "plan/answer_rep.h"
#include "plan/rep_cache.h"
#include "plan/script.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/failpoint.h"
#include "util/request_context.h"
#include "workload/generators.h"

namespace cqc {
namespace {

using testing::AddRelation;
using testing::OracleAnswer;
using testing::SortedCopy;

/// Every test arms its own sites and must leave nothing armed behind.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- failpoint framework ----------------------------------------------------

Status GuardedOp() {
  CQC_FAILPOINT("test/op");
  return Status::Ok();
}

TEST_F(RobustnessTest, FailpointDisarmedIsTransparent) {
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(failpoint::ShouldFail("test/op"));
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_EQ(failpoint::FireCount("test/op"), 0u);
}

TEST_F(RobustnessTest, FailpointFiresAsUnavailableNamingTheSite) {
  failpoint::Arm("test/op");
  EXPECT_TRUE(failpoint::AnyArmed());
  Status s = GuardedOp();
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_NE(s.message().find("test/op"), std::string::npos);
  EXPECT_EQ(failpoint::FireCount("test/op"), 1u);
  failpoint::Disarm("test/op");
  EXPECT_TRUE(GuardedOp().ok());
}

TEST_F(RobustnessTest, FailpointSkipLetsEarlyTriggersPass) {
  failpoint::Arm("test/op", {.probability = 1.0, .skip = 2});
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_FALSE(GuardedOp().ok());
  EXPECT_EQ(failpoint::FireCount("test/op"), 1u);
}

TEST_F(RobustnessTest, FailpointMaxFiresAutoDisarms) {
  failpoint::Arm("test/op", {.probability = 1.0, .skip = 0, .max_fires = 2});
  EXPECT_FALSE(GuardedOp().ok());
  EXPECT_FALSE(GuardedOp().ok());
  // Exhausted: the site auto-disarmed and the fast path is off again.
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_EQ(failpoint::FireCount("test/op"), 2u);
}

TEST_F(RobustnessTest, FailpointProbabilityExtremes) {
  failpoint::Arm("test/op", {.probability = 0.0});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(GuardedOp().ok());
  failpoint::Arm("test/op", {.probability = 1.0});  // re-arm resets counters
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(GuardedOp().ok());
}

TEST_F(RobustnessTest, FailpointArmSpecGrammar) {
  EXPECT_TRUE(failpoint::ArmSpec("a/b"));
  EXPECT_TRUE(failpoint::ArmSpec("a/c=0.5"));
  EXPECT_TRUE(failpoint::ArmSpec("a/d=1:2"));
  EXPECT_TRUE(failpoint::ArmSpec("a/e=0.25:3:7"));
  EXPECT_EQ(failpoint::ArmedSites().size(), 4u);

  EXPECT_FALSE(failpoint::ArmSpec(""));
  EXPECT_FALSE(failpoint::ArmSpec("="));
  EXPECT_FALSE(failpoint::ArmSpec("a/b=notaprob"));
  EXPECT_FALSE(failpoint::ArmSpec("a/b=2.0"));    // probability > 1
  EXPECT_FALSE(failpoint::ArmSpec("a/b=0.5:x"));  // junk skip
  EXPECT_FALSE(failpoint::ArmSpec("a/b=0.5:1:"));
  EXPECT_EQ(failpoint::ArmedSites().size(), 4u);  // nothing half-armed
}

TEST_F(RobustnessTest, FailpointArmFromEnv) {
  ::setenv("CQC_FAILPOINTS", "env/a;env/b=0.5:1:2", 1);
  EXPECT_EQ(failpoint::ArmFromEnv(), 2);
  EXPECT_TRUE(failpoint::ShouldFail("env/a"));
  ::unsetenv("CQC_FAILPOINTS");
  EXPECT_EQ(failpoint::ArmFromEnv(), 0);
}

TEST_F(RobustnessTest, FailpointMaybeThrow) {
  failpoint::MaybeThrow("test/throw");  // disarmed: no-op
  failpoint::Arm("test/throw");
  EXPECT_THROW(failpoint::MaybeThrow("test/throw"), std::runtime_error);
}

// --- RequestContext ---------------------------------------------------------

TEST(RequestContextTest, DefaultIsUnbounded) {
  RequestContext ctx;
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_FALSE(ctx.expired());
  EXPECT_TRUE(RequestContext::Check(nullptr).ok());
}

TEST(RequestContextTest, ExpiredDeadlineReportsDeadlineExceeded) {
  RequestContext ctx =
      RequestContext::WithDeadline(RequestContext::Clock::now());
  EXPECT_TRUE(ctx.expired());
  Status s = ctx.Check();
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_FALSE(s.IsCancelled());
}

TEST(RequestContextTest, FutureDeadlineIsOkUntilItPasses) {
  RequestContext ctx = RequestContext::WithTimeout(std::chrono::hours(1));
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(RequestContextTest, CancellationWinsTies) {
  RequestContext ctx =
      RequestContext::WithDeadline(RequestContext::Clock::now());
  ctx.Cancel();
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

// --- ThreadPool containment and order ---------------------------------------

TEST_F(RobustnessTest, ThrowingTaskNeverKillsTheProcess) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.WaitIdle();
  // The backstop recorded the leak and the worker survived.
  EXPECT_EQ(pool.uncaught_task_exceptions(), 1u);
  EXPECT_NE(pool.first_uncaught_message().find("boom"), std::string::npos);
  std::atomic<int> ran{0};
  pool.Submit([&] { ++ran; });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);
}

// Each task waits until the previously submitted task has finished (task 0
// waits for a gate opened after every submit). That completes on two
// workers only if tasks start in submission order; a pool that started a
// later task first would park both workers on tasks whose predecessor is
// still queued.
TEST_F(RobustnessTest, ThreadPoolStartsTasksInSubmissionOrder) {
  constexpr int kTasks = 16;
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool gate = false;
  int finished = 0;
  bool timed_out = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&, i] {
      std::unique_lock<std::mutex> lk(mu);
      if (!cv.wait_until(lk, deadline,
                         [&] { return gate && finished == i; })) {
        timed_out = true;
        return;
      }
      ++finished;
      cv.notify_all();
    });
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    gate = true;
  }
  cv.notify_all();
  pool.WaitIdle();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(finished, kTasks);
}

// --- par::RunTasks fork-join -------------------------------------------------

/// RunTasks tests force a parallel fan-out whatever the host's core count.
class RunTasksTest : public RobustnessTest {
 protected:
  void SetUp() override {
    RobustnessTest::SetUp();
    par::SetBuildThreads(4);
  }
  void TearDown() override {
    par::SetBuildThreads(0);
    RobustnessTest::TearDown();
  }
};

TEST_F(RunTasksTest, EveryTaskRunsExactlyOnce) {
  constexpr size_t kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < kTasks; ++i) tasks.push_back([&, i] { ++runs[i]; });
  par::RunTasks(std::move(tasks));
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST_F(RunTasksTest, InjectedTaskIsRerunAndFillsItsSlot) {
  constexpr size_t kTasks = 8;
  failpoint::Arm("par/task", {.probability = 1.0, .max_fires = 1});
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<size_t> slots(kTasks, 0);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < kTasks; ++i)
    tasks.push_back([&, i] {
      ++runs[i];
      slots[i] = i + 1;
    });
  par::RunTasks(std::move(tasks));
  EXPECT_EQ(failpoint::FireCount("par/task"), 1u);
  // The injected task never started the first time, so each task ran
  // exactly once in total.
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(slots[i], i + 1) << i;
    EXPECT_EQ(runs[i].load(), 1) << i;
  }
}

TEST_F(RunTasksTest, ThrowingTaskIsRerunOnTheCaller) {
  constexpr size_t kTasks = 8;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> attempts{0};
  std::thread::id rerun_on;
  std::vector<size_t> slots(kTasks, 0);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < kTasks; ++i)
    tasks.push_back([&, i] {
      if (i == 3 && attempts.fetch_add(1) == 0)
        throw std::runtime_error("transient");
      if (i == 3) rerun_on = std::this_thread::get_id();
      slots[i] = i + 1;
    });
  par::RunTasks(std::move(tasks));
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(rerun_on, caller);
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(slots[i], i + 1) << i;

  // A task that fails its re-run too propagates to the caller, after every
  // other task has run.
  std::atomic<int> ran{0};
  tasks.clear();
  for (size_t i = 0; i < kTasks; ++i)
    tasks.push_back([&, i] {
      if (i == 5) throw std::runtime_error("persistent");
      ++ran;
    });
  EXPECT_THROW(par::RunTasks(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), (int)kTasks - 1);
}

TEST_F(RunTasksTest, NestedFanOutRunsSerially) {
  // Inside a RunTasks task: the inner list runs on the task's own thread.
  // (Counted in atomics, asserted after the join.)
  std::vector<std::atomic<int>> mismatches(4);
  std::atomic<int> not_serial{0};
  std::vector<std::function<void()>> outer;
  for (size_t i = 0; i < 4; ++i)
    outer.push_back([&, i] {
      if (!par::SerialOnly()) ++not_serial;
      const std::thread::id self = std::this_thread::get_id();
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j)
        inner.push_back([&, self, i] {
          if (std::this_thread::get_id() != self) ++mismatches[i];
        });
      par::RunTasks(std::move(inner));
    });
  EXPECT_FALSE(par::SerialOnly());
  par::RunTasks(std::move(outer));
  EXPECT_EQ(not_serial.load(), 0);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(mismatches[i].load(), 0) << i;

  // Inside a ThreadPool worker: the list runs on the worker.
  ThreadPool pool(1);
  std::atomic<int> pool_mismatches{0};
  std::atomic<int> pool_runs{0};
  pool.Submit([&] {
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::function<void()>> tasks;
    for (int j = 0; j < 4; ++j)
      tasks.push_back([&, self] {
        ++pool_runs;
        if (std::this_thread::get_id() != self) ++pool_mismatches;
      });
    par::RunTasks(std::move(tasks));
  });
  pool.WaitIdle();
  EXPECT_EQ(pool_runs.load(), 4);
  EXPECT_EQ(pool_mismatches.load(), 0);
}

// --- deadline-checked streaming ---------------------------------------------

std::unique_ptr<AnswerRep> BuildDirectTriangle(const Database& db,
                                               const AdornedView& view) {
  RepBuildSpec spec;
  spec.kind = RepKind::kDirect;
  auto rep = BuildAnswerRep(spec, view, db);
  CQC_CHECK(rep.ok()) << rep.status().message();
  return std::move(rep).value();
}

TEST(DeadlineEnumeratorTest, CancellationStopsWithinOneBatch) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 6);
  auto parsed = ParseAdornedView("Q^bfb(x,y,z) = R(x,y), R(y,z), R(z,x)");
  ASSERT_TRUE(parsed.ok());
  auto rep = BuildDirectTriangle(db, parsed.value());

  // Tripartite ids (m=6): A=[1,6], B=[7,12], C=[13,18]; binding x=1, z=13
  // leaves all six y in B, so the stream has more than one 2-tuple batch.
  RequestContext ctx;
  auto stream = rep->Answer({1, 13}, &ctx);
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  TupleEnumerator& e = *stream.value();
  TupleBuffer batch(parsed.value().num_free());
  ASSERT_GT(e.NextBatch(&batch, 2), 0u);
  EXPECT_TRUE(e.StreamStatus().ok());

  ctx.Cancel();
  batch.Clear();
  EXPECT_EQ(e.NextBatch(&batch, 2), 0u);
  EXPECT_TRUE(e.StreamStatus().IsCancelled());
  Tuple t;
  EXPECT_FALSE(e.Next(&t));
}

TEST(DeadlineEnumeratorTest, NullContextIsPassThrough) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", 4);
  auto parsed = ParseAdornedView("Q^bfb(x,y,z) = R(x,y), R(y,z), R(z,x)");
  ASSERT_TRUE(parsed.ok());
  auto rep = BuildDirectTriangle(db, parsed.value());
  auto with_null = rep->Answer({1, 9}, nullptr);
  auto without = rep->Answer({1, 9});
  ASSERT_TRUE(with_null.ok() && without.ok());
  EXPECT_EQ(CollectAll(*with_null.value()), CollectAll(*without.value()));
}

// --- RepCache resilience ----------------------------------------------------

Database MakeTriangleDb(uint64_t m = 6) {
  Database db;
  MakeTripartiteTriangleGraph(db, "R", m);
  return db;
}

constexpr char kTriangle[] = "Q^bfb(x,y,z) = R(x,y), R(y,z), R(z,x)";

TEST_F(RobustnessTest, GetWithExpiredContextFailsFastAndIsNotCached) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.negative_ttl = std::chrono::milliseconds(10000);
  RepCache cache(&db, options);
  RequestContext expired =
      RequestContext::WithDeadline(RequestContext::Clock::now());
  auto r = cache.Get(kTriangle, 1.2, &expired);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded());
  // The caller's deadline is not the key's fault: no negative entry, and
  // an unbounded request right after succeeds.
  auto ok = cache.Get(kTriangle, 1.2);
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(cache.stats().negative_hits, 0u);
}

TEST_F(RobustnessTest, RetriesTransientBuildFaultsWithBackoff) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.max_build_attempts = 3;
  options.build_retry_backoff = std::chrono::milliseconds(1);
  RepCache cache(&db, options);
  // The first two attempts hit the fault; the third builds clean.
  failpoint::Arm("build/any", {.probability = 1.0, .max_fires = 2});
  auto r = cache.Get(kTriangle, 1.2);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_FALSE(r.value()->degraded());
  RepCacheStats stats = cache.stats();
  EXPECT_EQ(stats.build_retries, 2u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.build_failures, 0u);
  EXPECT_EQ(stats.degraded_serves, 0u);
}

TEST_F(RobustnessTest, InputErrorsAreNotRetried) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.max_build_attempts = 5;
  options.build_retry_backoff = std::chrono::milliseconds(0);
  RepCache cache(&db, options);
  auto r = cache.Get("Q^bf(x,y) = NOPE(x,y)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(cache.stats().build_retries, 0u);  // kError: retry is pointless
}

TEST_F(RobustnessTest, DegradedFallbackServesCorrectAnswers) {
  Database db = MakeTriangleDb();
  RepCache cache(&db);  // degrade_on_failure defaults on
  // The planned build fails once; the fallback (DirectEval) build runs
  // after the site exhausted and succeeds.
  failpoint::Arm("build/any", {.probability = 1.0, .max_fires = 1});
  auto r = cache.Get(kTriangle, 1.2);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value()->degraded());
  EXPECT_GE(cache.stats().degraded_serves, 1u);
  // The plan records why.
  EXPECT_NE(r.value()->plan().Explain().find("degraded fallback"),
            std::string::npos);

  // Degraded answers are byte-identical to the oracle.
  auto parsed = ParseAdornedView(kTriangle);
  ASSERT_TRUE(parsed.ok());
  for (Value x : {Value{0}, Value{1}, Value{2}}) {
    auto e = r.value()->rep().Answer({x, (x + 6) % 12});
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(SortedCopy(CollectAll(*e.value())),
              OracleAnswer(parsed.value(), db, {x, (x + 6) % 12}));
  }
  // Hits on a degraded entry keep counting.
  uint64_t before = cache.stats().degraded_serves;
  ASSERT_TRUE(cache.Get(kTriangle, 1.2).ok());
  EXPECT_EQ(cache.stats().degraded_serves, before + 1);
}

TEST_F(RobustnessTest, ConcurrentWaitersShareOneFailureAndNegativeTtlHeals) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.degrade_on_failure = false;  // surface the fault, don't mask it
  options.negative_ttl = std::chrono::milliseconds(100);
  RepCache cache(&db, options);
  // Unlimited fires: however many threads win the builder race while the
  // window is open, every build fails the same way.
  failpoint::Arm("build/any", {.probability = 1.0});

  constexpr int kThreads = 8;
  std::vector<Status> results(kThreads, Status::Ok());
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        auto r = cache.Get(kTriangle, 1.2);
        results[i] = r.ok() ? Status::Ok() : r.status();
      });
    for (auto& t : threads) t.join();
  }
  // Everyone saw the same injected fault, whether they were the builder, a
  // coalesced waiter, or a negative-cache hit.
  for (const Status& s : results) {
    EXPECT_TRUE(s.IsUnavailable()) << s.message();
    EXPECT_NE(s.message().find("build/any"), std::string::npos);
  }
  RepCacheStats stats = cache.stats();
  // Single-flight + negative cache: at most a couple of builds actually
  // ran; definitely not one per thread.
  EXPECT_GE(stats.build_failures, 1u);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.coalesced + stats.negative_hits + stats.misses,
            (uint64_t)kThreads);

  // Within the TTL the key fails fast without re-entering the build path.
  uint64_t failures_before = cache.stats().build_failures;
  auto fast = cache.Get(kTriangle, 1.2);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(cache.stats().build_failures, failures_before);
  EXPECT_GE(cache.stats().negative_hits, 1u);

  // After the TTL (and with the fault gone) the key builds fine.
  failpoint::DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto healed = cache.Get(kTriangle, 1.2);
  ASSERT_TRUE(healed.ok()) << healed.status().message();
  EXPECT_EQ(cache.stats().builds, 1u);
}

TEST_F(RobustnessTest, ApplyDeltaFailpointLeavesEntriesUntouched) {
  Database db = MakeTriangleDb();
  RepCacheOptions options;
  options.planner.churn_per_request = 0.5;
  RepCache cache(&db, options);
  auto entry = cache.Get(kTriangle);
  ASSERT_TRUE(entry.ok());
  failpoint::Arm("rep_cache/apply_delta", {.probability = 1.0,
                                           .max_fires = 1});
  Status s = cache.ApplyDelta(entry.value()->key(),
                              {UpdateOp::Insert("R", {1, 7})});
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(cache.stats().deltas_applied, 0u);
  // Retrying after the fault clears succeeds.
  EXPECT_TRUE(cache
                  .ApplyDelta(entry.value()->key(),
                              {UpdateOp::Insert("R", {1, 7})})
                  .ok());
}

// --- script grammar ---------------------------------------------------------

TEST(ScriptParseTest, ValueTokensAreStrict) {
  Value v = 0;
  EXPECT_TRUE(ParseValueToken("0", &v).ok());
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseValueToken("18446744073709551615", &v).ok());
  EXPECT_EQ(v, UINT64_MAX);
  for (const char* bad :
       {"", "-1", "+1", "1x", "x1", "0x10", "1.5", "18446744073709551616",
        "99999999999999999999", " 1", "1 "}) {
    EXPECT_FALSE(ParseValueToken(bad, &v).ok()) << "'" << bad << "'";
  }
}

TEST(ScriptParseTest, WellFormedMutateLines) {
  auto op = ParseScriptLine("+ R 1 2", true);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().kind, ScriptOp::Kind::kInsert);
  EXPECT_EQ(op.value().relation, "R");
  EXPECT_EQ(op.value().values, Tuple({1, 2}));

  op = ParseScriptLine("- R 3 4", true);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().kind, ScriptOp::Kind::kDelete);

  op = ParseScriptLine("? 1 2", true);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().kind, ScriptOp::Kind::kQuery);
  EXPECT_EQ(op.value().values, Tuple({1, 2}));

  op = ParseScriptLine("agg count 1 5", true);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().kind, ScriptOp::Kind::kAggregate);
  EXPECT_EQ(op.value().agg.func, AggFunc::kCount);
  EXPECT_EQ(op.value().group_arity, 1);
  EXPECT_EQ(op.value().values, Tuple({5}));

  op = ParseScriptLine("agg sum 2 1", true);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().agg.func, AggFunc::kSum);
  EXPECT_EQ(op.value().agg.value_var, 2);

  EXPECT_EQ(ParseScriptLine("rebuild", true).value().kind,
            ScriptOp::Kind::kRebuild);
  EXPECT_EQ(ParseScriptLine("stats", true).value().kind,
            ScriptOp::Kind::kStats);
  EXPECT_EQ(ParseScriptLine("", true).value().kind, ScriptOp::Kind::kNoOp);
  EXPECT_EQ(ParseScriptLine("  # comment", true).value().kind,
            ScriptOp::Kind::kNoOp);
  EXPECT_EQ(ParseScriptLine("+ R 1 2 # trailing comment", true)
                .value()
                .values,
            Tuple({1, 2}));
}

TEST(ScriptParseTest, MalformedMutateCorpusNeverParses) {
  // Each of these used to be silently misread by `istream >> uint64_t`
  // (wrapped negatives, mid-line truncation) or crash-adjacent; all must
  // come back as errors now — addressed to a byte of the line: the first
  // byte of the offending token, or one past the end for missing trailing
  // arguments (the offsets the wire protocol maps to stream offsets).
  const struct {
    const char* line;
    size_t offset;
  } corpus[] = {
      {"+", 1},                    // missing relation: points past the end
      {"+ R", 3},                  // missing values
      {"- R", 3},                  // missing values
      {"+ R -1 5", 4},             // negative wraps to UINT64_MAX
      {"- R 1 2x", 6},             // junk suffix truncated the old parse
      {"+ R 1 two", 6},            // non-numeric value
      {"+ R 1 18446744073709551616", 6},  // overflow
      {"? x", 2},                  // non-numeric bound value
      {"? 1 -2", 4},               // negative bound value
      {"agg", 3},                  // missing function
      {"agg avg 1 1", 4},          // unknown function
      {"agg count", 9},            // missing group arity
      {"agg count x", 10},         // junk group arity
      {"agg sum 1", 9},            // missing group arity after var
      {"agg sum x 1", 8},          // junk var index
      {"agg count 1 2y", 12},      // junk bound value
      {"rebuild now", 8},          // trailing garbage
      {"stats please", 6},         // trailing garbage
      {"insert R 1 2", 0},         // unknown verb
      {"++ R 1 2", 0},             // unknown verb
  };
  for (const auto& c : corpus) {
    size_t offset = kScriptNoOffset;
    EXPECT_FALSE(ParseScriptLine(c.line, true, &offset).ok())
        << "'" << c.line << "'";
    EXPECT_EQ(offset, c.offset) << "'" << c.line << "'";
  }
  // A successful parse must leave the offset at the sentinel.
  size_t offset = 12345;
  EXPECT_TRUE(ParseScriptLine("+ R 1 2", true, &offset).ok());
  EXPECT_EQ(offset, kScriptNoOffset);
}

TEST(ScriptParseTest, NonMutateModeOnlyAcceptsRequestsAndAggregates) {
  auto op = ParseScriptLine("1 2", false);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value().kind, ScriptOp::Kind::kQuery);
  EXPECT_EQ(op.value().values, Tuple({1, 2}));
  EXPECT_TRUE(ParseScriptLine("agg count 1", false).ok());
  // Script verbs are value tokens here — and invalid ones, addressed to
  // the verb's byte.
  size_t offset = kScriptNoOffset;
  EXPECT_FALSE(ParseScriptLine("+ R 1 2", false, &offset).ok());
  EXPECT_EQ(offset, 0u);
  EXPECT_FALSE(ParseScriptLine("rebuild", false, &offset).ok());
  EXPECT_EQ(offset, 0u);
  EXPECT_FALSE(ParseScriptLine("1 -2", false, &offset).ok());
  EXPECT_EQ(offset, 2u);
}

TEST(ScriptParseTest, ValidateMutationChecksSchema) {
  Database db;
  AddRelation(db, "R", 2, {{1, 2}});
  auto ok = ParseScriptLine("+ R 3 4", true);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ValidateMutation(ok.value(), db).ok());

  auto wrong_arity = ParseScriptLine("+ R 1 2 3", true);
  ASSERT_TRUE(wrong_arity.ok());
  Status s = ValidateMutation(wrong_arity.value(), db);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("arity"), std::string::npos);

  auto unknown = ParseScriptLine("+ NOPE 1 2", true);
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(ValidateMutation(unknown.value(), db).ok());
}

}  // namespace
}  // namespace cqc
