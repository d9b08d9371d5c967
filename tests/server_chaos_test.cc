// Serving-layer chaos: N concurrent wire clients hammer a CqcServer while
// failpoints fire inside builds, delta application, and snapshot folds,
// and some requests carry already-hopeless deadlines. The contract under
// fault injection is the serving contract of docs/robustness.md lifted to
// the wire: requests may FAIL (with a clean, coded status), but an OK
// response always carries exactly the oracle's rows, sessions never leak,
// and the server never crashes or hangs.
//
// Also home to the read-coalescing assertions (docs/serving.md): K
// concurrent identical queries trigger exactly one shared drain, and
// every waiter receives byte-identical rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "plan/rep_cache.h"
#include "plan/script.h"
#include "serve/client.h"
#include "serve/coalescer.h"
#include "serve/server.h"
#include "tests/test_util.h"
#include "util/failpoint.h"

namespace cqc {
namespace serve {
namespace {

using ::cqc::testing::AddRelation;

constexpr char kView[] = "Q^bff(x,y,z) = R1(x,y), R2(y,z)";

/// R1 = [1..4] x [1..4]; R2 = [1..4] x [1..3]. Every query "? k" for
/// k in 1..4 answers the same 12 (y, z) pairs; chaos mutations touch only
/// the disjoint id range >= 100 and cannot perturb that oracle.
Database MakeChaosDb() {
  Database db;
  std::vector<Tuple> r1, r2;
  for (Value x = 1; x <= 4; ++x)
    for (Value y = 1; y <= 4; ++y) r1.push_back({x, y});
  for (Value y = 1; y <= 4; ++y)
    for (Value z = 1; z <= 3; ++z) r2.push_back({y, z});
  AddRelation(db, "R1", 2, r1);
  AddRelation(db, "R2", 2, r2);
  return db;
}

/// The (y, z) rows every in-range query must answer, as a sorted multiset
/// (order-independent: shards and degraded fallbacks may enumerate in a
/// different — still correct — order).
std::vector<uint64_t> OracleRowsSorted() {
  std::vector<std::pair<uint64_t, uint64_t>> rows;
  for (uint64_t y = 1; y <= 4; ++y)
    for (uint64_t z = 1; z <= 3; ++z) rows.push_back({y, z});
  std::sort(rows.begin(), rows.end());
  std::vector<uint64_t> flat;
  for (const auto& [y, z] : rows) {
    flat.push_back(y);
    flat.push_back(z);
  }
  return flat;
}

std::vector<uint64_t> SortedRows(const WireResponse& resp) {
  std::vector<std::pair<uint64_t, uint64_t>> rows;
  for (size_t i = 0; i + 1 < resp.values.size(); i += 2)
    rows.push_back({resp.values[i], resp.values[i + 1]});
  std::sort(rows.begin(), rows.end());
  std::vector<uint64_t> flat;
  for (const auto& [y, z] : rows) {
    flat.push_back(y);
    flat.push_back(z);
  }
  return flat;
}

class ServerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(0));
  }
  void TearDown() override {
    failpoint::DisarmAll();
    ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(0));
  }

  void StartServer(ServerOptions opts = {}, Database db = MakeChaosDb()) {
    db_ = std::move(db);
    opts.port = 0;
    // Churn > 0 steers the planner to the updatable structure, which is
    // what gives wire mutations somewhere to land (docs/serving.md).
    opts.cache.planner.churn_per_request = 0.5;
    server_ = std::make_unique<CqcServer>(&db_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// The zero-leak postcondition every soak must satisfy.
  void ExpectCleanShutdown() {
    server_->Stop();
    const ServerStats st = server_->stats();
    EXPECT_EQ(st.active_sessions, 0u) << "leaked sessions";
    EXPECT_EQ(st.open_fds, 0u) << "leaked fds";
    EXPECT_EQ(st.sessions_opened, st.sessions_closed);
    EXPECT_EQ(st.inflight_requests, 0u) << "leaked request slots";
  }

  Database db_;
  std::unique_ptr<CqcServer> server_;
};

// ---------------------------------------------------------------------------
// Read-path coalescing.
// ---------------------------------------------------------------------------

TEST_F(ServerChaosTest, ConcurrentIdenticalQueriesShareExactlyOneDrain) {
  ServerOptions opts;
  opts.worker_threads = 4;
  StartServer(opts);

  // Warm the cache so the measured phase is pure read path: the first
  // query pays the build; its drain is counted, then snapshotted away.
  Client warm;
  ASSERT_TRUE(warm.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req;
  req.view = kView;
  req.body = "? 2";
  req.deadline_ms = 30'000;
  req.request_id = 1;
  WireResponse resp;
  ASSERT_TRUE(warm.Call(req, &resp).ok());
  ASSERT_EQ(resp.code, StatusCode::kOk);
  warm.Close();
  const ServerStats before = server_->stats();

  // All K clients connect first, THEN the drain hold opens a wide window:
  // the first request to arrive leads and sleeps before draining, so the
  // other K-1 — sent within the window — MUST attach to its drain.
  constexpr size_t kClients = 8;
  std::vector<Client> clients(kClients);
  for (auto& c : clients)
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(1000));

  std::atomic<size_t> ready{0};
  std::vector<WireResponse> responses(kClients);
  std::vector<Status> statuses(kClients, Status::Ok());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      WireRequest r;
      r.view = kView;
      r.body = "? 2";  // identical body -> one coalescing key
      r.deadline_ms = 30'000;
      r.request_id = 100 + i;
      statuses[i] = clients[i].Call(r, &responses[i]);
    });
  }
  for (auto& t : threads) t.join();
  ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(0));

  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].message();
    ASSERT_EQ(responses[i].code, StatusCode::kOk) << responses[i].message;
    EXPECT_EQ(responses[i].request_id, 100 + i);
    // Byte-identical answers: same arity, same values, same ORDER — the
    // shared drain is one enumeration, not K merged ones.
    EXPECT_EQ(responses[i].arity, responses[0].arity);
    EXPECT_EQ(responses[i].values, responses[0].values);
  }
  EXPECT_EQ(SortedRows(responses[0]), OracleRowsSorted());

  const ServerStats after = server_->stats();
  EXPECT_EQ(after.shared_drains - before.shared_drains, 1u)
      << "K concurrent identical queries must trigger exactly one drain";
  EXPECT_EQ(after.coalesced_reads - before.coalesced_reads, kClients - 1);
  for (auto& c : clients) c.Close();
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, NoCoalesceFlagForcesPrivateDrains) {
  ServerOptions opts;
  opts.worker_threads = 4;
  StartServer(opts);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req;
  req.view = kView;
  req.body = "? 1";
  req.deadline_ms = 30'000;
  req.flags = kFlagNoCoalesce;
  WireResponse resp;
  for (uint64_t id = 1; id <= 3; ++id) {
    req.request_id = id;
    ASSERT_TRUE(client.Call(req, &resp).ok());
    ASSERT_EQ(resp.code, StatusCode::kOk);
    EXPECT_EQ(SortedRows(resp), OracleRowsSorted());
  }
  const ServerStats st = server_->stats();
  EXPECT_EQ(st.shared_drains, 0u);
  EXPECT_EQ(st.coalesced_reads, 0u);
  client.Close();
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, AdmissionCapCountsParkedWaiters) {
  // A parked waiter holds its tenant admission slot until the shared
  // drain completes, so per_tenant_inflight bounds coalesced reads too.
  ServerOptions opts;
  opts.worker_threads = 4;
  opts.per_tenant_inflight = 2;
  StartServer(opts);
  Client warm;
  ASSERT_TRUE(warm.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req;
  req.view = kView;
  req.body = "? 3";
  req.deadline_ms = 30'000;
  req.request_id = 1;
  WireResponse resp;
  ASSERT_TRUE(warm.Call(req, &resp).ok());
  warm.Close();

  constexpr size_t kClients = 3;
  std::vector<Client> clients(kClients);
  for (auto& c : clients)
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(1000));
  std::atomic<size_t> ready{0};
  std::vector<WireResponse> responses(kClients);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      WireRequest r;
      r.view = kView;
      r.body = "? 3";
      r.deadline_ms = 30'000;
      r.request_id = 10 + i;
      (void)clients[i].Call(r, &responses[i]);
    });
  }
  for (auto& t : threads) t.join();
  ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(0));

  size_t ok = 0, rejected = 0;
  for (const auto& r : responses) {
    if (r.code == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.code, StatusCode::kUnavailable) << r.message;
      EXPECT_NE(r.message.find("admission"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(rejected, 1u);
  EXPECT_GE(server_->stats().admission_rejected, 1u);
  for (auto& c : clients) c.Close();
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, ReadAfterAcknowledgedWriteNeverJoinsAnOlderDrain) {
  // docs/serving.md#mutations: a write is visible to the tenant's
  // subsequent queries. Conn A's read leads a drain and holds just after
  // Answer() (its snapshot point); conn B then writes a row that changes
  // A's answer, gets OK, and issues the SAME read. Updatable entries
  // absorb writes in place, so B's read must not attach to A's pre-write
  // drain: it has to see its own row.
  ServerOptions opts;
  opts.worker_threads = 4;
  StartServer(opts);
  WireRequest req;
  req.view = kView;
  req.body = "? 1";
  req.deadline_ms = 30'000;
  req.request_id = 1;
  WireResponse resp;
  Client a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(a.Call(req, &resp).ok());  // warm: build outside the hold
  ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
  ASSERT_EQ(resp.num_rows(), 12u);

  ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(1500));
  const uint64_t frames_before = server_->stats().frames_received;
  WireResponse resp_a;
  Status status_a = Status::Ok();
  std::thread reader_a([&] {
    WireRequest r = req;
    r.request_id = 2;
    status_a = a.Call(r, &resp_a);
  });
  // A's frame is in; give its worker time to reach the hold.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().frames_received == frames_before &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  WireRequest w = req;
  w.request_id = 3;
  w.body = "+ R2 1 50";  // adds the row (1, 50) to "? 1"
  WireResponse write_resp;
  const Status write_status = b.Call(w, &write_resp);
  WireRequest r = req;
  r.request_id = 4;
  const Status read_status = b.Call(r, &resp);
  reader_a.join();
  ReadCoalescer::SetDrainHoldForTest(std::chrono::milliseconds(0));

  ASSERT_TRUE(write_status.ok()) << write_status.message();
  ASSERT_EQ(write_resp.code, StatusCode::kOk) << write_resp.message;
  ASSERT_TRUE(read_status.ok()) << read_status.message();
  ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
  EXPECT_EQ(resp.num_rows(), 13u) << "B's read was served pre-write rows";
  bool saw_write = false;
  for (size_t i = 0; i + 1 < resp.values.size(); i += 2)
    saw_write |= resp.values[i] == 1 && resp.values[i + 1] == 50;
  EXPECT_TRUE(saw_write);
  // A's read raced the write; either snapshot is a correct answer.
  ASSERT_TRUE(status_a.ok()) << status_a.message();
  EXPECT_EQ(resp_a.code, StatusCode::kOk) << resp_a.message;
  a.Close();
  b.Close();
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, OverCapAnswerFailsCleanlyAndKeepsTheConnection) {
  // "? 1" is the product of 60 y, 60 z and 60 w partners of x = 1:
  // 216,000 rows of arity 3, a 5.2 MB values section — past the 4 MiB
  // payload cap every client's FrameReader enforces. The server must
  // refuse it with a coded error, not send a frame its own client
  // rejects, and keep the connection; "? 2" answers one row.
  constexpr char kStar[] = "Q^bfff(x,y,z,w) = R1(x,y), R2(x,z), R3(x,w)";
  Database db;
  for (const char* name : {"R1", "R2", "R3"}) {
    std::vector<Tuple> r;
    for (Value v = 1; v <= 60; ++v) r.push_back({1, v});
    r.push_back({2, 1000});
    AddRelation(db, name, 2, r);
  }
  ServerOptions opts;
  opts.worker_threads = 2;
  StartServer(opts, std::move(db));

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(),
                             std::chrono::milliseconds(60'000))
                  .ok());
  WireRequest req;
  req.view = kStar;
  req.deadline_ms = 60'000;
  WireResponse resp;
  uint64_t id = 0;
  auto expect_cap_error = [&](const std::string& body, uint8_t flags) {
    req.flags = flags;
    req.request_id = ++id;
    req.body = body;
    ASSERT_TRUE(client.Call(req, &resp).ok())
        << body << ": the over-cap answer killed the connection";
    EXPECT_EQ(resp.code, StatusCode::kError) << body;
    EXPECT_NE(resp.message.find("frame cap"), std::string::npos)
        << resp.message;
    EXPECT_EQ(resp.num_rows(), 0u);
  };
  auto expect_small = [&](const std::string& body,
                          const std::vector<uint64_t>& want) {
    req.flags = 0;
    req.request_id = ++id;
    req.body = body;
    ASSERT_TRUE(client.Call(req, &resp).ok()) << body;
    ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
    EXPECT_EQ(resp.values, want) << body;
  };
  expect_cap_error("? 1", 0);
  expect_small("? 2", {1000, 1000, 1000});
  expect_cap_error("? 1", kFlagNoCoalesce);
  expect_small("? 2", {1000, 1000, 1000});
  // Grouped aggregates answer through the same frames: 216,000
  // (y, z, w, count) groups pass the cap too.
  expect_cap_error("agg count 3 1", 0);
  expect_small("agg count 1 2", {1000, 1});
  client.Close();
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, BooleanViewAnswersOneRowOfOneOrNone) {
  // num_free() == 0: a satisfied request enumerates the empty tuple once,
  // which the wire carries as one row [1] at arity 1; an unsatisfied one
  // answers no rows. Both read paths must agree.
  ServerOptions opts;
  opts.worker_threads = 2;
  StartServer(opts);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req;
  req.view = "Q^bb(x,y) = R1(x,y)";
  req.deadline_ms = 30'000;
  WireResponse resp;
  for (uint8_t flags : {uint8_t{0}, kFlagNoCoalesce}) {
    req.flags = flags;
    req.request_id = 1;
    req.body = "? 2 3";  // R1 holds (2, 3)
    ASSERT_TRUE(client.Call(req, &resp).ok());
    ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
    EXPECT_EQ(resp.arity, 1u) << (int)flags;
    EXPECT_EQ(resp.values, std::vector<uint64_t>{1}) << (int)flags;
    req.request_id = 2;
    req.body = "? 2 9";  // no (2, 9)
    ASSERT_TRUE(client.Call(req, &resp).ok());
    ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
    EXPECT_EQ(resp.num_rows(), 0u) << (int)flags;
    EXPECT_TRUE(resp.values.empty()) << (int)flags;
  }
  client.Close();
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, ValueAggregatesMatchTheInProcessAnswer) {
  // SUM/MIN/MAX rows carry a value column after the count; each wire row
  // must be exactly (group keys..., count, value) of AnswerAggregate over
  // the same view and data.
  Database db = MakeChaosDb();
  AddRelation(db, "R3", 2, {{1, 7}, {1, 9}, {2, 4}, {3, 5}, {3, 6}});
  constexpr char kAggView[] = "Q^bff(x,y,z) = R1(x,y), R3(y,z)";
  ServerOptions opts;
  opts.worker_threads = 2;
  StartServer(opts, std::move(db));
  // A second cache over the server's (read-only here) base tables.
  RepCacheOptions cache_opts;
  cache_opts.planner.churn_per_request = 0.5;  // the server's structure
  RepCache local(&db_, cache_opts);
  auto entry = local.Get(kAggView);
  ASSERT_TRUE(entry.ok()) << entry.status().message();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req;
  req.view = kAggView;
  req.deadline_ms = 30'000;
  uint64_t id = 0;
  for (const char* body : {"agg sum 1 1 2", "agg min 1 1 2", "agg max 1 0 3",
                           "agg sum 0 1 4", "agg max 1 1 9"}) {
    auto op = ParseScriptLine(body, /*mutate_mode=*/true);
    ASSERT_TRUE(op.ok()) << body;
    std::vector<int> group_vars;
    for (int i = 0; i < op.value().group_arity; ++i) group_vars.push_back(i);
    auto want = entry.value()->rep().AnswerAggregate(
        op.value().values, group_vars, op.value().agg);
    ASSERT_TRUE(want.ok()) << want.status().message();
    const AggregateResult& agg = want.value();
    std::vector<uint64_t> want_rows;
    for (size_t g = 0; g < agg.num_groups(); ++g) {
      for (int c = 0; c < agg.group_arity; ++c)
        want_rows.push_back(agg.keys[g * (size_t)agg.group_arity + c]);
      want_rows.push_back(agg.counts[g]);
      want_rows.push_back(agg.values[g]);
    }

    req.request_id = ++id;
    req.body = body;
    WireResponse resp;
    ASSERT_TRUE(client.Call(req, &resp).ok()) << body;
    ASSERT_EQ(resp.code, StatusCode::kOk) << body << ": " << resp.message;
    EXPECT_EQ(resp.arity, agg.group_arity + 2) << body;
    EXPECT_EQ(resp.values, want_rows) << body;
  }
  client.Close();
  ExpectCleanShutdown();
}

// ---------------------------------------------------------------------------
// Fault-injection soak.
// ---------------------------------------------------------------------------

TEST_F(ServerChaosTest, ConcurrentClientsUnderFailpointsNeverWrongAnswers) {
  ServerOptions opts;
  opts.worker_threads = 4;
  // Let injected faults surface quickly instead of retrying forever, and
  // keep some builds failing outright so error paths get real traffic.
  opts.cache.max_build_attempts = 2;
  opts.cache.build_retry_backoff = std::chrono::milliseconds(1);
  StartServer(opts);

  failpoint::Arm("build/any", {.probability = 0.3});
  failpoint::Arm("rep_cache/apply_delta", {.probability = 0.3});
  failpoint::Arm("updatable/rebuild", {.probability = 0.3});

  const std::vector<uint64_t> oracle = OracleRowsSorted();
  constexpr size_t kClients = 8;
  constexpr size_t kRequests = 40;
  std::atomic<size_t> wrong_answers{0};
  std::atomic<size_t> dirty_failures{0};
  std::atomic<size_t> transport_errors{0};
  std::atomic<size_t> ok_count{0}, fail_count{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      // Every client works its own tenant: per-tenant caches mean each
      // thread exercises its own build/mutate path while sharing the
      // server, so build failpoints fire independently per tenant.
      const std::string tenant = "tenant-" + std::to_string(t % 4);
      for (size_t i = 0; i < kRequests; ++i) {
        WireRequest req;
        req.tenant = tenant;
        req.view = kView;
        req.request_id = t * 1000 + i;
        req.deadline_ms = 10'000;
        const int kind = (int)((t + i) % 5);
        const uint64_t mut_id = 100 + t;  // disjoint from the oracle range
        switch (kind) {
          case 0:
          case 1:
            req.body = "? " + std::to_string(1 + (i % 4));
            break;
          case 2:
            req.body = "agg count 1 " + std::to_string(1 + (i % 4));
            break;
          case 3:
            req.body = (i % 2 == 0 ? "+ R1 " : "- R1 ") +
                       std::to_string(mut_id) + " 1";
            break;
          case 4:
            req.body = "? 1";
            req.deadline_ms = 1;  // injected expiry: hopeless on a miss
            break;
        }
        WireResponse resp;
        if (Status s = client.Call(req, &resp); !s.ok()) {
          // The transport itself must stay healthy: request-level faults
          // are in-band (coded responses), never dropped connections.
          transport_errors.fetch_add(1);
          return;
        }
        if (resp.request_id != req.request_id) {
          wrong_answers.fetch_add(1);
          continue;
        }
        if (resp.code != StatusCode::kOk) {
          fail_count.fetch_add(1);
          // Clean failure: a coded status with a reason, never silence.
          if (resp.message.empty()) dirty_failures.fetch_add(1);
          continue;
        }
        ok_count.fetch_add(1);
        if (kind <= 1) {
          // An OK enumeration must be EXACTLY the oracle: faults may
          // fail a request, they may never corrupt one.
          if (SortedRows(resp) != oracle) wrong_answers.fetch_add(1);
        } else if (kind == 2) {
          uint64_t total = 0;
          for (size_t g = 0; g < resp.num_rows(); ++g)
            total += resp.values[g * resp.arity + 1];
          if (total != 12) wrong_answers.fetch_add(1);
        }
      }
      client.Close();
    });
  }
  for (auto& th : threads) th.join();
  failpoint::DisarmAll();

  EXPECT_EQ(wrong_answers.load(), 0u)
      << "a fault may fail a request but never corrupt an answer";
  EXPECT_EQ(dirty_failures.load(), 0u) << "failures must carry a reason";
  EXPECT_EQ(transport_errors.load(), 0u)
      << "request-level faults must not kill connections";
  // The soak is only meaningful if both paths actually ran.
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_GT(fail_count.load(), 0u) << "no injected fault ever surfaced";
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, MutationsLandInTheTenantsStructureOnly) {
  ServerOptions opts;
  opts.worker_threads = 2;
  StartServer(opts);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  WireRequest req;
  req.tenant = "writer";
  req.view = kView;
  req.deadline_ms = 30'000;
  WireResponse resp;

  // Insert a brand-new join result: R1(7 -> 1) joins the existing
  // R2(1, z) rows, so "? 7" goes from empty to 3 rows.
  req.request_id = 1;
  req.body = "? 7";
  ASSERT_TRUE(client.Call(req, &resp).ok());
  ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
  EXPECT_EQ(resp.num_rows(), 0u);

  req.request_id = 2;
  req.body = "+ R1 7 1";
  ASSERT_TRUE(client.Call(req, &resp).ok());
  ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;

  req.request_id = 3;
  req.body = "? 7";
  ASSERT_TRUE(client.Call(req, &resp).ok());
  ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
  EXPECT_EQ(resp.num_rows(), 3u);  // (1,1) (1,2) (1,3)

  // The delta lives in the "writer" tenant's structure; a different
  // tenant plans and builds from the UNMUTATED base tables.
  req.tenant = "reader";
  req.request_id = 4;
  req.body = "? 7";
  ASSERT_TRUE(client.Call(req, &resp).ok());
  ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
  EXPECT_EQ(resp.num_rows(), 0u) << "tenant isolation: the base tables "
                                    "must never absorb a wire mutation";

  // And the base database object itself is untouched.
  EXPECT_FALSE(db_.Find("R1")->Contains(Tuple{7, 1}));
  client.Close();
  ExpectCleanShutdown();
}

TEST_F(ServerChaosTest, HopelessDeadlineFailsCleanlyAndKeepsServing) {
  ServerOptions opts;
  opts.worker_threads = 2;
  StartServer(opts);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  WireRequest req;
  req.view = kView;
  req.deadline_ms = 1;  // expires during the build on a cold cache
  req.request_id = 1;
  req.body = "? 1";
  WireResponse resp;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  if (resp.code != StatusCode::kOk) {
    // DEADLINE_EXCEEDED is the expected shape; a deadline that expires
    // inside a coalesced build wait may surface as UNAVAILABLE.
    EXPECT_TRUE(resp.code == StatusCode::kDeadlineExceeded ||
                resp.code == StatusCode::kUnavailable)
        << resp.message;
  }
  // The expired request must not have poisoned anything: a sane deadline
  // now succeeds with the full answer.
  req.request_id = 2;
  req.deadline_ms = 30'000;
  ASSERT_TRUE(client.Call(req, &resp).ok());
  ASSERT_EQ(resp.code, StatusCode::kOk) << resp.message;
  EXPECT_EQ(SortedRows(resp), OracleRowsSorted());
  client.Close();
  ExpectCleanShutdown();
}

}  // namespace
}  // namespace serve
}  // namespace cqc
