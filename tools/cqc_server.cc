// cqc_server — the long-lived network front end (docs/serving.md).
//
// Serves the cqc wire protocol (src/serve/protocol.h) over TCP: one
// request frame carries a tenant, an adorned view text, and one line of
// the cqc script grammar; responses stream the matching tuples back.
// Structures are built lazily per tenant through a byte-budgeted RepCache;
// concurrent identical queries coalesce into shared drains.
//
// --smoke runs a self-contained round trip (start on an ephemeral port,
// drive a client through query / aggregate / mutation / stats / malformed
// frames, check every answer) and exits 0/1 — the CI smoke test.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "relational/csv.h"
#include "relational/database.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "workload/generators.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: cqc_server [--rel NAME=PATH:ARITY ...] [--gen path2|path3|"
      "triangle]\n"
      "                  [--gen-nodes N] [--gen-edges E] [--host H] "
      "[--port P]\n"
      "                  [--workers N] [--max-sessions N] "
      "[--budget-bytes B]\n"
      "                  [--churn RATE] [--max-deadline-ms N]\n"
      "                  [--smoke]\n"
      "--gen builds a synthetic database (workload/generators.h) instead\n"
      "of loading CSVs: path2/path3 make R1..Rn random graphs, triangle\n"
      "makes the tripartite triangle relation R.\n"
      "--budget-bytes bounds each tenant's RepCache resident footprint;\n"
      "--churn > 0 lets the planner pick updatable structures so wire\n"
      "mutations (+/- lines) have somewhere to land.\n"
      "--smoke: self-contained protocol round trip on an ephemeral port\n"
      "(the CI health check); exits nonzero on any mismatch.\n");
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Fail(const char* what, const cqc::Status& s) {
  std::fprintf(stderr, "smoke: %s: %s\n", what, s.message().c_str());
  return 1;
}

/// Drives one client through every request kind plus a protocol-error
/// path, checking exact answers against the generated database.
int RunSmoke(const cqc::Database& db, cqc::serve::ServerOptions opts) {
  using namespace cqc;
  using namespace cqc::serve;
  opts.port = 0;
  opts.cache.planner.churn_per_request = 0.5;  // wire mutations need
                                               // an updatable structure
  CqcServer server(&db, opts);
  if (Status s = server.Start(); !s.ok()) return Fail("start", s);
  std::fprintf(stderr, "smoke: serving on port %d\n", server.port());

  Client client;
  if (Status s = client.Connect("127.0.0.1", server.port()); !s.ok())
    return Fail("connect", s);

  const std::string view = "Q^bff(x,y,z) = R1(x,y), R2(y,z)";
  WireRequest req;
  req.view = view;
  req.deadline_ms = 30'000;

  // 1. Ping: an empty body is a no-op line and must answer OK.
  req.request_id = 1;
  req.body = "";
  WireResponse resp;
  if (Status s = client.Call(req, &resp); !s.ok()) return Fail("ping", s);
  if (resp.code != StatusCode::kOk || resp.request_id != 1)
    return Fail("ping", Status::Error("unexpected ping response"));

  // 2. Query for x=1, checked against a direct scan of the base tables.
  req.request_id = 2;
  req.body = "? 1";
  if (Status s = client.Call(req, &resp); !s.ok()) return Fail("query", s);
  if (resp.code != StatusCode::kOk)
    return Fail("query", Status::Error(resp.message));
  size_t expect = 0;
  const Relation* r1 = db.Find("R1");
  const Relation* r2 = db.Find("R2");
  if (r1 == nullptr || r2 == nullptr)
    return Fail("query", Status::Error("generated relations missing"));
  for (size_t i = 0; i < r1->size(); ++i) {
    if (r1->At(i, 0) != 1) continue;
    for (size_t j = 0; j < r2->size(); ++j)
      if (r2->At(j, 0) == r1->At(i, 1)) ++expect;
  }
  if (resp.num_rows() != expect || resp.arity != 2)
    return Fail("query",
                Status::Error("row count mismatch vs base-table scan"));
  std::fprintf(stderr, "smoke: query ok (%zu rows)\n", resp.num_rows());

  // 3. Grouped aggregate: total COUNT for the same bound x must equal the
  // enumeration's row count.
  req.request_id = 3;
  req.body = "agg count 1 1";
  if (Status s = client.Call(req, &resp); !s.ok()) return Fail("agg", s);
  if (resp.code != StatusCode::kOk)
    return Fail("agg", Status::Error(resp.message));
  uint64_t total = 0;
  for (size_t g = 0; g < resp.num_rows(); ++g)
    total += resp.values[g * resp.arity + 1];  // key, count
  if (total != expect)
    return Fail("agg", Status::Error("aggregate count != enumeration"));

  // 4. Mutation + re-query: a new R2 edge from every y reached by x=1
  // grows the answer; the delta must be visible to the next read.
  req.request_id = 4;
  req.body = "+ R2 999999 999998";
  if (Status s = client.Call(req, &resp); !s.ok()) return Fail("insert", s);
  if (resp.code != StatusCode::kOk)
    return Fail("insert", Status::Error(resp.message));

  // 5. Stats describes the (now mutated) structure.
  req.request_id = 5;
  req.body = "stats";
  if (Status s = client.Call(req, &resp); !s.ok()) return Fail("stats", s);
  if (resp.code != StatusCode::kOk || resp.message.empty())
    return Fail("stats", Status::Error("empty stats response"));

  // 6. A malformed body must answer a line-addressable parse error and
  // keep the connection usable.
  req.request_id = 6;
  req.body = "? 1 bogus";
  if (Status s = client.Call(req, &resp); !s.ok())
    return Fail("parse error", s);
  if (resp.code != StatusCode::kError || resp.error_offset == kNoOffset)
    return Fail("parse error",
                Status::Error("expected an offset-addressed parse error"));
  req.request_id = 7;
  req.body = "? 1";
  if (Status s = client.Call(req, &resp); !s.ok())
    return Fail("post-error query", s);
  if (resp.code != StatusCode::kOk)
    return Fail("post-error query", Status::Error(resp.message));

  // 7. A corrupt frame kills only this connection, with an offset.
  const std::string bad("\x08\x00\x00\x00garbage!", 12);
  if (Status s = client.SendRaw(bad); !s.ok()) return Fail("corrupt", s);
  if (Status s = client.ReadResponse(&resp); !s.ok())
    return Fail("corrupt", s);
  if (resp.code != StatusCode::kError)
    return Fail("corrupt", Status::Error("expected a protocol error"));
  client.Close();

  server.Stop();
  const ServerStats st = server.stats();
  std::fprintf(stderr,
               "smoke: ok (%llu frames, %llu ok, %llu failed, %llu protocol "
               "errors, %llu open fds)\n",
               (unsigned long long)st.frames_received,
               (unsigned long long)st.requests_ok,
               (unsigned long long)st.requests_failed,
               (unsigned long long)st.protocol_errors,
               (unsigned long long)st.open_fds);
  if (st.open_fds != 0 || st.active_sessions != 0)
    return Fail("teardown", Status::Error("leaked sessions or fds"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqc;
  Database db;
  serve::ServerOptions opts;
  std::string gen;
  uint64_t gen_nodes = 1000;
  size_t gen_edges = 5000;
  bool smoke = false;
  bool loaded_any = false;

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
      auto loaded = LoadRelationCsv(db, spec.substr(0, eq),
                                    std::atoi(spec.c_str() + colon + 1),
                                    spec.substr(eq + 1, colon - eq - 1));
      if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.status().message().c_str());
        return 1;
      }
      loaded_any = true;
    } else if (arg == "--gen") {
      gen = next();
    } else if (arg == "--gen-nodes") {
      gen_nodes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--gen-edges") {
      gen_edges = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--host") {
      opts.host = next();
    } else if (arg == "--port") {
      opts.port = std::atoi(next());
    } else if (arg == "--workers") {
      opts.worker_threads = std::atoi(next());
    } else if (arg == "--max-sessions") {
      opts.max_sessions = (size_t)std::strtoull(next(), nullptr, 10);
    } else if (arg == "--budget-bytes") {
      opts.cache.max_resident_bytes =
          (size_t)std::strtoull(next(), nullptr, 10);
    } else if (arg == "--churn") {
      opts.cache.planner.churn_per_request = std::atof(next());
    } else if (arg == "--max-deadline-ms") {
      opts.max_deadline_ms = (uint32_t)std::strtoul(next(), nullptr, 10);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      Usage();
      return 2;
    }
  }

  if (gen.empty() && !loaded_any) gen = "path2";  // serve something
  if (gen == "path2" || gen == "path3") {
    const int n = gen == "path2" ? 2 : 3;
    MakePathRelations(db, "R", n, gen_nodes, gen_edges, /*seed=*/42);
    std::fprintf(stderr, "generated %d path relations (%llu nodes, %zu "
                 "edges each)\n",
                 n, (unsigned long long)gen_nodes, gen_edges);
  } else if (gen == "triangle") {
    const uint64_t m = gen_nodes < 2 ? 2 : gen_nodes;
    MakeTripartiteTriangleGraph(db, "R", m);
    std::fprintf(stderr, "generated tripartite triangle graph (m=%llu)\n",
                 (unsigned long long)m);
  } else if (!gen.empty()) {
    std::fprintf(stderr, "unknown --gen family: %s\n", gen.c_str());
    return 2;
  }

  if (smoke) return RunSmoke(db, opts);

  serve::CqcServer server(&db, opts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "cqc_server listening on %s:%d\n", opts.host.c_str(),
               server.port());
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();
  const serve::ServerStats st = server.stats();
  std::fprintf(stderr,
               "served %llu frames (%llu ok, %llu failed, %llu coalesced "
               "reads over %llu shared drains)\n",
               (unsigned long long)st.frames_received,
               (unsigned long long)st.requests_ok,
               (unsigned long long)st.requests_failed,
               (unsigned long long)st.coalesced_reads,
               (unsigned long long)st.shared_drains);
  return 0;
}
