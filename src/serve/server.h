// CqcServer: the long-lived network front end (docs/serving.md).
//
// One poll(2) readiness loop on a dedicated thread owns every socket:
// nonblocking accept, per-connection FrameReader assembly of the
// length-prefixed protocol (serve/protocol.h), and outbox flushing.
// Complete request frames are decoded on the loop thread and dispatched to
// an exec/ThreadPool; workers execute against per-tenant RepCaches (one
// byte-budgeted cache per tenant — admission control is per tenant, so one
// tenant's flood cannot evict or starve another's working set) and push
// finished response frames back to the loop through a wake pipe. The loop
// thread never blocks on request work; workers never touch a socket.
//
// Request bodies reuse the cqc script grammar (plan/script.h): a wire
// request is one script line evaluated against the request's view, so the
// CLI and the server share a single strict parser, and a malformed body is
// rejected with the exact wire byte offset of the offending token.
//
// Read-path coalescing (serve/coalescer.h): concurrent identical queries
// against the same cached entry share ONE bounded-delay drain; waiters get
// byte-identical rows. Opt out per request with kFlagNoCoalesce.
//
// Fault tolerance rides on PR 9's machinery: the wire deadline_ms becomes
// a RequestContext threaded through every entry point, RepCache retries /
// degraded fallbacks apply unchanged, and failpoints fire inside builds,
// drains, and delta application exactly as in-process callers see them.
#ifndef CQC_SERVE_SERVER_H_
#define CQC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.h"
#include "plan/rep_cache.h"
#include "serve/coalescer.h"
#include "serve/protocol.h"
#include "util/request_context.h"
#include "util/status.h"

namespace cqc {
namespace serve {

/// Requests one connection may have in flight (pipelining depth); excess
/// frames are answered UNAVAILABLE without dispatch.
inline constexpr size_t kMaxPipelineDepth = 64;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; port() reports the bound port after Start().
  int port = 0;
  /// Request-execution workers (>= 1).
  int worker_threads = 2;
  /// Accept cap: connections beyond this are refused with a best-effort
  /// error frame and closed (slow-loris fd exhaustion defense).
  size_t max_sessions = 256;
  /// Concurrent requests one tenant may have in flight across all its
  /// connections; excess is rejected at admission.
  size_t per_tenant_inflight = 128;
  /// A partial frame older than this is a dead/slow-loris connection and
  /// is closed as a protocol error. 0 disables.
  std::chrono::milliseconds partial_frame_timeout{30000};
  /// Wire deadlines are clamped to this (a client cannot pin a worker
  /// arbitrarily long). 0 = no clamp.
  uint32_t max_deadline_ms = 60'000;
  /// Space budget exponent handed to RepCache::Get for every request.
  double space_budget_exponent = -1;
  /// Per-tenant RepCache configuration (capacity, max_resident_bytes =
  /// the per-tenant byte budget, planner churn, retry/degrade policy).
  RepCacheOptions cache;
};

struct ServerStats {
  // Session lifecycle.
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t sessions_refused = 0;  // accept-cap refusals
  uint64_t active_sessions = 0;   // gauge
  uint64_t open_fds = 0;          // gauge: listener + wake pipe + sessions
  // Framing / protocol.
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;   // framing/decode faults (connection dies)
  uint64_t responses_sent = 0;    // frames fully written to a socket
  uint64_t dropped_responses = 0; // completed after their connection died
  // Request execution.
  uint64_t requests_dispatched = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_failed = 0;   // responses with a non-OK status code
  uint64_t admission_rejected = 0;
  uint64_t pipeline_rejected = 0;
  uint64_t mutations_applied = 0;
  uint64_t inflight_requests = 0;  // gauge
  // Read-path coalescing (serve/coalescer.h).
  uint64_t shared_drains = 0;
  uint64_t coalesced_reads = 0;
  uint64_t failed_drains = 0;
};

class CqcServer {
 public:
  /// `db` must outlive the server; it is the shared immutable base — wire
  /// mutations flow into updatable cached structures, never the base
  /// tables (docs/serving.md#mutations).
  explicit CqcServer(const Database* db, ServerOptions options = {});
  ~CqcServer();

  CqcServer(const CqcServer&) = delete;
  CqcServer& operator=(const CqcServer&) = delete;

  /// Binds, listens, and spawns the loop + workers. Fails with the socket
  /// error (address in use, bad host) without leaking fds.
  Status Start();

  /// Stops accepting, closes every session, joins the loop and workers.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (after Start()).
  int port() const { return bound_port_; }

  ServerStats stats() const;

  /// Stats of one tenant's RepCache ("" = the default tenant); zeros if
  /// the tenant has never sent a request.
  RepCacheStats tenant_cache_stats(const std::string& tenant) const;

 private:
  /// One write-queue element. A response without rows is a single owned
  /// chunk; one with rows is an owned head (length prefix + fixed header +
  /// message) followed by a chunk sharing the encoded values — for a
  /// coalesced read, with every other waiter, so the large section is
  /// encoded once per drain and never copied per waiter.
  struct OutChunk {
    std::string own;
    std::shared_ptr<const std::string> shared;  // used when non-null
    bool ends_response = true;  // last chunk of its response frame
    const std::string& bytes() const { return shared ? *shared : own; }
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameReader reader;
    std::deque<OutChunk> outbox;
    size_t out_pos = 0;       // bytes of outbox.front() already written
    size_t inflight = 0;      // dispatched, response not yet enqueued
    bool close_after_flush = false;
    /// Set while reader.mid_frame(): when the partial frame started.
    std::chrono::steady_clock::time_point partial_since{};
    bool has_partial = false;
  };

  struct Tenant {
    std::unique_ptr<RepCache> cache;
    std::atomic<size_t> inflight{0};
    // Bumped after every successful wire mutation, before its response is
    // sent. Part of the read-coalescing key: updatable entries absorb
    // writes in place, so the entry pointer alone cannot tell a drain that
    // started before an acknowledged write from one that started after.
    std::atomic<uint64_t> write_generation{0};
  };

  // --- loop thread ---------------------------------------------------------
  void Loop();
  void AcceptNew();
  void ReadFrom(Connection& conn);
  void ProcessFrames(Connection& conn);
  void HandleFrame(Connection& conn, std::string_view payload,
                   uint64_t payload_offset);
  void FlushConn(Connection& conn);
  void CloseConn(uint64_t conn_id);
  void MoveReadyToOutboxes();
  void SweepStalePartials();
  /// Enqueues a response on the loop thread (protocol errors, refusals).
  void EnqueueDirect(Connection& conn, const WireResponse& resp);

  // --- worker threads ------------------------------------------------------
  void HandleRequest(uint64_t conn_id, WireRequest req,
                     uint64_t payload_offset);
  /// Drains one query answer straight into a wire values section. Fails
  /// clean (no rows) when the response frame would exceed
  /// kMaxPayloadBytes, the cap every client's FrameReader enforces.
  std::shared_ptr<const DrainResult> RunQueryDrain(
      const CachedRep& entry, const Tuple& vb,
      const RequestContext* ctx) const;
  /// Thread-safe: serializes the head and hands the response to the loop
  /// thread. `tenant` (nullable) releases its admission slot. `body`, when
  /// set, is the response's encoded values section of `body_rows` rows
  /// (shared across coalesced waiters); `resp.values` is never read.
  void CompleteRequest(uint64_t conn_id, WireResponse resp, Tenant* tenant,
                       std::shared_ptr<const std::string> body = nullptr,
                       uint32_t body_rows = 0);
  Tenant* GetTenant(const std::string& name);

  void Wake();

  const Database* db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;
  int bound_port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Loop-thread-owned connection state.
  std::map<int, std::unique_ptr<Connection>> conns_;          // by fd
  std::unordered_map<uint64_t, int> conn_fds_;                // id -> fd
  uint64_t next_conn_id_ = 1;

  // Worker -> loop handoff.
  struct ReadyResponse {
    uint64_t conn_id = 0;
    std::string head;  // a full frame when body is null
    std::shared_ptr<const std::string> body;
  };
  std::mutex ready_mu_;
  bool draining_ = false;  // Stop() in progress: drop new responses
  std::vector<ReadyResponse> ready_;

  // Tenants (created lazily, never removed while running).
  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  ReadCoalescer coalescer_;

  // Stats counters (atomics: mixed loop/worker writers).
  std::atomic<uint64_t> sessions_opened_{0}, sessions_closed_{0},
      sessions_refused_{0}, frames_received_{0}, protocol_errors_{0},
      responses_sent_{0}, dropped_responses_{0}, requests_dispatched_{0},
      requests_ok_{0}, requests_failed_{0}, admission_rejected_{0},
      pipeline_rejected_{0}, mutations_applied_{0}, inflight_requests_{0};
};

}  // namespace serve
}  // namespace cqc

#endif  // CQC_SERVE_SERVER_H_
