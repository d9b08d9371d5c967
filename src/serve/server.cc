#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "plan/script.h"
#include "util/str_util.h"

namespace cqc {
namespace serve {

namespace {

/// Clamps a 64-bit stream offset into the response's u32 offset field.
uint32_t ClampOffset(uint64_t off) {
  return off >= kNoOffset ? kNoOffset : (uint32_t)off;
}

/// Values a response frame (empty message) can carry without passing
/// kMaxPayloadBytes, the cap every client's FrameReader enforces.
constexpr size_t kMaxResponseValues =
    (kMaxPayloadBytes - kResponseFixedBytes) / 8;

Status FrameCapError(int arity) {
  return Status::Error(StrFormat(
      "answer exceeds the wire frame cap of %u bytes (more than %zu rows "
      "of arity %d)",
      kMaxPayloadBytes, kMaxResponseValues / (size_t)arity, arity));
}

}  // namespace

CqcServer::CqcServer(const Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

CqcServer::~CqcServer() { Stop(); }

Status CqcServer::Start() {
  if (started_.exchange(true))
    return Status::Error("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    return Status::Error(StrFormat("socket: %s", std::strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((uint16_t)options_.port);
  auto fail = [&](std::string msg) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error(std::move(msg));
  };
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    return fail(StrFormat("bad listen host '%s'", options_.host.c_str()));
  if (::bind(listen_fd_, (const sockaddr*)&addr, sizeof addr) != 0)
    return fail(StrFormat("bind %s:%d: %s", options_.host.c_str(),
                          options_.port, std::strerror(errno)));
  if (::listen(listen_fd_, 128) != 0)
    return fail(StrFormat("listen: %s", std::strerror(errno)));
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, (sockaddr*)&bound, &blen) != 0)
    return fail(StrFormat("getsockname: %s", std::strerror(errno)));
  bound_port_ = ntohs(bound.sin_port);
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0)
    return fail(StrFormat("pipe2: %s", std::strerror(errno)));
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  pool_ = std::make_unique<ThreadPool>(
      options_.worker_threads < 1 ? 1 : options_.worker_threads);
  loop_thread_ = std::thread(&CqcServer::Loop, this);
  return Status::Ok();
}

void CqcServer::Stop() {
  if (!started_.load()) return;
  if (stopped_.exchange(true)) return;
  {
    // From here on completed requests are dropped instead of enqueued: the
    // loop thread is about to die, so nobody would ever flush them.
    std::lock_guard<std::mutex> lk(ready_mu_);
    draining_ = true;
  }
  stop_requested_.store(true);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Workers may still be mid-request; the pool destructor joins after the
  // queue drains. Their CompleteRequest calls hit the draining_ fast path.
  pool_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_r_ >= 0) {
    ::close(wake_r_);
    ::close(wake_w_);
    wake_r_ = wake_w_ = -1;
  }
  // Tenants last: RepCache destructors wait for background rebuilds, which
  // must not race the request workers torn down above.
  std::lock_guard<std::mutex> lk(tenants_mu_);
  tenants_.clear();
}

void CqcServer::Wake() {
  // EAGAIN means a wake byte is already pending — that is enough.
  const char b = 1;
  ssize_t rc = ::write(wake_w_, &b, 1);
  (void)rc;
}

// ---------------------------------------------------------------------------
// Loop thread: owns the listener, the wake pipe, and every connection fd.
// ---------------------------------------------------------------------------

void CqcServer::Loop() {
  std::vector<struct pollfd> pfds;
  while (!stop_requested_.load()) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_r_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      short events = POLLIN;
      if (!conn->outbox.empty()) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
    }
    // The 250ms tick bounds how stale the slow-loris sweep can get even
    // with no socket activity at all.
    int rc = ::poll(pfds.data(), (nfds_t)pfds.size(), 250);
    if (stop_requested_.load()) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed; nothing sane to do but shut down
    }
    if (pfds[1].revents & POLLIN) {
      char buf[256];
      while (::read(wake_r_, buf, sizeof buf) > 0) {
      }
    }
    // Unconditional: cheap when empty, and responses may have landed
    // between poll() returning and the wake byte being consumed.
    MoveReadyToOutboxes();
    if (pfds[0].revents & POLLIN) AcceptNew();
    for (size_t i = 2; i < pfds.size(); ++i) {
      const int fd = pfds[i].fd;
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this pass
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
        ReadFrom(*it->second);
      // ReadFrom may have closed the connection — re-resolve before writing.
      it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if (!it->second->outbox.empty()) FlushConn(*it->second);
      it = conns_.find(fd);
      if (it == conns_.end()) continue;
      // A framing fault closes the connection, but not before every
      // already-dispatched request has had its response delivered.
      if (it->second->close_after_flush && it->second->outbox.empty() &&
          it->second->inflight == 0)
        CloseConn(it->second->id);
    }
    SweepStalePartials();
  }
  while (!conns_.empty()) CloseConn(conns_.begin()->second->id);
}

void CqcServer::AcceptNew() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error — next poll retries
    }
    if (conns_.size() >= options_.max_sessions) {
      // Best-effort refusal frame; the socket closes either way, so a
      // client that never reads still cannot hold the slot.
      sessions_refused_.fetch_add(1, std::memory_order_relaxed);
      WireResponse resp;
      resp.code = StatusCode::kUnavailable;
      resp.message = StrFormat("server at session capacity (%zu)",
                               options_.max_sessions);
      const std::string frame = EncodeResponseFrame(resp);
      (void)::send(fd, frame.data(), frame.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn_fds_[conn->id] = fd;
    conns_[fd] = std::move(conn);
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CqcServer::ReadFrom(Connection& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.reader.Feed(buf, (size_t)n);
      ProcessFrames(conn);
      if (conn.close_after_flush) break;  // stream is dead; stop reading
      continue;
    }
    if (n == 0) {
      // EOF. Mid-frame is the "disconnect between length prefix and
      // payload" corpus case: count it, then close (there is no frame to
      // answer).
      if (conn.reader.mid_frame())
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(conn.id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn.id);  // ECONNRESET and friends
    return;
  }
  if (conn.reader.mid_frame()) {
    if (!conn.has_partial) {
      conn.has_partial = true;
      conn.partial_since = std::chrono::steady_clock::now();
    }
  } else {
    conn.has_partial = false;
  }
}

void CqcServer::ProcessFrames(Connection& conn) {
  std::string_view payload;
  uint64_t payload_offset = 0;
  for (;;) {
    switch (conn.reader.Poll(&payload, &payload_offset)) {
      case FrameReader::Next::kFrame:
        HandleFrame(conn, payload, payload_offset);
        if (conn.close_after_flush) return;
        continue;
      case FrameReader::Next::kNeedMore:
        return;
      case FrameReader::Next::kError: {
        // Framing is unrecoverable: answer with the exact offense and
        // offset, then close once the answer has flushed.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        WireResponse resp;
        resp.code = StatusCode::kError;
        resp.error_offset = ClampOffset(conn.reader.error_offset());
        resp.message = conn.reader.error().message();
        EnqueueDirect(conn, resp);
        conn.close_after_flush = true;
        return;
      }
    }
  }
}

void CqcServer::HandleFrame(Connection& conn, std::string_view payload,
                            uint64_t payload_offset) {
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  WireRequest req;
  uint64_t err_off = 0;
  if (Status s = DecodeRequestPayload(payload, payload_offset, &req, &err_off);
      !s.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    WireResponse resp;
    resp.code = StatusCode::kError;
    resp.error_offset = ClampOffset(err_off);
    resp.message = s.message();
    EnqueueDirect(conn, resp);
    conn.close_after_flush = true;  // desynced framing ≠ bad request body
    return;
  }
  if (conn.inflight >= kMaxPipelineDepth) {
    pipeline_rejected_.fetch_add(1, std::memory_order_relaxed);
    WireResponse resp;
    resp.request_id = req.request_id;
    resp.code = StatusCode::kUnavailable;
    resp.message =
        StrFormat("pipeline depth %zu exceeded", kMaxPipelineDepth);
    EnqueueDirect(conn, resp);
    return;  // the connection survives; only this request is refused
  }
  ++conn.inflight;
  requests_dispatched_.fetch_add(1, std::memory_order_relaxed);
  inflight_requests_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t conn_id = conn.id;
  pool_->Submit([this, conn_id, req = std::move(req), payload_offset]() mutable {
    HandleRequest(conn_id, std::move(req), payload_offset);
  });
}

void CqcServer::EnqueueDirect(Connection& conn, const WireResponse& resp) {
  conn.outbox.push_back(OutChunk{EncodeResponseFrame(resp), nullptr, true});
}

void CqcServer::MoveReadyToOutboxes() {
  std::vector<ReadyResponse> ready;
  {
    std::lock_guard<std::mutex> lk(ready_mu_);
    ready.swap(ready_);
  }
  for (auto& r : ready) {
    auto fit = conn_fds_.find(r.conn_id);
    if (fit == conn_fds_.end()) {
      // The client vanished while its request ran; the work is discarded,
      // never misdelivered (conn ids are unique for the server's life).
      dropped_responses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection& conn = *conns_.at(fit->second);
    const bool has_body = r.body != nullptr && !r.body->empty();
    conn.outbox.push_back(OutChunk{std::move(r.head), nullptr, !has_body});
    if (has_body)
      conn.outbox.push_back(OutChunk{std::string(), std::move(r.body), true});
    if (conn.inflight > 0) --conn.inflight;
  }
}

void CqcServer::FlushConn(Connection& conn) {
  while (!conn.outbox.empty()) {
    const OutChunk& chunk = conn.outbox.front();
    const std::string& front = chunk.bytes();
    const ssize_t n = ::send(conn.fd, front.data() + conn.out_pos,
                             front.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConn(conn.id);
      return;
    }
    conn.out_pos += (size_t)n;
    if (conn.out_pos < front.size()) return;  // kernel buffer is full
    const bool ends = chunk.ends_response;
    conn.outbox.pop_front();
    conn.out_pos = 0;
    if (ends) responses_sent_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CqcServer::CloseConn(uint64_t conn_id) {
  auto fit = conn_fds_.find(conn_id);
  if (fit == conn_fds_.end()) return;
  const int fd = fit->second;
  ::close(fd);
  conn_fds_.erase(fit);
  conns_.erase(fd);
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
}

void CqcServer::SweepStalePartials() {
  if (options_.partial_frame_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<uint64_t> stale;
  for (const auto& [fd, conn] : conns_) {
    if (conn->has_partial &&
        now - conn->partial_since > options_.partial_frame_timeout)
      stale.push_back(conn->id);
  }
  for (uint64_t id : stale) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(id);
  }
}

// ---------------------------------------------------------------------------
// Worker threads.
// ---------------------------------------------------------------------------

CqcServer::Tenant* CqcServer::GetTenant(const std::string& name) {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  std::unique_ptr<Tenant>& slot = tenants_[name];
  if (!slot) {
    slot = std::make_unique<Tenant>();
    slot->cache = std::make_unique<RepCache>(db_, options_.cache);
  }
  return slot.get();
}

void CqcServer::CompleteRequest(uint64_t conn_id, WireResponse resp,
                                Tenant* tenant,
                                std::shared_ptr<const std::string> body,
                                uint32_t body_rows) {
  if (tenant != nullptr)
    tenant->inflight.fetch_sub(1, std::memory_order_relaxed);
  inflight_requests_.fetch_sub(1, std::memory_order_relaxed);
  if (resp.code == StatusCode::kOk)
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
  else
    requests_failed_.fetch_add(1, std::memory_order_relaxed);
  std::string head =
      EncodeResponseHead(resp, body_rows, body ? body->size() : 0);
  {
    std::lock_guard<std::mutex> lk(ready_mu_);
    if (draining_) {
      dropped_responses_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ready_.push_back({conn_id, std::move(head), std::move(body)});
  }
  Wake();
}

std::shared_ptr<const DrainResult> CqcServer::RunQueryDrain(
    const CachedRep& entry, const Tuple& vb, const RequestContext* ctx) const {
  auto out = std::make_shared<DrainResult>();
  const int arity = entry.view().num_free();
  if (arity > 255) {
    out->status = Status::Error(
        StrFormat("view arity %d exceeds the wire limit of 255", arity));
    return out;
  }
  auto stream = entry.rep().Answer(vb, ctx);
  if (!stream.ok()) {
    out->status = stream.status();
    return out;
  }
  // Answer() captured the structure's state; the test hold widens the
  // window in which other requests can attach to (or race) this drain.
  if (const auto hold = ReadCoalescer::DrainHoldForTest(); hold.count() > 0)
    std::this_thread::sleep_for(hold);
  // A boolean view (num_free 0) enumerates the empty tuple when satisfied;
  // the wire cannot carry arity-0 rows, so it travels as arity 1 / value 1.
  const int wire_arity = arity == 0 ? 1 : arity;
  out->arity = (uint8_t)wire_arity;
  TupleEnumerator& e = *stream.value();
  constexpr size_t kBatch = 512;
  // Slice-interleaved drain: bounded-delay enumeration means each NextBatch
  // slice lands in bounded time, so the slice boundary is a natural yield
  // point. Yielding every few slices lets the poll loop read new frames and
  // parked workers attach to THIS drain while it runs — on a loaded box a
  // long drain coalesces requests that arrive mid-flight instead of only
  // those already queued when it started.
  constexpr size_t kYieldEvery = 8;
  constexpr uint64_t kSatisfied = 1;
  size_t slices = 0;
  size_t rows = 0;
  auto body = std::make_shared<std::string>();
  TupleBuffer batch(arity);
  for (;;) {
    batch.Clear();
    const size_t n = e.NextBatch(&batch, kBatch);
    // A slice is contiguous and row-major: it is appended as one block.
    if (arity == 0) {
      for (size_t j = 0; j < n; ++j) AppendValues(body.get(), &kSatisfied, 1);
    } else {
      AppendValues(body.get(), batch.data(), n * (size_t)arity);
    }
    rows += n;
    // The response frame must fit the clients' payload cap: stop the
    // drain as soon as the values section passes it, not after.
    if (body->size() > kMaxResponseValues * 8) {
      out->status = FrameCapError(wire_arity);
      return out;
    }
    if (n < kBatch) break;
    if (++slices % kYieldEvery == 0) std::this_thread::yield();
  }
  // Fail clean: a response is all of the answer or none of it. Partial
  // rows from an aborted drain must never look like a complete result.
  out->status = e.StreamStatus();
  if (out->status.ok()) {
    out->rows = (uint32_t)rows;
    out->body = std::move(body);
  }
  return out;
}

void CqcServer::HandleRequest(uint64_t conn_id, WireRequest req,
                              uint64_t payload_offset) {
  WireResponse resp;
  resp.request_id = req.request_id;

  // Deadline propagation: the wire field becomes the RequestContext every
  // layer below polls. 0 means unbounded, which the server clamps to its
  // own maximum so a client cannot pin a worker forever.
  uint32_t deadline_ms = req.deadline_ms;
  if (options_.max_deadline_ms > 0 &&
      (deadline_ms == 0 || deadline_ms > options_.max_deadline_ms))
    deadline_ms = options_.max_deadline_ms;
  std::shared_ptr<const RequestContext> ctx;
  if (deadline_ms > 0)
    ctx = std::make_shared<RequestContext>(
        RequestContext::WithTimeout(std::chrono::milliseconds(deadline_ms)));

  // Admission: per-tenant inflight cap, checked before any real work.
  Tenant* tenant = GetTenant(req.tenant);
  if (tenant->inflight.fetch_add(1, std::memory_order_relaxed) >=
      options_.per_tenant_inflight) {
    admission_rejected_.fetch_add(1, std::memory_order_relaxed);
    resp.code = StatusCode::kUnavailable;
    resp.message =
        StrFormat("admission: tenant '%s' at its inflight limit (%zu)",
                  req.tenant.c_str(), options_.per_tenant_inflight);
    CompleteRequest(conn_id, std::move(resp), tenant);
    return;
  }

  // One grammar for the CLI and the wire: the body is a single script
  // line. Parse errors surface the ABSOLUTE wire offset of the offending
  // byte — payload start + fixed header + tenant + view + line offset.
  size_t line_off = kScriptNoOffset;
  auto parsed = ParseScriptLine(req.body, /*mutate_mode=*/true, &line_off);
  if (!parsed.ok()) {
    resp.code = StatusCode::kError;
    const uint64_t body_off = payload_offset + kRequestFixedBytes +
                              req.tenant.size() + req.view.size();
    if (line_off != kScriptNoOffset)
      resp.error_offset = ClampOffset(body_off + line_off);
    resp.message =
        StrFormat("%s (wire offset %llu)", parsed.status().message().c_str(),
                  (unsigned long long)(body_off +
                                       (line_off == kScriptNoOffset
                                            ? (size_t)0
                                            : line_off)));
    CompleteRequest(conn_id, std::move(resp), tenant);
    return;
  }
  const ScriptOp& op = parsed.value();

  if (op.kind == ScriptOp::Kind::kNoOp) {
    CompleteRequest(conn_id, std::move(resp), tenant);  // ping
    return;
  }
  if (op.kind == ScriptOp::Kind::kRebuild) {
    resp.code = StatusCode::kError;
    resp.message =
        "rebuild is not a wire operation: snapshot folds are scheduled by "
        "the cache's churn policy";
    CompleteRequest(conn_id, std::move(resp), tenant);
    return;
  }
  if (req.view.empty()) {
    resp.code = StatusCode::kError;
    resp.message = "request carries no view text";
    CompleteRequest(conn_id, std::move(resp), tenant);
    return;
  }

  // Everything else runs against the tenant's cached structure. Builds
  // are single-flighted inside RepCache; this Get may block on another
  // request's build, which is safe because the build leader was submitted
  // to the (FIFO) pool before any waiter.
  auto entry_result = tenant->cache->Get(req.view,
                                         options_.space_budget_exponent,
                                         ctx.get());
  if (!entry_result.ok()) {
    const Status& s = entry_result.status();
    resp.code = s.code() == StatusCode::kOk ? StatusCode::kError : s.code();
    resp.message = s.message();
    CompleteRequest(conn_id, std::move(resp), tenant);
    return;
  }
  std::shared_ptr<const CachedRep> entry =
      std::move(entry_result).value();
  // Set by responses that carry rows: the encoded values section.
  std::shared_ptr<const std::string> body;
  uint32_t rows = 0;

  switch (op.kind) {
    case ScriptOp::Kind::kStats: {
      resp.message = entry->rep().Describe();
      if (entry->degraded()) resp.message += " [degraded]";
      break;
    }
    case ScriptOp::Kind::kAggregate: {
      std::vector<int> group_vars;
      for (int i = 0; i < op.group_arity; ++i) group_vars.push_back(i);
      auto result =
          entry->rep().AnswerAggregate(op.values, group_vars, op.agg,
                                       ctx.get());
      if (!result.ok()) {
        const Status& s = result.status();
        resp.code = s.code() == StatusCode::kOk ? StatusCode::kError
                                                : s.code();
        resp.message = s.message();
        break;
      }
      // Row shape mirrors the CLI's text output: group key values, the
      // count, and (for SUM/MIN/MAX) the folded value — that column is in
      // the arity even when no group matches.
      const AggregateResult& agg = result.value();
      const int has_value = op.agg.func == AggFunc::kCount ? 0 : 1;
      const int row_arity = agg.group_arity + 1 + has_value;
      if (row_arity > 255) {
        resp.code = StatusCode::kError;
        resp.message = "aggregate row arity exceeds the wire limit of 255";
        break;
      }
      if (agg.num_groups() * (size_t)row_arity > kMaxResponseValues) {
        resp.code = StatusCode::kError;
        resp.message = FrameCapError(row_arity).message();
        break;
      }
      resp.arity = (uint8_t)row_arity;
      auto encoded = std::make_shared<std::string>();
      encoded->reserve(agg.num_groups() * (size_t)row_arity * 8);
      for (size_t g = 0; g < agg.num_groups(); ++g) {
        AppendValues(encoded.get(),
                     agg.keys.data() + g * (size_t)agg.group_arity,
                     (size_t)agg.group_arity);
        AppendValues(encoded.get(), &agg.counts[g], 1);
        if (has_value) AppendValues(encoded.get(), &agg.values[g], 1);
      }
      rows = (uint32_t)agg.num_groups();
      body = std::move(encoded);
      break;
    }
    case ScriptOp::Kind::kInsert:
    case ScriptOp::Kind::kDelete: {
      // Mutations flow into the tenant's cached (updatable) structures via
      // the cache — NEVER into db_, which is shared across every tenant
      // and unsynchronized by design (docs/serving.md#mutations).
      if (Status s = ValidateMutation(op, *db_); !s.ok()) {
        resp.code = StatusCode::kError;
        resp.message = s.message();
        break;
      }
      const UpdateBatch delta = {
          op.kind == ScriptOp::Kind::kInsert
              ? UpdateOp::Insert(op.relation, Tuple(op.values))
              : UpdateOp::Delete(op.relation, Tuple(op.values))};
      if (Status s = tenant->cache->ApplyDelta(entry->key(), delta);
          !s.ok()) {
        resp.code = s.code() == StatusCode::kOk ? StatusCode::kError
                                                : s.code();
        resp.message = s.message();
        break;
      }
      tenant->write_generation.fetch_add(1);
      mutations_applied_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case ScriptOp::Kind::kQuery: {
      // One completion for every read, private or shared: the callback
      // owns the response, so this worker returns once it is called or
      // parked.
      auto complete = [this, conn_id, tenant, ctx,
                       request_id = req.request_id](
                          std::shared_ptr<const DrainResult> r) {
        WireResponse out;
        out.request_id = request_id;
        if (Status s = RequestContext::Check(ctx.get()); !s.ok()) {
          // This request's own deadline expired (while parked, or during
          // its own drain); its failure code is what the client sees.
          out.code = s.code();
          out.message = s.message();
        } else if (!r->status.ok()) {
          Status s = r->status;
          if (s.IsDeadlineExceeded() || s.IsCancelled())
            // The LEADER's deadline died, not this waiter's: to the waiter
            // that is a transient shared-resource failure, and retrying
            // (as a fresh leader) is exactly right.
            s = Status::Unavailable("shared drain aborted: " + s.message());
          out.code = s.code();
          out.message = s.message();
        } else {
          // Byte-identical rows for every waiter: the drain encoded the
          // values section once (r->body); this response only adds its own
          // small head, so a coalesced read costs O(1) extra copies no
          // matter how large the shared answer is.
          out.arity = r->arity;
          CompleteRequest(conn_id, std::move(out), tenant, r->body, r->rows);
          return;
        }
        CompleteRequest(conn_id, std::move(out), tenant);
      };
      if (req.flags & kFlagNoCoalesce) {
        complete(RunQueryDrain(*entry, op.values, ctx.get()));
        return;
      }
      // Coalesced read: key on the cached entry's identity, the tenant's
      // write generation and the raw body, so two requests share a drain
      // only when they hit the same structure with the same request line
      // and no write was acknowledged in between — a read issued after a
      // write's OK never joins a drain that may predate the write.
      std::string key =
          StrFormat("%p|%llu|", (const void*)entry.get(),
                    (unsigned long long)tenant->write_generation.load());
      key += req.body;
      if (coalescer_.Attach(key, std::move(complete))) {
        // This request leads: drain once, publish to everyone attached.
        coalescer_.Complete(key, RunQueryDrain(*entry, op.values, ctx.get()));
      }
      return;  // response delivered (or parked) via the callback
    }
    case ScriptOp::Kind::kNoOp:
    case ScriptOp::Kind::kRebuild:
      break;  // handled above
  }
  CompleteRequest(conn_id, std::move(resp), tenant, std::move(body), rows);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

ServerStats CqcServer::stats() const {
  ServerStats s;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  s.sessions_refused = sessions_refused_.load(std::memory_order_relaxed);
  s.active_sessions = s.sessions_opened - s.sessions_closed;
  const bool running = started_.load() && !stopped_.load();
  // listener + both wake pipe ends while running, plus one fd per session.
  s.open_fds = s.active_sessions + (running ? 3 : 0);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.dropped_responses = dropped_responses_.load(std::memory_order_relaxed);
  s.requests_dispatched =
      requests_dispatched_.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_failed = requests_failed_.load(std::memory_order_relaxed);
  s.admission_rejected = admission_rejected_.load(std::memory_order_relaxed);
  s.pipeline_rejected = pipeline_rejected_.load(std::memory_order_relaxed);
  s.mutations_applied = mutations_applied_.load(std::memory_order_relaxed);
  s.inflight_requests = inflight_requests_.load(std::memory_order_relaxed);
  const CoalescerStats c = coalescer_.stats();
  s.shared_drains = c.shared_drains;
  s.coalesced_reads = c.coalesced_reads;
  s.failed_drains = c.failed_drains;
  return s;
}

RepCacheStats CqcServer::tenant_cache_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return RepCacheStats{};
  return it->second->cache->stats();
}

}  // namespace serve
}  // namespace cqc
