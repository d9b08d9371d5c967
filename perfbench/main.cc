// cqc serving benchmark: one workload per run, against an in-process
// CqcServer driven over TCP by serve::Client.
//
//   cqc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE] [--corrupt-oracle]
//
// Load: 2 closed-loop client connections (each sends its next request only
// after the previous answer is decoded, like a pipeline caller) against a
// server with 2 workers, so clients, workers and the poll loop fit 4 cores.
// Every answer is checked against the workload oracle (workload.h).
//
// --trace 0 measures the end-to-end metrics over S seconds. Its timings
// are CPU time: cpu_us_per_request is the process's CPU time over the
// window (clients, poll loop, workers, background folds), less what the
// client threads spend outside Client::Call (answer checks, bookkeeping),
// per completed request, averaged over the middle half of kProbes slices
// of the window; setup_s is the CPU time from Start() to the first
// answer. Both are scaled from the core clock rate, probed during the
// window, to a nominal 2.5 GHz. The kernel leaves time stolen by the
// hypervisor out of CPU time, while wall-clock figures on a shared host
// move several-fold with it, so throughput, latency and wall set-up time
// are printed but are not part of the JSON result.
// --trace 1 gives the per-layer metrics: S/2 seconds untraced, then S/2
// seconds with a span around every wire call (the difference in CPU time
// per request is the tracing overhead). Afterwards, on one thread with
// the server stopped, a sample of the traced requests is replayed
// in-process through each layer's public function, span by span
// (trace.h); the replay's spans share request ids with the wire calls
// they mirror.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any answer is wrong or any request fails.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "plan/planner.h"
#include "plan/rep_cache.h"
#include "plan/script.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using cqc::RepCache;
using cqc::RequestContext;
using cqc::Status;
using cqc::StatusCode;
using cqc::serve::Client;
using cqc::serve::CqcServer;
using cqc::serve::ServerOptions;
using cqc::serve::ServerStats;
using cqc::serve::WireRequest;
using cqc::serve::WireResponse;
using Clock = std::chrono::steady_clock;

constexpr int kConnections = 2;
constexpr int kWorkerThreads = 2;
constexpr int kSetupReps = 9;
/// A timed window is summarised over this many equal slices, so a burst of
/// outside interference (other tenants of the machine) moves a few slices,
/// not the figure (see Summarize).
constexpr int kSlices = 15;
constexpr uint32_t kDeadlineMs = 30'000;
/// Requests each connection sends before timing starts. bytes_per_row is
/// measured over them, so it depends on the seed alone (on path3_fanout
/// and path3_point, where no write changes the answers).
size_t WarmupSteps(Kind kind) {
  switch (kind) {
    case Kind::kFanout: return 128;
    case Kind::kPoint: return 2048;
    case Kind::kChurn: return 256;
  }
  return 0;
}
/// path3_churn: keys checked against the mirrored database after the run.
constexpr int kMirrorSample = 256;
/// Traced run: reads replayed in-process per connection (evenly spaced
/// over the traced window); every write is replayed, in order.
constexpr size_t kReplayReads = 1000;
constexpr size_t kReplayWarm = 32;  // untimed reads before the replay
constexpr size_t kBatch = 512;  // RunQueryDrain's batch size

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  int trace = 0;
  bool corrupt_oracle = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      a->corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a->seconds = std::atof(v);
    else if (flag == "--trace") a->trace = std::atoi(v);
    else if (flag == "--trace-out") a->trace_out = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Median(std::vector<double> v) { return Percentile(v, 50); }

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// CPU time of the process or the calling thread, in microseconds.
double CpuMicros(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return (double)ts.tv_sec * 1e6 + (double)ts.tv_nsec / 1e3;
}

/// The clock probe: kProbeSteps steps of a dependent chain (shift, xor,
/// 64-bit multiply, add, each on the last result: 1 + 1 + 3 + 1 cycles
/// on x86-64), timed on the thread's CPU clock. The chain leaves the
/// core's execution units idle, so it sees the clock rate, not other
/// threads sharing the core.
constexpr int kProbeSteps = 1'000'000;
constexpr double kCyclesPerProbeStep = 6;
/// Probes spread over a timed window; the median is its clock rate.
constexpr int kProbes = 30;
/// Timed CPU figures are scaled from the measured clock rate to this one,
/// so they do not move with the shared host's clock, which drifts by a
/// fifth over minutes.
constexpr double kNominalGhz = 2.5;

/// One clock probe, in GHz.
double ProbeClockGhz() {
  const double cpu0 = CpuMicros(CLOCK_THREAD_CPUTIME_ID);
  uint64_t h = 1;
  for (int i = 0; i < kProbeSteps; ++i) {
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h += (uint64_t)i;
  }
  const double us = CpuMicros(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  asm volatile("" : : "r"(h));  // the chain's result is used
  return kProbeSteps * kCyclesPerProbeStep / (us * 1e3);
}

ServerOptions MakeOptions(const WorkloadSpec& spec) {
  ServerOptions o;
  o.worker_threads = kWorkerThreads;
  o.space_budget_exponent = spec.space_budget_exponent;
  o.cache.planner.churn_per_request = spec.churn_per_request;
  return o;
}

// ---------------------------------------------------------------------------
// One client connection: walks its request sequence, checks every answer.
// ---------------------------------------------------------------------------

/// A request answered during the traced window, kept for the replay.
struct Recorded {
  WireRequest req;
  Op op;
};

class Conn {
 public:
  Conn(const Workload& wl, int index)
      : wl_(wl), index_(index), seq_(wl.sequence(index)) {
    for (int s = 0; s < (int)wl.mutable_tuples(index).size(); ++s)
      present_.push_back(wl.StartsPresent(index, s));
  }

  Status Connect(int port) {
    port_ = port;
    return client_.Connect("127.0.0.1", port);
  }
  void Close() { client_.Close(); }

  /// Sends the next request of the sequence. With `calls` set (traced
  /// window) the call gets a span and the request is kept in recorded().
  void Step(SpanLog* calls) { Send(seq_[pos_++ % seq_.size()], calls); }
  /// One exact read against the mirrored database (path3_churn, after the
  /// run, with no write in flight).
  void MirrorCheck(const Op& op, const Digest& expected);

  /// Drops the latency/size samples taken so far (failure counts stay).
  void ResetSamples() {
    reads = writes = wire_bytes = wire_rows = 0;
    loop_cpu_us = call_cpu_us = 0;
    read_us.clear();
    write_us.clear();
    read_done.clear();
    write_done.clear();
    rows.clear();
  }

  /// Present/absent state of this connection's mutable R2 tuples, as the
  /// acknowledged writes left it.
  const std::vector<bool>& present() const { return present_; }
  const std::vector<Recorded>& recorded() const { return recorded_; }

  uint64_t attempted = 0, failed = 0;
  uint64_t reads = 0, writes = 0;
  /// With count_wire_bytes set (the untimed warm-up), each read's response
  /// is re-encoded with the program's own encoder and its frame size and
  /// rows are summed here.
  bool count_wire_bytes = false;
  uint64_t wire_bytes = 0, wire_rows = 0;
  std::vector<double> read_us, write_us, rows;
  std::vector<Clock::time_point> read_done, write_done;  // completion times
  /// This connection's thread CPU time over a closed loop, and the part
  /// of it spent inside Client::Call (send, wait, response decode).
  double loop_cpu_us = 0, call_cpu_us = 0;

 private:
  void Send(const Op& op, SpanLog* calls);
  /// Sends `req` and times it; counts a failure unless the answer is OK.
  bool Call(const WireRequest& req, WireResponse* resp, double* us,
            SpanLog* calls);
  WireRequest MakeRequest(std::string body) {
    WireRequest req;
    req.view = wl_.spec().view;
    req.body = std::move(body);
    req.request_id = ++next_id_;
    req.deadline_ms = kDeadlineMs;
    return req;
  }

  const Workload& wl_;
  const int index_;
  const std::vector<Op>& seq_;
  size_t pos_ = 0;
  uint64_t next_id_ = 0;
  std::vector<bool> present_;
  std::vector<Recorded> recorded_;
  Client client_;
  int port_ = 0;
};

bool Conn::Call(const WireRequest& req, WireResponse* resp, double* us,
                SpanLog* calls) {
  ++attempted;
  const uint32_t span =
      calls ? calls->Begin(kClientCall, kNoParent, req.request_id) : 0;
  const double cpu0 = CpuMicros(CLOCK_THREAD_CPUTIME_ID);
  const Clock::time_point t0 = Clock::now();
  const Status s = client_.Call(req, resp);
  *us = Micros(Clock::now() - t0);
  call_cpu_us += CpuMicros(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  if (calls != nullptr) calls->End(span);
  if (!s.ok()) {
    std::fprintf(stderr, "conn %d: request %llu: %s\n", index_,
                 (unsigned long long)req.request_id, s.message().c_str());
    ++failed;
    // A broken stream cannot be resynchronised; start a fresh connection.
    client_.Close();
    (void)client_.Connect("127.0.0.1", port_);
    return false;
  }
  if (resp->code != StatusCode::kOk) {
    std::fprintf(stderr, "conn %d: request %llu refused: %s\n", index_,
                 (unsigned long long)req.request_id, resp->message.c_str());
    ++failed;
    return false;
  }
  return true;
}

void Conn::Send(const Op& op, SpanLog* calls) {
  std::string body;
  bool insert = false;
  if (op.write) {
    const Edge e = wl_.mutable_tuples(index_)[op.slot];
    insert = !present_[op.slot];
    body = (insert ? "+ R2 " : "- R2 ") + std::to_string(e.a) + " " +
           std::to_string(e.b);
  } else {
    body = wl_.ReadBody(op);
  }
  WireRequest req = MakeRequest(std::move(body));
  WireResponse resp;
  double us = 0;
  if (!Call(req, &resp, &us, calls)) return;
  if (op.write) {
    present_[op.slot] = insert;
    ++writes;
    write_us.push_back(us);
    write_done.push_back(Clock::now());
  } else if (!wl_.Check(op, resp.values)) {
    std::fprintf(stderr, "conn %d: wrong answer for '%s'\n", index_,
                 req.body.c_str());
    ++failed;
    return;
  } else {
    ++reads;
    read_us.push_back(us);
    read_done.push_back(Clock::now());
    rows.push_back((double)resp.num_rows());
    if (count_wire_bytes) {
      wire_bytes += cqc::serve::EncodeResponseFrame(resp).size();
      wire_rows += resp.num_rows();
    }
  }
  if (calls != nullptr) recorded_.push_back({std::move(req), op});
}

void Conn::MirrorCheck(const Op& op, const Digest& expected) {
  const WireRequest req = MakeRequest(wl_.ReadBody(op));
  WireResponse resp;
  double us = 0;
  if (!Call(req, &resp, &us, nullptr)) return;
  Digest got;
  for (size_t i = 0; i + 2 <= resp.values.size(); i += 2) {
    ++got.count;
    got.sum += RowHash(&resp.values[i], 2);
  }
  if (resp.values.size() % 2 != 0 || !(got == expected)) {
    std::fprintf(stderr, "conn %d: '%s' disagrees with the mirrored database\n",
                 index_, req.body.c_str());
    ++failed;
  }
}

using Conns = std::vector<std::unique_ptr<Conn>>;

/// One stretch of a timed loop between two clock probes: process CPU
/// time (probes excluded), requests completed, and the clock rate the
/// probe at its end measured.
struct Slice {
  double cpu_us = 0;
  uint64_t requests = 0;
  double ghz = 0;
};

/// A closed loop's common start, the process CPU time it took (clock
/// probes excluded) and, for a timed loop, its slices and median probed
/// clock rate.
struct Loop {
  Clock::time_point start;
  double cpu_us = 0;
  double ghz = 0;
  std::vector<Slice> slices;
};

/// Blocks until the server's background folds have all finished.
void WaitForFolds(const CqcServer& server) {
  for (;;) {
    const cqc::RepCacheStats st = server.tenant_cache_stats("");
    if (st.rebuilds_completed + st.rebuilds_failed >= st.rebuilds_scheduled)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Every connection runs Step in its own thread: `steps` times each, or
/// until `seconds` have passed when steps is 0. `calls` (traced window)
/// holds one span log per connection. The loop's CPU time is taken from
/// one finished fold backlog to the next, so it covers every fold its
/// writes caused and none that earlier writes did. A timed loop probes
/// the clock rate kProbes times, evenly spaced, on a thread of its own,
/// which also cuts the loop into slices at the probes.
Loop RunClosedLoop(const CqcServer& server, Conns& conns, double seconds,
                   size_t steps, std::vector<SpanLog>* calls) {
  WaitForFolds(server);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> done{0};  // requests completed
  std::vector<std::thread> threads;
  Loop loop;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      const double cpu0 = CpuMicros(CLOCK_THREAD_CPUTIME_ID);
      Conn& conn = *conns[c];
      SpanLog* log = calls ? &(*calls)[c] : nullptr;
      if (steps > 0) {
        for (size_t i = 0; i < steps; ++i) conn.Step(log);
      } else {
        const Clock::time_point end =
            loop.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
        while (Clock::now() < end) {
          conn.Step(log);
          done.fetch_add(1, std::memory_order_relaxed);
        }
      }
      conn.loop_cpu_us += CpuMicros(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  const double cpu0 = CpuMicros(CLOCK_PROCESS_CPUTIME_ID);
  loop.start = Clock::now();
  go.store(true);
  std::vector<double> ghz;
  double probe_cpu_us = 0;
  std::thread probe;
  if (steps == 0) {
    probe = std::thread([&] {
      const double probe0 = CpuMicros(CLOCK_THREAD_CPUTIME_ID);
      double cpu_before = cpu0, probe_before = 0;
      uint64_t done_before = 0;
      for (int k = 1; k <= kProbes; ++k) {
        std::this_thread::sleep_until(
            loop.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 seconds * k / (kProbes + 1))));
        const double cpu = CpuMicros(CLOCK_PROCESS_CPUTIME_ID);
        const uint64_t n = done.load(std::memory_order_relaxed);
        const double probe_cpu = CpuMicros(CLOCK_THREAD_CPUTIME_ID) - probe0;
        ghz.push_back(ProbeClockGhz());
        loop.slices.push_back({cpu - cpu_before - (probe_cpu - probe_before),
                               n - done_before, ghz.back()});
        cpu_before = cpu;
        probe_before = probe_cpu;
        done_before = n;
      }
      probe_cpu_us = CpuMicros(CLOCK_THREAD_CPUTIME_ID) - probe0;
    });
  }
  for (auto& t : threads) t.join();
  if (probe.joinable()) probe.join();
  WaitForFolds(server);
  loop.cpu_us = CpuMicros(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - probe_cpu_us;
  loop.ghz = Median(ghz);
  return loop;
}

/// Mean of the middle half of `v` (its interquartile mean).
double MiddleMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return hi > lo ? sum / (double)(hi - lo) : 0;
}

/// A timed window's figures. cpu_us and client_cpu_us are per completed
/// request over the whole loop. nominal_cpu_us is the same cost per slice,
/// scaled from the slice's probed clock rate to kNominalGhz, and averaged
/// over the middle half of the slices: CPU time per request rises during
/// bursts of time stolen by the hypervisor, and a burst that covers under
/// a quarter of the window does not move this figure. The wall-clock figures come
/// from kSlices equal time slices (requests are binned by completion time;
/// those completing after the window, the last in flight, are dropped);
/// each is the median of its per-slice values.
struct WindowStats {
  double cpu_us = 0, client_cpu_us = 0;  // per request
  double ghz = 0, nominal_cpu_us = 0;
  double qps = 0, read_p50 = 0, read_p99 = 0, write_p50 = 0;
};

WindowStats Summarize(const Conns& conns, const Loop& loop, double seconds) {
  WindowStats w;
  double requests = 0, outside_calls_us = 0, calls_us = 0;
  for (const auto& c : conns) {
    requests += (double)(c->reads + c->writes);
    outside_calls_us += c->loop_cpu_us - c->call_cpu_us;
    calls_us += c->call_cpu_us;
  }
  if (requests > 0) {
    w.cpu_us = (loop.cpu_us - outside_calls_us) / requests;
    w.client_cpu_us = calls_us / requests;
  }
  w.ghz = loop.ghz;
  // The client's CPU outside its calls (answer checks) is taken out of
  // each slice at the window's average rate per request.
  const double outside_per_request =
      requests > 0 ? outside_calls_us / requests : 0;
  std::vector<double> nominal;
  for (const Slice& sl : loop.slices) {
    if (sl.requests == 0) continue;
    nominal.push_back((sl.cpu_us / (double)sl.requests - outside_per_request) *
                      sl.ghz / kNominalGhz);
  }
  w.nominal_cpu_us = MiddleMean(nominal);

  const Clock::time_point start = loop.start;
  const double slice = seconds / kSlices;
  std::vector<double> reads[kSlices], writes[kSlices];
  auto bin = [&](const std::vector<Clock::time_point>& done,
                 const std::vector<double>& us, std::vector<double>* out) {
    for (size_t i = 0; i < done.size(); ++i) {
      const int b = (int)(Micros(done[i] - start) / 1e6 / slice);
      if (b >= 0 && b < kSlices) out[b].push_back(us[i]);
    }
  };
  for (const auto& c : conns) {
    bin(c->read_done, c->read_us, reads);
    bin(c->write_done, c->write_us, writes);
  }
  std::vector<double> qps, p50, p99, write_p50;
  for (int b = 0; b < kSlices; ++b) {
    qps.push_back((double)(reads[b].size() + writes[b].size()) / slice);
    p50.push_back(Percentile(reads[b], 50));
    p99.push_back(Percentile(reads[b], 99));
    write_p50.push_back(Percentile(writes[b], 50));
  }
  w.qps = Median(qps);
  w.read_p50 = Median(p50);
  w.read_p99 = Median(p99);
  w.write_p50 = Median(write_p50);
  return w;
}

// ---------------------------------------------------------------------------
// Replay: a recorded request through each layer's public function, against
// an in-process RepCache built with the server's options.
// ---------------------------------------------------------------------------

struct Replay {
  Replay(const Workload& wl, Clock::time_point epoch) : wl(wl), log(epoch) {}

  /// False if a layer fails or the in-process answer is wrong.
  bool Run(RepCache* cache, const WireRequest& req, const Op* read);

  const Workload& wl;
  SpanLog log;
  std::vector<double> rows, response_bytes;
};

bool Replay::Run(RepCache* cache, const WireRequest& req, const Op* read) {
  const uint64_t id = req.request_id;
  const std::string frame = cqc::serve::EncodeRequestFrame(req);
  const uint32_t root = log.Begin(kReplay, kNoParent, id);

  uint32_t s = log.Begin(kDecodeRequest, root, id);
  WireRequest dec;
  const Status ds = cqc::serve::DecodeRequestPayload(
      std::string_view(frame).substr(4), 4, &dec);
  log.End(s);

  s = log.Begin(kParse, root, id);
  auto parsed = cqc::ParseScriptLine(dec.body, /*mutate_mode=*/true);
  log.End(s);

  const RequestContext ctx =
      RequestContext::WithTimeout(std::chrono::milliseconds(kDeadlineMs));
  s = log.Begin(kCacheGet, root, id);
  auto entry = cache->Get(dec.view, wl.spec().space_budget_exponent, &ctx);
  log.End(s);
  if (!ds.ok() || !parsed.ok() || !entry.ok()) {
    log.End(root);
    return false;
  }
  const cqc::ScriptOp& op = parsed.value();

  if (read == nullptr) {
    const cqc::UpdateBatch delta = {
        op.kind == cqc::ScriptOp::Kind::kInsert
            ? cqc::UpdateOp::Insert(op.relation, cqc::Tuple(op.values))
            : cqc::UpdateOp::Delete(op.relation, cqc::Tuple(op.values))};
    s = log.Begin(kApplyDelta, root, id);
    const Status as = cache->ApplyDelta(entry.value()->key(), delta);
    log.End(s);
    log.End(root);
    return as.ok();
  }

  // RunQueryDrain's loop, with each NextBatch (the drain; the first also
  // opens the stream) and each append to the response vector (the copy)
  // in its own span.
  const int arity = entry.value()->view().num_free();
  std::vector<uint64_t> values;
  const uint32_t run = log.Begin(kRunQueryDrain, root, id);
  uint32_t d = log.Begin(kDrain, run, id);
  auto stream = entry.value()->rep().Answer(op.values, &ctx);
  bool ok = stream.ok();
  if (ok) {
    cqc::TupleEnumerator& e = *stream.value();
    cqc::TupleBuffer batch(arity);
    for (;;) {
      batch.Clear();
      const size_t n = e.NextBatch(&batch, kBatch);
      log.End(d);
      const uint32_t c = log.Begin(kCopy, run, id);
      for (size_t j = 0; j < n; ++j) {
        const cqc::TupleSpan t = batch[j];
        values.insert(values.end(), t.data(), t.data() + t.size());
      }
      log.End(c);
      if (n < kBatch) break;
      d = log.Begin(kDrain, run, id);
    }
    ok = e.StreamStatus().ok();
  } else {
    log.End(d);
  }
  log.End(run);

  // The server's coalesced response path: the values section encoded
  // once, the head separately.
  s = log.Begin(kEncode, root, id);
  WireResponse head_resp;
  head_resp.request_id = id;
  head_resp.arity = (uint8_t)arity;
  const uint32_t num_rows = (uint32_t)(values.size() / (size_t)arity);
  std::string body = cqc::serve::EncodeValuesBody(values);
  std::string frame_out =
      cqc::serve::EncodeResponseHead(head_resp, num_rows, body.size());
  log.End(s);

  // Release buffers when the server would (the rows once encoded, the body
  // once sent), so the allocator sees the server's and client's footprint.
  std::vector<uint64_t>().swap(values);
  frame_out += body;
  std::string().swap(body);
  s = log.Begin(kDecodeResponse, root, id);
  WireResponse decoded;
  const Status rs = cqc::serve::DecodeResponsePayload(
      std::string_view(frame_out).substr(4), 4, &decoded);
  log.End(s);
  log.End(root);
  rows.push_back((double)num_rows);
  response_bytes.push_back((double)frame_out.size());
  return ok && rs.ok() && decoded.num_rows() == num_rows &&
         wl.Check(*read, decoded.values);
}

// ---------------------------------------------------------------------------
// Setup, planning, output.
// ---------------------------------------------------------------------------

struct Counts {
  uint64_t attempted = 0, failed = 0;
};

/// Stops the server and checks that no session or fd outlived it.
bool StopClean(CqcServer* server) {
  server->Stop();
  const ServerStats st = server->stats();
  if (st.active_sessions != 0 || st.open_fds != 0) {
    std::fprintf(stderr, "leaked %llu sessions / %llu fds after Stop()\n",
                 (unsigned long long)st.active_sessions,
                 (unsigned long long)st.open_fds);
    return false;
  }
  return true;
}

/// Set-up of one server: Start() until the first answer arrives (the plan
/// and build happen inside), as process CPU time and as wall time.
struct Setup {
  double cpu_s = 0, wall_s = 0;
};

/// Starts a server, times its set-up and checks the first answer. Null on
/// failure.
std::unique_ptr<CqcServer> StartServer(const cqc::Database& db,
                                       const Workload& wl, Counts* counts,
                                       Setup* setup) {
  const Op& first = wl.sequence(0)[0];
  auto server = std::make_unique<CqcServer>(&db, MakeOptions(wl.spec()));
  ++counts->attempted;
  const double cpu0 = CpuMicros(CLOCK_PROCESS_CPUTIME_ID);
  const Clock::time_point t0 = Clock::now();
  Status s = server->Start();
  Client client;
  WireRequest req;
  req.view = wl.spec().view;
  req.body = wl.ReadBody(first);
  req.deadline_ms = kDeadlineMs;
  WireResponse resp;
  if (s.ok()) s = client.Connect("127.0.0.1", server->port());
  if (s.ok()) s = client.Call(req, &resp);
  setup->wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  setup->cpu_s = (CpuMicros(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e6;
  if (s.ok() && resp.code != StatusCode::kOk) s = Status::Error(resp.message);
  if (s.ok() && !wl.Check(first, resp.values))
    s = Status::Error("wrong first answer");
  client.Close();
  if (!s.ok()) {
    std::fprintf(stderr, "setup request '%s': %s\n", req.body.c_str(),
                 s.message().c_str());
    ++counts->failed;
    StopClean(server.get());
    return nullptr;
  }
  return server;
}

/// The planner's decision for the workload's view, made in-process with
/// the server's options (context record, traced planner metrics).
struct PlanInfo {
  std::string kind;
  double tau = 0;
  double rebuild_fraction = 0;  // updatable plans: pending mass that folds
  double predicted_space_exponent = 0;  // log_N of predicted tuple units
  double predicted_units = 0;
  std::vector<double> plan_ms, build_s;
  double space_bytes = 0;
};

bool PlanInProcess(const cqc::Database& db, const WorkloadSpec& spec,
                   int plan_reps, int build_reps, PlanInfo* info) {
  auto view = cqc::ParseAdornedView(spec.view);
  if (!view.ok()) return false;
  auto nv = cqc::NormalizeView(view.value(), db);
  if (!nv.ok()) return false;
  cqc::PlannerOptions popts = MakeOptions(spec).cache.planner;
  popts.space_budget_exponent = spec.space_budget_exponent;
  const cqc::Planner planner(&db, &nv.value().aux_db);
  cqc::Result<cqc::Plan> plan = Status::Error("no plan");
  for (int i = 0; i < plan_reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    plan = planner.PlanView(nv.value().view, popts);
    info->plan_ms.push_back(Micros(Clock::now() - t0) / 1e3);
    if (!plan.ok()) return false;
  }
  const cqc::Plan& p = plan.value();
  info->kind = cqc::RepKindName(p.kind());
  const bool updatable = p.kind() == cqc::RepKind::kUpdatable;
  info->tau = updatable ? p.spec.updatable.rep.tau : p.tau();
  info->rebuild_fraction = updatable ? p.spec.updatable.rebuild_fraction : 0;
  info->predicted_units = std::exp(p.predicted_log_space);
  info->predicted_space_exponent =
      p.log_n > 0 ? p.predicted_log_space / p.log_n : 0;
  for (int i = 0; i < build_reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto rep = planner.BuildPlan(nv.value().view, p);
    info->build_s.push_back(Micros(Clock::now() - t0) / 1e6);
    if (!rep.ok()) return false;
    info->space_bytes = (double)rep.value()->SpaceBytes();
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (unsigned char)ch < 0x20 ? ' ' : ch;
  }
  return out + "\"";
}

/// Prints `ms` and `shown` by name with units, then the JSON result,
/// which carries `ms` only: `shown` are figures the shared host moves too
/// far to gate (wall-clock times, CPU times at the measured clock).
void Emit(bool correct, const Counts& counts, const std::vector<Metric>& ms,
          const std::vector<Metric>& shown, const std::string& context) {
  for (const Metric& m : ms)
    std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  for (const Metric& m : shown)
    std::printf("%-44s %18.6f %s (not in the result)\n", m.name.c_str(),
                m.value, m.unit);
  // A correct run has no failures, so failed_frac is 0 and cannot take a
  // relative bound; the JSON carries it as attempted/failed instead.
  std::printf("%-44s %18.6f ratio (%llu of %llu requests)\n", "failed_frac",
              counts.attempted ? (double)counts.failed / counts.attempted : 0.0,
              (unsigned long long)counts.failed,
              (unsigned long long)counts.attempted);
  std::printf("context %s\n", context.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(counts.attempted) +
                     ", \"failed\": " + std::to_string(counts.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s%s: {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  JsonString(ms[i].name).c_str(), ms[i].value, ms[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Per-layer metrics from the traced window's call spans and the replay.
/// Layer times are per read; apply_delta is per write.
void LayerMetrics(const Conns& conns, const std::vector<SpanLog>& calls,
                  const std::vector<std::unique_ptr<Replay>>& replays,
                  std::vector<Metric>* ms) {
  std::vector<double> by[kNumSpanNames], self[kNumSpanNames];
  std::vector<double> gap, residual, apply, rows, resp_bytes;
  for (size_t c = 0; c < replays.size(); ++c) {
    std::unordered_map<uint64_t, double> call_us;
    for (const RequestTimes& t : SummarizeRequests(calls[c]))
      call_us[t.request] = t.total_us[kClientCall];
    for (const Recorded& r : conns[c]->recorded())
      if (!r.op.write) by[kClientCall].push_back(call_us[r.req.request_id]);
    for (const RequestTimes& t : SummarizeRequests(replays[c]->log)) {
      if (t.present[kApplyDelta]) {
        apply.push_back(t.total_us[kApplyDelta]);
        continue;
      }
      for (int n = kReplay; n < kNumSpanNames; ++n) {
        if (!t.present[n]) continue;
        by[n].push_back(t.total_us[n]);
        self[n].push_back(t.self_us[n]);
      }
      gap.push_back(t.max_drain_us);
      // What the wire call spent outside the replayed layers: admission,
      // queue wait, worker handoff, socket I/O.
      residual.push_back(call_us[t.request] -
                         (t.total_us[kDecodeRequest] + t.total_us[kParse] +
                          t.total_us[kCacheGet] + t.total_us[kRunQueryDrain] +
                          t.total_us[kEncode] + t.total_us[kDecodeResponse]));
    }
    rows.insert(rows.end(), replays[c]->rows.begin(), replays[c]->rows.end());
    resp_bytes.insert(resp_bytes.end(), replays[c]->response_bytes.begin(),
                      replays[c]->response_bytes.end());
  }
  auto pcts = [ms](const std::string& name, std::vector<double> v,
                   const char* unit) {
    ms->push_back({name + ".p50", Percentile(v, 50), unit});
    ms->push_back({name + ".p99", Percentile(v, 99), unit});
  };
  pcts("serve.protocol.decode_request_us", by[kDecodeRequest], "us");
  pcts("plan.script.parse_us", by[kParse], "us");
  pcts("plan.rep_cache.get_us", by[kCacheGet], "us");
  pcts("plan.answer_rep.drain_us", by[kDrain], "us");
  pcts("plan.answer_rep.rows", rows, "count");
  pcts("plan.answer_rep.max_batch_gap_us", gap, "us");
  pcts("serve.server.copy_us", by[kCopy], "us");
  pcts("serve.protocol.encode_us", by[kEncode], "us");
  pcts("serve.protocol.decode_response_us", by[kDecodeResponse], "us");
  pcts("serve.protocol.response_bytes", resp_bytes, "B");
  pcts("serve.client.call_us", by[kClientCall], "us");
  pcts("serve.server.residual_us", residual, "us");
  pcts("plan.rep_cache.apply_delta_us", apply, "us");
  // Self time for the spans with children (every other span is a leaf,
  // whose self time is its total).
  for (SpanName n : {kReplay, kRunQueryDrain})
    ms->push_back({std::string("self.") + SpanNameText(n) + "_us.p50",
                   Median(self[n]), "us"});
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cqc_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--corrupt-oracle]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload wl(*spec, args.seed, kConnections);
  if (args.corrupt_oracle) {
    // Break the oracle for the first key connection 1 reads that is not
    // the setup key, so the run gets past setup and fails on that answer.
    const Op& first = wl.sequence(0)[0];
    for (const Op& op : wl.sequence(1)) {
      if (op.write || (op.x == first.x && op.w == first.w)) continue;
      wl.CorruptOracle(op);
      break;
    }
  }
  cqc::Database db;
  wl.Load(&db);

  Counts counts;
  bool clean = true;
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::unique_ptr<CqcServer> server;
  for (int r = 0; r < (args.trace ? 1 : kSetupReps); ++r) {
    if (server != nullptr) clean &= StopClean(server.get());
    Setup setup;
    server = StartServer(db, wl, &counts, &setup);
    if (server == nullptr) return 1;
    setup_cpu_s.push_back(setup.cpu_s);
    setup_wall_s.push_back(setup.wall_s);
  }
  const int port = server->port();

  Conns conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Conn>(wl, c));
    if (Status s = conns.back()->Connect(port); !s.ok()) {
      std::fprintf(stderr, "connect: %s\n", s.message().c_str());
      return 1;
    }
  }

  // Warm-up on the same closed loop; it also fixes bytes_per_row.
  for (auto& c : conns) c->count_wire_bytes = true;
  RunClosedLoop(*server, conns, 0, WarmupSteps(spec->kind), nullptr);
  uint64_t warm_bytes = 0, warm_rows = 0;
  for (auto& c : conns) {
    warm_bytes += c->wire_bytes;
    warm_rows += c->wire_rows;
    c->count_wire_bytes = false;
    c->ResetSamples();
  }
  const double bytes_per_row =
      warm_rows ? (double)warm_bytes / (double)warm_rows : 0;

  // The untraced window.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const ServerStats st0 = server->stats();
  const cqc::RepCacheStats cs0 = server->tenant_cache_stats("");
  const WindowStats window = Summarize(
      conns, RunClosedLoop(*server, conns, window_s, 0, nullptr), window_s);
  const ServerStats st1 = server->stats();
  uint64_t window_reads = 0, window_writes = 0;
  std::vector<double> rows;
  for (auto& c : conns) {
    window_reads += c->reads;
    window_writes += c->writes;
    rows.insert(rows.end(), c->rows.begin(), c->rows.end());
    c->ResetSamples();
  }

  auto per_read = [&](uint64_t n) {
    return window_reads ? (double)n / (double)window_reads : 0.0;
  };
  const double coalesced_fraction =
      per_read(st1.coalesced_reads - st0.coalesced_reads);
  const double drains_per_read = per_read(st1.shared_drains - st0.shared_drains);

  // The traced window: the same loop with a span around each wire call.
  const Clock::time_point epoch = Clock::now();
  std::vector<SpanLog> calls(kConnections, SpanLog(epoch));
  std::vector<std::vector<bool>> present_before_trace;
  WindowStats traced;
  if (args.trace) {
    for (auto& c : conns) present_before_trace.push_back(c->present());
    traced = Summarize(
        conns, RunClosedLoop(*server, conns, window_s, 0, &calls), window_s);
    for (auto& c : conns) {
      window_writes += c->writes;
      c->ResetSamples();
    }
  }

  const cqc::RepCacheStats cs1 = server->tenant_cache_stats("");

  // path3_churn: with every write acknowledged, served answers must equal
  // direct evaluation over the mirrored database.
  if (spec->kind == Kind::kChurn) {
    std::vector<std::vector<bool>> present;
    for (auto& c : conns) present.push_back(c->present());
    for (int i = 0; i < kMirrorSample; ++i) {
      const std::vector<Op>& seq = wl.sequence(i % kConnections);
      const Op& op = seq[(size_t)i * 97 % seq.size()];
      if (!op.write) conns[0]->MirrorCheck(op, wl.ExpectedMirrored(op, present));
    }
  }

  // What the server serves, for the context record.
  std::string served;
  {
    Client client;
    WireRequest req;
    req.view = spec->view;
    req.body = "stats";
    req.deadline_ms = kDeadlineMs;
    WireResponse resp;
    ++counts.attempted;
    if (client.Connect("127.0.0.1", port).ok() &&
        client.Call(req, &resp).ok() && resp.code == StatusCode::kOk)
      served = resp.message;
    else
      ++counts.failed;
  }
  const double rep_bytes =
      (double)server->tenant_cache_stats("").resident_bytes;
  for (auto& c : conns) c->Close();
  clean &= StopClean(server.get());

  // Replay the traced window in-process, one connection after the other,
  // with the server stopped.
  std::vector<std::unique_ptr<Replay>> replays;
  double hit_ratio = 0;
  if (args.trace) {
    RepCache cache(&db, MakeOptions(*spec).cache);
    auto entry = cache.Get(spec->view, spec->space_budget_exponent);
    // Bring the cache to the state the traced window started from.
    cqc::UpdateBatch sync;
    for (int c = 0; c < kConnections; ++c) {
      for (int s = 0; s < (int)present_before_trace[c].size(); ++s) {
        if (present_before_trace[c][s] == wl.StartsPresent(c, s)) continue;
        const Edge e = wl.mutable_tuples(c)[s];
        sync.push_back(present_before_trace[c][s]
                           ? cqc::UpdateOp::Insert("R2", {e.a, e.b})
                           : cqc::UpdateOp::Delete("R2", {e.a, e.b}));
      }
    }
    if (!entry.ok() || !cache.ApplyDelta(entry.value()->key(), sync).ok()) {
      std::fprintf(stderr, "in-process cache setup failed\n");
      return 1;
    }
    const cqc::RepCacheStats before = cache.stats();
    // One long-lived thread replays, like a server worker: the allocator
    // serves it from its own arena, warmed by a few untimed reads first,
    // because the copy and encode costs (megabyte buffers on path3_fanout)
    // depend on the arena's state.
    std::thread([&] {
      Replay warm(wl, epoch);
      size_t warmed = 0;
      for (const Recorded& r : conns[0]->recorded()) {
        if (r.op.write) continue;
        if (warmed++ == kReplayWarm) break;
        warm.Run(&cache, r.req, &r.op);
      }
      for (int c = 0; c < kConnections; ++c) {
        replays.push_back(std::make_unique<Replay>(wl, epoch));
        const std::vector<Recorded>& recorded = conns[c]->recorded();
        size_t nreads = 0;
        for (const Recorded& r : recorded) nreads += r.op.write ? 0 : 1;
        const size_t stride = nreads / kReplayReads + 1;
        size_t read_index = 0;
        for (const Recorded& r : recorded) {
          if (!r.op.write && read_index++ % stride != 0) continue;
          ++counts.attempted;
          if (!replays[c]->Run(&cache, r.req, r.op.write ? nullptr : &r.op)) {
            std::fprintf(stderr, "replay of '%s' failed\n",
                         r.req.body.c_str());
            ++counts.failed;
          }
        }
      }
    }).join();
    const cqc::RepCacheStats after = cache.stats();
    const double lookups = (double)((after.hits - before.hits) +
                                    (after.misses - before.misses) +
                                    (after.coalesced - before.coalesced));
    hit_ratio = lookups > 0 ? (double)(after.hits - before.hits) / lookups : 0;
    cache.WaitForRebuilds();
  }
  for (auto& c : conns) {
    counts.attempted += c->attempted;
    counts.failed += c->failed;
  }

  PlanInfo plan;
  if (!PlanInProcess(db, *spec, args.trace ? 5 : 1, args.trace ? 3 : 0,
                     &plan)) {
    std::fprintf(stderr, "in-process plan failed\n");
    clean = false;
  }

  const uint64_t folds = cs1.rebuilds_completed - cs0.rebuilds_completed;
  double mean_rows = 0;
  for (double r : rows) mean_rows += r / (double)rows.size();
  std::vector<double> rows_sorted = rows;
  char context[1024];
  std::snprintf(
      context, sizeof context,
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"plan_kind\": "
      "\"%s\", \"tau\": %.6g, \"rebuild_fraction\": %.4g, "
      "\"predicted_space_exponent\": %.4f, "
      "\"predicted_units\": %.6g, \"realised_bytes\": %.0f, "
      "\"rows_per_read\": {\"mean\": %.1f, \"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, "
      "\"max\": %.0f, \"n\": %zu}, \"coalesced_fraction\": %.4f, "
      "\"folds\": %llu, \"served\": %s}",
      spec->name, (unsigned long long)args.seed, args.trace,
      plan.kind.c_str(), plan.tau, plan.rebuild_fraction,
      plan.predicted_space_exponent, plan.predicted_units, rep_bytes,
      mean_rows, Percentile(rows_sorted, 50),
      Percentile(rows_sorted, 90), Percentile(rows_sorted, 99),
      Percentile(rows_sorted, 100), rows.size(), coalesced_fraction,
      (unsigned long long)folds, JsonString(served).c_str());

  std::vector<Metric> ms, shown;
  if (!args.trace) {
    const double setup_cpu = Median(setup_cpu_s);
    ms = {
        {"cpu_us_per_request", window.nominal_cpu_us, "us"},
        {"bytes_per_row", bytes_per_row, "B"},
        {"rep_bytes", rep_bytes, "B"},
        {"setup_s", setup_cpu * window.ghz / kNominalGhz, "s"},
    };
    shown = {
        {"clock_ghz", window.ghz, "GHz"},
        {"cpu_us_per_request_at_clock", window.cpu_us, "us"},
        {"setup_s_at_clock", setup_cpu, "s"},
        {"setup_wall_s", Median(setup_wall_s), "s"},
        {"throughput_qps", window.qps, "1/s"},
        {"latency_p50_us", window.read_p50, "us"},
        {"latency_p99_us", window.read_p99, "us"},
    };
    if (spec->kind == Kind::kChurn)
      shown.push_back({"write_p50_us", window.write_p50, "us"});
  } else {
    LayerMetrics(conns, calls, replays, &ms);
    ms.push_back({"serve.server.cpu_us_per_request",
                  window.cpu_us - window.client_cpu_us, "us"});
    ms.push_back({"serve.client.cpu_us_per_request", window.client_cpu_us,
                  "us"});
    ms.push_back({"plan.rep_cache.hit_ratio", hit_ratio, "ratio"});
    ms.push_back({"serve.coalescer.coalesced_fraction", coalesced_fraction,
                  "ratio"});
    ms.push_back({"serve.coalescer.shared_drains_per_read", drains_per_read,
                  "ratio"});
    ms.push_back({"plan.rep_cache.folds_per_1k_writes",
                  window_writes ? 1e3 * (double)folds / (double)window_writes
                                : 0.0,
                  "count"});
    ms.push_back({"plan.planner.plan_ms", Median(plan.plan_ms), "ms"});
    ms.push_back({"plan.planner.build_s", Median(plan.build_s), "s"});
    ms.push_back({"plan.planner.space_bytes", plan.space_bytes, "B"});
    ms.push_back({"trace.untraced_qps", window.qps, "1/s"});
    ms.push_back({"trace.traced_qps", traced.qps, "1/s"});
    // Extra CPU time per request with the spans on.
    ms.push_back({"trace.overhead_frac",
                  window.cpu_us > 0 ? traced.cpu_us / window.cpu_us - 1 : 0,
                  "ratio"});
    if (!args.trace_out.empty()) {
      std::vector<const SpanLog*> logs;
      for (const SpanLog& l : calls) logs.push_back(&l);
      for (const auto& r : replays) logs.push_back(&r->log);
      if (!WriteSpans(args.trace_out, logs)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        clean = false;
      }
    }
  }
  const bool correct = clean && counts.failed == 0;
  Emit(correct, counts, ms, shown, context);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
