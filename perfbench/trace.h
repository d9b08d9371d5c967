// In-memory spans for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions: the wire call (a root span), and an in-process replay
// of the same request (a root span with one child per layer: decode,
// parse, cache lookup, drain, copy, encode, decode). The two roots share
// the request id. Each span has a name, start, end, parent and request
// id; spans stay in memory and are written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum SpanName : uint8_t {
  kClientCall,  // root: send until the response is decoded
  kReplay,      // root: the in-process replay of the same request
  kDecodeRequest,
  kParse,
  kCacheGet,
  kRunQueryDrain,
  kDrain,  // Answer() + first NextBatch, then one span per NextBatch
  kCopy,   // one span per batch appended to the response vector
  kEncode,
  kDecodeResponse,
  kApplyDelta,
  kNumSpanNames,
};

/// Dotted layer name ("serve.client.call").
const char* SpanNameText(SpanName name);

inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  int64_t start_ns = 0, end_ns = 0;  // steady_clock since the log's epoch
  uint64_t request = 0;
  uint32_t parent = kNoParent;  // index into the same log
  SpanName name = kClientCall;
};

/// One thread's spans. Not thread-safe; each client thread owns one.
class SpanLog {
 public:
  explicit SpanLog(std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch) {}

  uint32_t Begin(SpanName name, uint32_t parent, uint64_t request) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start_ns = Now();
    spans_.push_back(s);
    return (uint32_t)(spans_.size() - 1);
  }
  void End(uint32_t span) { spans_[span].end_ns = Now(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Per-request totals from a log: for each span name, the summed duration
/// and the summed self time (duration minus what its children cover), in
/// microseconds, plus the longest single kDrain span.
struct RequestTimes {
  uint64_t request = 0;
  double total_us[kNumSpanNames] = {};
  double self_us[kNumSpanNames] = {};
  bool present[kNumSpanNames] = {};
  double max_drain_us = 0;
};

/// Groups one log's spans by request (requests are contiguous in a log).
std::vector<RequestTimes> SummarizeRequests(const SpanLog& log);

/// Writes every span as TSV: thread, request, name, parent, start_ns,
/// end_ns. Returns false if the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Nearest-rank percentile (p in [0, 100]) of `v`; sorts `v`. 0 if empty.
double Percentile(std::vector<double>& v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
