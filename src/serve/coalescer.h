// ReadCoalescer: single-flight for the READ path — the generalization of
// RepCache's single-flight builds (plan/rep_cache.h) to drains.
//
// K concurrent requests for the same (cached entry, request body) trigger
// exactly ONE drain of the structure; the other K-1 attach as waiters and
// are completed with the same shared, immutable DrainResult the moment the
// leader finishes — byte-identical rows for every waiter, which the lex
// order of the underlying enumeration makes deterministic. This is sound
// precisely because the paper's structures enumerate with bounded delay:
// the leader drains in fixed-size NextBatch slices, so the shared drain's
// time is proportional to the answer, and a waiter that arrives mid-drain
// waits at most the remaining slices — no request can be starved behind an
// unbounded scan (docs/serving.md maps this to Deep & Koutris's
// delay guarantee).
//
// Waiters never block a thread: attaching registers a completion callback
// and returns. Only the leader occupies a worker for the drain, so a pool
// smaller than the number of coalesced requests cannot deadlock.
#ifndef CQC_SERVE_COALESCER_H_
#define CQC_SERVE_COALESCER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace cqc {
namespace serve {

/// The outcome of one drain. Immutable after completion; waiters hold it
/// by shared_ptr, so a slow writer can keep reading it after the
/// coalescer has moved on.
struct DrainResult {
  Status status;   // OK, or why every attached request failed
  uint8_t arity = 0;
  uint32_t rows = 0;
  /// Wire-encoded values section (protocol.h AppendValues), written by the
  /// drain itself; every attached response frame references these bytes
  /// instead of copying them. Null unless status is OK.
  std::shared_ptr<const std::string> body;
};

struct CoalescerStats {
  uint64_t shared_drains = 0;    // drains actually executed
  uint64_t coalesced_reads = 0;  // requests served by someone else's drain
  uint64_t failed_drains = 0;    // drains that completed with !status.ok()
};

class ReadCoalescer {
 public:
  using Callback = std::function<void(std::shared_ptr<const DrainResult>)>;

  /// Attaches `cb` to the in-flight drain for `key`, creating one if none
  /// exists. Returns true iff the caller became the LEADER and must now
  /// perform the drain and hand the result to Complete(key, ...); false
  /// means the request is parked and `cb` fires on the leader's thread
  /// when the shared drain lands.
  bool Attach(const std::string& key, Callback cb);

  /// Completes the drain for `key`: publishes `result` to every attached
  /// callback (including the leader's). Only the leader calls this,
  /// exactly once per Attach that returned true.
  void Complete(const std::string& key,
                std::shared_ptr<const DrainResult> result);

  CoalescerStats stats() const;

  /// Test hook: every read drain sleeps this long just after its
  /// Answer() call — the point where it captures the structure's state —
  /// widening the coalescing window so tests can assert "K concurrent
  /// identical queries -> exactly one drain" deterministically, and race
  /// writes against a drain's snapshot. 0 (the default) in production.
  static void SetDrainHoldForTest(std::chrono::milliseconds hold);
  static std::chrono::milliseconds DrainHoldForTest();

 private:
  struct InFlight {
    std::vector<Callback> waiters;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, InFlight> inflight_;
  CoalescerStats stats_;
};

}  // namespace serve
}  // namespace cqc

#endif  // CQC_SERVE_COALESCER_H_
