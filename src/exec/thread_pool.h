// A small thread pool with one FIFO queue.
//
// Submit() appends to a single mutex-guarded deque; workers pop its front.
// Tasks therefore START in submission order, and that is load-bearing: a
// ParallelEnumerator producer may block on consumer backpressure while
// occupying its worker (see parallel_enumerator.h), and an ordered
// consumer only drains the lowest-numbered unfinished shard. Because the
// earliest queued task is always started before any later one, the shard
// the consumer waits on is already running whenever a later shard's
// producer parks — a LIFO or per-worker order could park every worker on
// late shards while the front shard's task is still queued: deadlock. The
// pool runs coarse tasks (a whole shard drain, a snapshot fold, a server
// request), so one lock per queue operation is nanoseconds against
// milliseconds of task work.
//
// Lifecycle: Submit() never blocks; WaitIdle() blocks until every submitted
// task has finished; the destructor stops accepting work, lets the queued
// tasks run, and joins. All public methods are thread-safe.
//
// Fault containment: a task that throws never reaches std::terminate. The
// worker loop is a backstop — it swallows the exception, records it in
// pool-level counters, and keeps the worker alive — but a backstop cannot
// attribute the fault to a request. Submitters that need attribution catch
// inside their own task (ParallelEnumerator routes shard faults to the
// stream status; RepCache folds report theirs).
#ifndef CQC_EXEC_THREAD_POOL_H_
#define CQC_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cqc {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  /// Joins after all submitted tasks have run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Appends `fn` to the queue.
  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted so far has completed.
  void WaitIdle();

  int num_threads() const { return (int)threads_.size(); }

  /// The hardware parallelism available to this process (>= 1).
  static int DefaultThreadCount();

  /// True while the calling thread is executing inside a pool worker. Used
  /// by the build fan-out gate (par::SerialOnly): a pool task that reaches
  /// a parallel build step runs it serially instead of oversubscribing, and
  /// must never Submit+WaitIdle on its own pool (deadlock: the waiting
  /// worker is itself a pending task).
  static bool InWorker();

  /// Tasks whose exceptions reached the worker backstop (i.e. were not
  /// contained by the submitter). Nonzero here means some submitter has a
  /// containment gap — the work was dropped, not retried.
  size_t uncaught_task_exceptions() const {
    return uncaught_.load(std::memory_order_relaxed);
  }

  /// Message of the first backstopped exception ("" if none).
  std::string first_uncaught_message() const;

 private:
  void WorkerLoop();
  /// Runs `task` with the exception backstop. Workers never die.
  void RunContained(std::function<void()>& task);

  std::vector<std::thread> threads_;

  std::mutex mu_;                     // guards queue_, pending_, stop_
  std::condition_variable work_cv_;   // signalled on submit and stop
  std::condition_variable idle_cv_;   // signalled when pending_ hits zero
  std::deque<std::function<void()>> queue_;
  size_t pending_ = 0;                // queued + running tasks
  bool stop_ = false;

  std::atomic<size_t> uncaught_{0};   // backstopped task exceptions
  mutable std::mutex error_mu_;       // guards first_uncaught_
  std::string first_uncaught_;
};

/// Process-wide pool for background build work (RepCache snapshot folds),
/// created on first use and sized par::BuildThreads() at that moment.
/// Foreground build fan-out does not use it: see par::RunTasks.
ThreadPool& SharedBuildPool();

}  // namespace cqc

#endif  // CQC_EXEC_THREAD_POOL_H_
