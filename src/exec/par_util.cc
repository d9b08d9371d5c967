#include "exec/par_util.h"

#include <atomic>
#include <system_error>
#include <thread>

#include "exec/thread_pool.h"
#include "util/failpoint.h"

namespace cqc {
namespace par {
namespace {

std::atomic<int> g_build_threads{0};  // 0 = hardware default
thread_local int tls_run_depth = 0;   // RunTasks frames on this thread

struct DepthGuard {
  DepthGuard() { ++tls_run_depth; }
  ~DepthGuard() { --tls_run_depth; }
};

/// Runs `task` unless `par/task` fires; false if injected or it threw.
bool TryRun(const std::function<void()>& task) {
  if (failpoint::ShouldFail("par/task")) return false;
  try {
    task();
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

int BuildThreads() {
  const int n = g_build_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : ThreadPool::DefaultThreadCount();
}

void SetBuildThreads(int n) {
  g_build_threads.store(n, std::memory_order_relaxed);
}

bool SerialOnly() { return tls_run_depth > 0 || ThreadPool::InWorker(); }

void RunTasks(std::vector<std::function<void()>> tasks) {
  const size_t n = tasks.size();
  const size_t workers =
      SerialOnly() ? 1 : std::min<size_t>((size_t)BuildThreads(), n);
  // One byte per task, each written by the one thread that ran it; the
  // joins order the writes before the re-run pass reads them.
  std::vector<char> ok(n, 0);
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      ok[i] = TryRun(tasks[i]);
    }
  };
  if (workers <= 1) {
    // The caller alone: a lone task (one atom's bind, a single-subtree
    // sweep) may still fan out inside.
    drain();
  } else {
    DepthGuard guard;  // while threads share the list, nesting goes serial
    std::vector<std::thread> spawned;
    for (size_t w = 1; w < workers; ++w) {
      try {
        spawned.emplace_back([&] {
          DepthGuard inner;
          drain();
        });
      } catch (const std::system_error&) {
        break;  // no thread to spare: the threads already running drain all
      }
    }
    drain();
    for (std::thread& t : spawned) t.join();
  }
  for (size_t i = 0; i < n; ++i)
    if (!ok[i]) tasks[i]();
}

}  // namespace par
}  // namespace cqc
