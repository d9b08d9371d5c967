// Build-time fork-join: one task-list runner, and a chunked parallel sort
// built on it.
//
// RunTasks is the only build-time fan-out. Relation::Seal row sorts and
// column scatters, SortedIndex builds, per-atom index binds
// (BindAtomsParallel) and the heavy-dictionary subtree sweep all go through
// it. The caller plus min(BuildThreads(), n) - 1 short-lived std::threads
// drain one atomic task index. They are plain threads, not the shared
// ThreadPool: the caller always makes progress itself, so a foreground
// seal or index build never waits in the pool's queue behind a background
// snapshot fold. RunTasks runs the whole list serially on the caller when
//   * there is at most one task,
//   * BuildThreads() <= 1,
//   * the caller is a ThreadPool worker (a server request, a fold, a shard
//     producer: nested fan-out would only oversubscribe), or
//   * the caller is a task of another RunTasks whose list several threads
//     share.
// SerialOnly() is the last two conditions. A list the caller drains alone
// leaves its tasks free to fan out (one atom's index build, say).
//
// Faults: before it starts, each task is checked against the `par/task`
// failpoint, and it runs under a try/catch. A task that was injected or
// threw is re-run serially on the caller after the join; an exception from
// that re-run propagates. So every task must write only its own output
// slot and tolerate being run again from the start.
//
// BuildThreads() defaults to the hardware parallelism. SetBuildThreads
// overrides it; every fan-out reads it at call time, so tests can exercise
// the parallel paths on small machines and ops can cap build fan-out.
#ifndef CQC_EXEC_PAR_UTIL_H_
#define CQC_EXEC_PAR_UTIL_H_

#include <algorithm>
#include <functional>
#include <vector>

namespace cqc {
namespace par {

/// Worker count for build-time parallelism (>= 1).
int BuildThreads();
/// Overrides BuildThreads(); n <= 0 restores the hardware default.
void SetBuildThreads(int n);

/// True when a fan-out from this thread must run serially: inside a
/// ThreadPool worker, or inside a task of a RunTasks that several threads
/// drain.
bool SerialOnly();

/// Runs every task, possibly concurrently, and returns when all have
/// finished. Tasks must be independent and re-runnable (see above).
void RunTasks(std::vector<std::function<void()>> tasks);

/// std::sort with chunked fan-out + pairwise merge rounds (one RunTasks
/// each) when the input is large. Comparator requirements as for
/// std::sort.
template <typename It, typename Cmp>
void ParallelSort(It begin, It end, Cmp cmp) {
  const size_t n = (size_t)(end - begin);
  constexpr size_t kMinChunk = 1u << 14;
  size_t k = std::min<size_t>((size_t)BuildThreads(), 8);
  while (k > 1 && n / k < kMinChunk) --k;
  if (k <= 1 || SerialOnly()) {
    std::sort(begin, end, cmp);
    return;
  }
  std::vector<size_t> bounds(k + 1);
  for (size_t i = 0; i <= k; ++i) bounds[i] = n * i / k;
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < k; ++i)
    tasks.push_back([&, i] {
      std::sort(begin + bounds[i], begin + bounds[i + 1], cmp);
    });
  RunTasks(std::move(tasks));
  for (size_t width = 1; width < k; width *= 2) {
    tasks.clear();
    for (size_t i = 0; i + width < k; i += 2 * width) {
      const size_t lo = bounds[i];
      const size_t mid = bounds[i + width];
      const size_t hi = bounds[std::min(i + 2 * width, k)];
      tasks.push_back([=, &cmp] {
        std::inplace_merge(begin + lo, begin + mid, begin + hi, cmp);
      });
    }
    RunTasks(std::move(tasks));
  }
}

}  // namespace par
}  // namespace cqc

#endif  // CQC_EXEC_PAR_UTIL_H_
