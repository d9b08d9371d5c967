#include "exec/thread_pool.h"

#include <algorithm>

#include "exec/par_util.h"
#include "util/logging.h"

namespace cqc {
namespace {

thread_local bool tls_in_worker = false;

}  // namespace

bool ThreadPool::InWorker() { return tls_in_worker; }

ThreadPool& SharedBuildPool() {
  static ThreadPool pool(par::BuildThreads());
  return pool;
}

ThreadPool::ThreadPool(int num_threads) {
  const size_t n = (size_t)std::max(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i)
    threads_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::Submit(std::function<void()> fn) {
  CQC_CHECK(fn != nullptr);
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(fn));
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return pending_ == 0; });
}

std::string ThreadPool::first_uncaught_message() const {
  std::lock_guard<std::mutex> lk(error_mu_);
  return first_uncaught_;
}

void ThreadPool::RunContained(std::function<void()>& task) {
  // Backstop only: submitters that need attribution (ParallelEnumerator,
  // RepCache folds) catch before the exception gets here. Anything that
  // does arrive means dropped work, so record it for diagnostics — but
  // never let a task take down the process.
  try {
    task();
  } catch (const std::exception& e) {
    uncaught_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(error_mu_);
    if (first_uncaught_.empty()) first_uncaught_ = e.what();
  } catch (...) {
    uncaught_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(error_mu_);
    if (first_uncaught_.empty()) first_uncaught_ = "non-standard exception";
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Queued tasks still run after stop_: the destructor drains the queue.
    work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    RunContained(task);
    task = nullptr;  // destroy captures outside the lock
    lk.lock();
    if (--pending_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace cqc
