// Persistent worker pool for embarrassingly parallel index loops.
//
// The sharded testbed runs one deterministic sub-world per edge subtree and
// needs to step all of them once per time window — thousands of windows per
// run, each handing over thousands of sub-microsecond tasks, so spawning
// threads per window (the cadet_sweep pattern) or taking a lock per index
// would cost more than the window body. TaskPool keeps `workers - 1` threads
// parked on a condition variable between run() calls; inside a run, indices
// {0 .. count-1} are handed out lock-free by one atomic cursor in contiguous
// chunks of max(1, count / (8 * workers)) — one fetch_add per chunk, and
// still ~8 chunks per worker so an uneven tail balances out. The calling
// thread participates as the last worker, so TaskPool(1) executes inline
// with zero threads and zero synchronization.
//
// Synchronization: the mutex guards only the run descriptor (task, count,
// chunk), the generation that wakes parked workers, and the count of
// workers still draining. Every write a task makes is published to the
// caller through that mutex (a worker decrements `active_` under it after
// its last task; run() returns only after observing zero), and everything
// the caller wrote before run() reaches the workers the same way, so the
// cursor itself can be relaxed.
//
// Determinism note: the pool lives in src/util (the threaded tier) and is
// only ever handed to deterministic code as an opaque executor callback —
// which shard runs on which thread never influences simulation results,
// because shards touch disjoint state during a window and merge at a
// single-threaded barrier (see sim/merge_queue.h).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace cadet::util {

class TaskPool {
 public:
  using Task = std::function<void(std::size_t)>;

  /// `workers` is the total parallelism including the caller; the pool
  /// spawns workers - 1 threads (0 means 1).
  explicit TaskPool(std::size_t workers) {
    if (workers == 0) workers = 1;
    threads_.reserve(workers - 1);
    for (std::size_t t = 0; t + 1 < workers; ++t) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() CADET_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  std::size_t workers() const noexcept { return threads_.size() + 1; }

  /// Run task(0), task(1), ..., task(count - 1), distributed across the
  /// workers; returns once every index has completed. Not reentrant: run()
  /// must not be called from inside a task.
  void run(std::size_t count, const Task& task) CADET_EXCLUDES(mu_) {
    if (count == 0) return;
    if (threads_.empty() || count == 1) {
      for (std::size_t i = 0; i < count; ++i) task(i);
      return;
    }
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (8 * workers()));
    {
      MutexLock lock(mu_);
      task_ = &task;
      count_ = count;
      chunk_ = chunk;
      next_.store(0, std::memory_order_relaxed);
      active_ = threads_.size();
      ++generation_;
    }
    work_cv_.notify_all();
    drain(task, count, chunk);
    MutexLock lock(mu_);
    while (active_ != 0) done_cv_.wait(mu_);
    task_ = nullptr;
  }

 private:
  /// Claim chunks until the cursor passes `count`. Every worker of a run
  /// leaves drain() before run() returns, so the next run's cursor reset
  /// can never race a straggler.
  void drain(const Task& task, std::size_t count, std::size_t chunk) {
    for (;;) {
      const std::size_t begin =
          next_.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + chunk, count);
      for (std::size_t i = begin; i < end; ++i) task(i);
    }
  }

  void worker_loop() CADET_EXCLUDES(mu_) {
    std::uint64_t seen = 0;
    for (;;) {
      const Task* task;
      std::size_t count;
      std::size_t chunk;
      {
        MutexLock lock(mu_);
        while (!stop_ && generation_ == seen) work_cv_.wait(mu_);
        if (stop_) return;
        seen = generation_;
        task = task_;
        count = count_;
        chunk = chunk_;
      }
      drain(*task, count, chunk);
      {
        MutexLock lock(mu_);
        if (--active_ == 0) done_cv_.notify_one();
      }
    }
  }

  Mutex mu_;
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
  const Task* task_ CADET_GUARDED_BY(mu_) = nullptr;
  std::size_t count_ CADET_GUARDED_BY(mu_) = 0;
  std::size_t chunk_ CADET_GUARDED_BY(mu_) = 1;
  std::size_t active_ CADET_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ CADET_GUARDED_BY(mu_) = 0;
  bool stop_ CADET_GUARDED_BY(mu_) = false;
  /// Next unclaimed index. Reset under mu_ while no worker is draining;
  /// bumped lock-free during a run. On its own cache line so claims do not
  /// bounce the line holding the mutex.
  alignas(64) std::atomic<std::size_t> next_{0};
  std::vector<std::thread> threads_;  // last: the workers use every member
};

}  // namespace cadet::util
