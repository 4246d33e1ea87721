// Deterministic work sharding over a persistent thread pool.
//
// A WorkerPool runs batches of tasks: `fn(i)` for every i in [0, count),
// with the pool's threads pulling indices from a shared atomic counter.  The
// threads start on the first batch that needs them and then serve every
// later batch, so a caller that runs one batch per simulated epoch pays the
// thread start-up once per pool, not once per epoch.  Rules:
//
//   - a pool of 0 or 1 workers, and a batch of at most one task, runs
//     inline on the calling thread;
//   - the pool never starts more than min(workers, count) threads for the
//     largest batch it has run, and no more than min(workers, count) of
//     them take part in a batch;
//   - Start() hands a batch to the threads and returns, so the caller can
//     work alongside the batch until Wait(); Run() is Start() + Wait().
//
// Callers that need bit-identical results for any worker count must keep
// each fn(i) free of shared mutable state (write only to slot i of
// pre-sized result vectors) — the campaign runner and the cluster simulator
// both follow that rule.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ctflash::util {

class WorkerPool {
 public:
  using Task = std::function<void(std::size_t)>;

  explicit WorkerPool(std::uint32_t workers)
      : workers_(workers == 0 ? 1 : workers) {}
  ~WorkerPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return running_ == 0; });
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(i) for every i in [0, count) and returns when all are done.
  /// Callers keep fn from throwing (capture exceptions inside and surface
  /// them from slot state); if a task on a pool thread throws anyway, the
  /// batch still finishes and Wait() rethrows the first exception.
  void Run(std::size_t count, Task fn) {
    Start(count, std::move(fn));
    Wait();
  }

  /// Hands fn(0) .. fn(count - 1) to the pool and returns; Wait() blocks
  /// until they have all run.  An inline batch runs to completion inside
  /// Start().  One batch at a time: call Wait() before the next Start().
  void Start(std::size_t count, Task fn) {
    const std::size_t active = std::min<std::size_t>(workers_, count);
    if (active <= 1) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // New threads block on mu_ until the batch below is set up; if one
      // fails to start, no batch is pending.
      while (threads_.size() < active) {
        threads_.emplace_back(&WorkerPool::Loop, this, threads_.size());
      }
      fn_ = std::move(fn);
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      active_ = active;
      running_ = active;
      ++generation_;
    }
    start_cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

  /// Threads started so far.
  std::size_t threads() const { return threads_.size(); }

 private:
  void Loop(std::size_t self) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] {
          return stop_ || (generation_ != seen && self < active_);
        });
        if (stop_) return;
        seen = generation_;
      }
      for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count_) break;
        try {
          fn_(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!error_) error_ = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) done_cv_.notify_one();
    }
  }

  const std::uint32_t workers_;
  std::mutex mu_;  // guards everything below except next_ and threads_
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Task fn_;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;   ///< threads taking part in this batch
  std::size_t running_ = 0;  ///< of those, not yet finished
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: its threads use the above
};

}  // namespace ctflash::util
