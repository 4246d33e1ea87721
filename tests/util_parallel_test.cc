// util::WorkerPool: every index of every batch runs exactly once, threads
// are reused across batches, thread count never exceeds min(workers,
// tasks), 0/1 workers run inline on the caller, and a task's exception
// reaches the caller.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ctflash::util {
namespace {

TEST(WorkerPool, EachIndexRunsExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.Run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.threads(), 4u);
}

TEST(WorkerPool, ReusedAcrossAThousandBatches) {
  WorkerPool pool(3);
  std::vector<std::uint64_t> slots(9, 0);
  for (int batch = 0; batch < 1000; ++batch) {
    pool.Run(slots.size(), [&](std::size_t i) { slots[i] += i + 1; });
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], 1000 * (i + 1));
  }
  EXPECT_EQ(pool.threads(), 3u);
}

TEST(WorkerPool, StartOverlapsTheCaller) {
  WorkerPool pool(2);
  std::vector<int> slots(8, 0);
  for (int batch = 0; batch < 100; ++batch) {
    pool.Start(slots.size(), [&](std::size_t i) { ++slots[i]; });
    int caller_work = 0;
    for (int i = 0; i < 1000; ++i) caller_work += i;
    EXPECT_EQ(caller_work, 499500);
    pool.Wait();
  }
  for (const int s : slots) EXPECT_EQ(s, 100);
}

TEST(WorkerPool, CountZeroRunsNothing) {
  WorkerPool pool(4);
  int calls = 0;
  pool.Run(0, [&](std::size_t) { ++calls; });
  pool.Wait();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(pool.threads(), 0u);
}

TEST(WorkerPool, FewerTasksThanWorkersStartFewerThreads) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.Run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.threads(), 3u);
  // A later, larger batch grows the pool up to its worker count.
  std::vector<std::atomic<int>> more(20);
  pool.Run(more.size(), [&](std::size_t i) { more[i].fetch_add(1); });
  for (const auto& h : more) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.threads(), 8u);
  // And a smaller one after that still runs every index exactly once.
  pool.Run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(WorkerPool, ZeroOrOneWorkerRunsInlineOnTheCaller) {
  for (const std::uint32_t workers : {0u, 1u}) {
    WorkerPool pool(workers);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.Run(5, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(pool.threads(), 0u);
  }
}

TEST(WorkerPool, WaitRethrowsATaskExceptionAndThePoolStaysUsable) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(12);
  EXPECT_THROW(pool.Run(hits.size(),
                        [&](std::size_t i) {
                          hits[i].fetch_add(1);
                          if (i == 5) throw std::runtime_error("task 5");
                        }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  pool.Run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(WorkerPool, SingleTaskRunsInline) {
  WorkerPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  pool.Run(1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(pool.threads(), 0u);
}

}  // namespace
}  // namespace ctflash::util
