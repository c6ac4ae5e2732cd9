// TaskPool: every index of a run executes exactly once — across worker
// counts, run sizes below and above the chunk rule, and many back-to-back
// runs (the sharded world's per-window pattern) — and a one-worker pool
// stays inline on the caller. The per-index results are plain writes, so a
// TSan build (the tsan-metrics preset) also checks that run() publishes
// task writes to the caller and the caller's resets to the next run.
#include "util/task_pool.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace cadet::util {
namespace {

TEST(TaskPool, EveryIndexRunsExactlyOnce) {
  for (const std::size_t workers : {2u, 3u, 4u}) {
    TaskPool pool(workers);
    ASSERT_EQ(pool.workers(), workers);
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, workers - 1, std::size_t{7813}}) {
      std::vector<std::uint32_t> hits(count, 0);
      for (int round = 0; round < 100; ++round) {
        for (std::uint32_t& hit : hits) hit = 0;
        pool.run(count, [&hits](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i], 1u) << "workers " << workers << " count "
                                 << count << " round " << round
                                 << " index " << i;
        }
      }
    }
  }
}

TEST(TaskPool, SingleWorkerRunsInlineOnCaller) {
  TaskPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  EXPECT_EQ(TaskPool(0).workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  pool.run(100, [&](std::size_t i) {
    on_caller = on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace cadet::util
