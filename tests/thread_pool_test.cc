#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/thread_pool.h"

namespace ramiel {
namespace {

TEST(ThreadPool, ParallelForCoversWholeRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsOnCaller) {
  ThreadPool pool(0);
  int sum = 0;
  pool.parallel_for(10, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MaxPartsLimitsChunking) {
  ThreadPool pool(7);
  std::atomic<int> chunks{0};
  pool.parallel_for(1000, /*max_parts=*/2,
                    [&](std::int64_t, std::int64_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 2);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::int64_t b, std::int64_t) {
                                   if (b == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  pool.submit([&] {
    // Under the lock: the test returns (destroying cv) as soon as it sees
    // `ran`, which must not race with this notify.
    std::lock_guard<std::mutex> lk(mu);
    ran.store(true);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait_for(lk, std::chrono::seconds(5), [&] { return ran.load(); });
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ManyConcurrentParallelFors) {
  // Two caller threads sharing one pool — the oversubscription pattern the
  // executors create.
  ThreadPool pool(2);
  std::atomic<long> total{0};
  auto work = [&] {
    for (int rep = 0; rep < 20; ++rep) {
      pool.parallel_for(50, [&](std::int64_t b, std::int64_t e) {
        total.fetch_add(e - b);
      });
    }
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 2 * 20 * 50);
}

TEST(DispatchParallelFor, SerialWhenNoPool) {
  int sum = 0;
  dispatch_parallel_for(OpContext::serial(), 5,
                        [&](std::int64_t b, std::int64_t e) {
                          for (std::int64_t i = b; i < e; ++i) {
                            sum += static_cast<int>(i);
                          }
                        });
  EXPECT_EQ(sum, 10);
}

TEST(DispatchParallelFor, UsesPoolWhenConfigured) {
  ThreadPool pool(3);
  OpContext ctx{4, &pool};
  std::atomic<int> covered{0};
  dispatch_parallel_for(ctx, 64, [&](std::int64_t b, std::int64_t e) {
    covered.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(covered.load(), 64);
}

}  // namespace
}  // namespace ramiel
