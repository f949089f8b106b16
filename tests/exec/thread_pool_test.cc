#include "nfv/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace nfv::exec {
namespace {

TEST(ExecConfig, RejectsZeroThreads) {
  ExecConfig cfg;
  cfg.threads = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.threads = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelMapFillsByIndex) {
  ThreadPool pool(3);
  const std::vector<std::size_t> out =
      pool.parallel_map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  // Many short regions back to back: each region lives on the caller's
  // stack and is destroyed as soon as its last chunk completes, so under
  // -fsanitize=thread this also checks that no worker touches a finished
  // region.
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int region = 0; region < 20000; ++region) {
    pool.parallel_for(4, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 80000u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);
  // The failed region must not wedge the workers.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorkers) {
  // A nested region on a worker thread must not queue (it would deadlock
  // once every worker waits on tasks only workers can run).
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  std::atomic<int> nested_on_worker{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    pool.parallel_for(16, [&](std::size_t) { ++inner_total; });
    ++nested_on_worker;
  });
  EXPECT_EQ(inner_total.load(), 8u * 16u);
  EXPECT_EQ(nested_on_worker.load(), 8);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, FreeFunctionsRunInlineWithoutPool) {
  ASSERT_EQ(pool(), nullptr);
  EXPECT_EQ(current_concurrency(), 1u);
  std::size_t sum = 0;  // no atomics needed: must run on this thread
  parallel_for(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);
  const std::vector<int> mapped =
      parallel_map(4, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(mapped, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ThreadPool, ScopedPoolInstallsAndRestores) {
  ASSERT_EQ(pool(), nullptr);
  {
    ThreadPool workers(3);
    const ScopedPool scope(workers);
    EXPECT_EQ(pool(), &workers);
    EXPECT_EQ(current_concurrency(), 3u);
    std::atomic<std::size_t> covered{0};
    parallel_for(64, [&](std::size_t) { ++covered; });
    EXPECT_EQ(covered.load(), 64u);
  }
  EXPECT_EQ(pool(), nullptr);
  EXPECT_EQ(current_concurrency(), 1u);
}

TEST(ThreadPool, SingleWorkerAndEmptyRegionsDegradeGracefully) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::size_t sum = 0;
  pool.parallel_for(0, [&](std::size_t) { ++sum; });
  EXPECT_EQ(sum, 0u);
  pool.parallel_for(5, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 10u);
  const auto mapped = pool.parallel_map(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(mapped.empty());
}

}  // namespace
}  // namespace nfv::exec
