#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace humo {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(n, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  size_t calls = 0;
  // No synchronization needed: a serial pool must run the body on the
  // calling thread.
  pool.ParallelFor(100, 10, [&](size_t begin, size_t end) {
    calls += end - begin;
  });
  EXPECT_EQ(calls, 100u);
}

TEST(ThreadPoolTest, SmallRangeRunsAsSingleChunk) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  pool.ParallelFor(8, 64, [&](size_t begin, size_t end) {
    chunks.fetch_add(1);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 8u);
  });
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  pool.ParallelFor(0, 16, [&](size_t, size_t) { FAIL() << "body ran"; });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1024);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(32, 1, [&](size_t outer_begin, size_t outer_end) {
    for (size_t o = outer_begin; o < outer_end; ++o) {
      // A body re-entering the pool must not hang; it runs inline.
      pool.ParallelFor(32, 1, [&](size_t inner_begin, size_t inner_end) {
        for (size_t i = inner_begin; i < inner_end; ++i)
          hits[o * 32 + i].fetch_add(1);
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, 7, [&](size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

/// The determinism contract of the whole parallelization layer: a task's
/// RNG stream depends only on (seed, task id), so any thread count — and
/// any chunk scheduling — produces identical draws.
TEST(ThreadPoolTest, PerTaskRngStreamsIdenticalAcrossThreadCounts) {
  const size_t kTasks = 500;
  const uint64_t kSeed = 1234;
  auto run = [&](size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(kTasks);
    pool.ParallelFor(kTasks, 1, [&](size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) {
        Rng rng = Rng::Stream(kSeed, t);
        // A mix of draw kinds, including variable-draw rejection sampling.
        double acc = rng.NextDouble();
        acc += static_cast<double>(rng.NextBelow(1000));
        acc += rng.NextGaussian();
        out[t] = acc;
      }
    });
    return out;
  };
  const auto serial = run(1);
  const auto par2 = run(2);
  const auto par8 = run(8);
  for (size_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(serial[t], par2[t]) << "task " << t;
    ASSERT_EQ(serial[t], par8[t]) << "task " << t;
  }
}

TEST(RngStreamTest, IndependentOfConstructionOrder) {
  Rng a = Rng::Stream(7, 100);
  Rng b = Rng::Stream(7, 101);
  Rng a2 = Rng::Stream(7, 100);
  const uint64_t first_a = a.NextUint64();
  (void)b.NextUint64();
  EXPECT_EQ(first_a, a2.NextUint64());
}

TEST(RngStreamTest, DistinctStreamsDiffer) {
  Rng a = Rng::Stream(7, 0);
  Rng b = Rng::Stream(7, 1);
  Rng c = Rng::Stream(8, 0);
  const uint64_t va = a.NextUint64(), vb = b.NextUint64(), vc = c.NextUint64();
  EXPECT_NE(va, vb);
  EXPECT_NE(va, vc);
}

/// ISSUE 7 satellite: SetGlobalThreads used to destroy the outgoing pool in
/// place while other threads could still be running ParallelFor on it (the
/// documented hazard). The swap now retires the old pool instead; hammer
/// Global()->ParallelFor from several threads while the main thread swaps
/// repeatedly and verify every loop still covers its range exactly once.
TEST(ThreadPoolTest, ConcurrentGlobalSwapKeepsLoopsValid) {
  const size_t retired_before = ThreadPool::RetiredGlobalPools();
  constexpr size_t kHammerThreads = 4;
  constexpr size_t kSwaps = 50;
  constexpr size_t kN = 2000;
  std::atomic<bool> done{false};
  std::atomic<size_t> loops_run{0};
  std::vector<std::thread> hammers;
  hammers.reserve(kHammerThreads);
  for (size_t h = 0; h < kHammerThreads; ++h) {
    hammers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::vector<char> hit(kN, 0);
        // The pool grabbed here may be retired mid-loop; it must stay
        // fully functional regardless.
        ThreadPool::Global()->ParallelFor(kN, 64,
                                          [&](size_t begin, size_t end) {
                                            for (size_t i = begin; i < end;
                                                 ++i)
                                              ++hit[i];
                                          });
        for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hit[i], 1) << i;
        loops_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t s = 0; s < kSwaps; ++s) {
    ThreadPool::SetGlobalThreads(1 + s % 4);
  }
  // Let the hammers demonstrably run against the final pool too.
  const size_t target = loops_run.load() + kHammerThreads;
  while (loops_run.load() < target) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : hammers) t.join();
  // The first swap retires nothing when no global pool existed yet.
  EXPECT_GE(ThreadPool::RetiredGlobalPools(), retired_before + kSwaps - 1);
  EXPECT_GT(loops_run.load(), 0u);
  ThreadPool::SetGlobalThreads(0);  // back to the environment default
}

// HUMO_NUM_THREADS is outside input: a huge value must not size a pool
// beyond the cap. Only the count is read; no pool is constructed.
TEST(ThreadPoolTest, DefaultThreadCountCapsTheEnvironment) {
  const char* old = std::getenv("HUMO_NUM_THREADS");
  const std::string saved = old != nullptr ? old : "";
  setenv("HUMO_NUM_THREADS", "1000000000", 1);
  const size_t count = ThreadPool::DefaultThreadCount();
  if (old != nullptr) {
    setenv("HUMO_NUM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("HUMO_NUM_THREADS");
  }
  EXPECT_LE(count, ThreadPool::kMaxDefaultThreads);
  EXPECT_GE(count, 1u);
}

TEST(ThreadPoolTest, GlobalPoolResizable) {
  ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 2u);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 1u);
  ThreadPool::SetGlobalThreads(0);  // back to the environment default
  EXPECT_GE(ThreadPool::Global()->num_threads(), 1u);
}

}  // namespace
}  // namespace humo
