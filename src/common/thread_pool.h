#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace humo {

/// Fixed-size worker pool for deterministic data parallelism.
///
/// The only primitive is ParallelFor, which splits an index range into
/// contiguous chunks and runs a body over each chunk. Chunks are claimed
/// dynamically (work stealing via an atomic cursor), so scheduling is
/// nondeterministic — callers MUST write only to disjoint, index-addressed
/// output slots and derive any randomness from per-task streams
/// (Rng::Stream), never from shared mutable state. Under that contract the
/// result is bit-identical for every thread count, including 1.
///
/// The pool size defaults to the HUMO_NUM_THREADS environment variable
/// (read through common/env.h, capped at kMaxDefaultThreads) and falls back
/// to the hardware concurrency.
/// A pool of size 1 has no worker threads and runs every body inline, which
/// is the reference serial path.
///
/// Nested ParallelFor calls (a body that itself calls ParallelFor, on any
/// pool) run inline on the calling thread instead of deadlocking; the
/// outermost loop is the one that fans out.
class ThreadPool {
 public:
  /// `num_threads` counts the caller: 1 means serial, n means the caller
  /// plus n-1 workers. 0 means DefaultThreadCount().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in ParallelFor (workers + caller).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs body(chunk_begin, chunk_end) over chunks of [0, n) of at most
  /// `grain` indices each, blocking until every chunk completed. Runs inline
  /// when the pool is serial, when n <= grain, or when called from inside
  /// another ParallelFor body.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Upper limit of DefaultThreadCount(). HUMO_NUM_THREADS is outside
  /// input, and the first Global() starts that many threads.
  static constexpr size_t kMaxDefaultThreads = 256;

  /// HUMO_NUM_THREADS when set to a positive value, otherwise the hardware
  /// concurrency (at least 1); at most kMaxDefaultThreads either way.
  static size_t DefaultThreadCount();

  /// Process-wide pool used by the numeric kernels (GP Gram construction,
  /// Cholesky column updates, pair simulation) when no pool is passed
  /// explicitly. Created on first use with DefaultThreadCount() threads.
  static ThreadPool* Global();

  /// Replaces the global pool with one of `num_threads` threads (0 =
  /// DefaultThreadCount()). Safe under concurrent use: the swap itself is
  /// atomic (one mutex guards the slot), and the outgoing pool is RETIRED —
  /// kept alive for the remainder of the process — rather than destroyed,
  /// so a thread that grabbed Global() before the swap (or is still inside
  /// ParallelFor on it) keeps a valid pool; it merely finishes on the old
  /// thread count. The cost is the retired pools' idle workers, which is
  /// why this remains a bench/test knob, not a serving-path resize.
  static void SetGlobalThreads(size_t num_threads);

  /// Pools parked by SetGlobalThreads and still alive (test visibility).
  static size_t RetiredGlobalPools();

 private:
  struct Job;

  void WorkerLoop();
  static void RunChunks(Job* job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::shared_ptr<Job> job_;  // guarded by mu_
  uint64_t epoch_ = 0;        // guarded by mu_; bumps once per ParallelFor
  bool stop_ = false;         // guarded by mu_
};

}  // namespace humo
