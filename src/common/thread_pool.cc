#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/env.h"

namespace humo {
namespace {

/// True while the current thread executes a ParallelFor body; nested loops
/// then run inline instead of re-entering the pool.
thread_local bool t_in_parallel_body = false;

}  // namespace

struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  for (size_t t = 1; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && epoch_ != seen_epoch);
      });
      if (stop_) return;
      job = job_;
      seen_epoch = epoch_;
    }
    RunChunks(job.get());
  }
}

void ThreadPool::RunChunks(Job* job) {
  t_in_parallel_body = true;
  for (;;) {
    const size_t c = job->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->num_chunks) break;
    const size_t begin = c * job->grain;
    const size_t end = std::min(job->n, begin + job->grain);
    (*job->body)(begin, end);
    job->done_chunks.fetch_add(1, std::memory_order_acq_rel);
  }
  t_in_parallel_body = false;
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (workers_.empty() || n <= grain || t_in_parallel_body) {
    body(0, n);
    return;
  }
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->n = n;
  job->grain = grain;
  job->num_chunks = (n + grain - 1) / grain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++epoch_;
  }
  work_cv_.notify_all();
  RunChunks(job.get());
  // Every chunk was claimed; wait for claimed-but-unfinished ones. A worker
  // that claimed a chunk cannot finish it without bumping done_chunks, so
  // `body` (which lives on this frame) is never dereferenced after return;
  // stragglers holding the shared Job only read its atomics before exiting.
  while (job->done_chunks.load(std::memory_order_acquire) < job->num_chunks) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = nullptr;
  }
}

size_t ThreadPool::DefaultThreadCount() {
  const int64_t env = GetEnvInt64("HUMO_NUM_THREADS", 0);
  if (env > 0) return std::min(static_cast<size_t>(env), kMaxDefaultThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(static_cast<size_t>(hw), kMaxDefaultThreads);
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
/// Pools displaced by SetGlobalThreads. Destroying the outgoing pool in
/// place was the documented-unsafe hazard: a racing thread that fetched
/// Global() just before the swap would run ParallelFor on a pool whose
/// workers were being joined and whose storage was being freed. Parking the
/// old pool here keeps every previously handed-out pointer valid for the
/// life of the process — stragglers simply run on the retired pool's thread
/// count. Retired workers sit idle in their condition wait; the list only
/// grows by explicit SetGlobalThreads calls (benches and tests), so the
/// leak is bounded and deliberate.
std::vector<std::unique_ptr<ThreadPool>> g_retired_pools;
}  // namespace

ThreadPool* ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return g_pool.get();
}

void ThreadPool::SetGlobalThreads(size_t num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool) g_retired_pools.push_back(std::move(g_pool));
  g_pool = std::make_unique<ThreadPool>(num_threads);
}

size_t ThreadPool::RetiredGlobalPools() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return g_retired_pools.size();
}

}  // namespace humo
