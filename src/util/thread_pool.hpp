#pragma once

// Shared worker pool for the analytics engine (see DESIGN.md §10).
//
// Every parallel analysis in this codebase must produce byte-identical
// results at any thread count, so the pool's parallel-for is *blocked*:
// [0, n) is split into fixed chunks whose boundaries depend only on n and
// the caller's grain — never on how many threads happen to execute them.
// Workers race for chunk indices, but a caller that needs a reduction
// stores per-chunk partials and merges them in ascending chunk order
// (parallel_reduce below), which makes the combined result independent of
// scheduling. Thread count then only changes wall-clock time, never a bit
// of output — the property the determinism test suite pins down.
//
// Sizing: an explicit count, or ThreadPool::default_thread_count() which
// honours OMPTUNE_ANALYSIS_THREADS and falls back to hardware_concurrency
// (the CLI's --analysis-threads flag feeds the same constructor).
//
// Nesting: a parallel_for issued from inside a pool worker runs its chunks
// inline on that worker, in order. Outer parallelism (e.g. the per-arch
// model comparison) therefore composes with inner parallelism (the
// logistic solver's epoch tiles) without deadlock; whichever level reaches
// the pool first gets the threads.
//
// Exceptions: the first exception thrown by a chunk is captured, the
// remaining chunks of that loop are abandoned, and the exception is
// rethrown on the calling thread once every in-flight chunk has retired.
// The pool itself stays fully usable afterwards (tested).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace omptune::util {

class ThreadPool {
 public:
  /// A pool executing on `threads` lanes in total, the calling thread
  /// included: ThreadPool(1) spawns no workers and runs everything inline,
  /// ThreadPool(8) spawns 7 workers. 0 means default_thread_count().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  unsigned threads() const { return lanes_; }

  /// OMPTUNE_ANALYSIS_THREADS when set to a positive integer, otherwise
  /// hardware_concurrency (at least 1).
  static unsigned default_thread_count();

  /// Fixed chunk decomposition of [0, n) at the given grain: every chunk
  /// spans `grain` items except a shorter final one. Pure function of
  /// (n, grain) — the determinism contract hangs on this.
  static std::size_t chunk_count(std::size_t n, std::size_t grain);

  /// Run `body(begin, end, chunk)` for every chunk of [0, n). Chunks run
  /// concurrently on the pool (the caller participates); a body called from
  /// inside another parallel_for of this pool runs inline. Blocks until all
  /// chunks retired; rethrows the first chunk exception.
  void parallel_for(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body) const;

 private:
  struct Job {
    std::size_t n = 0;
    std::size_t grain = 0;
    std::size_t chunks = 0;
    const std::function<void(std::size_t, std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<bool> failed{false};   ///< sticky: abandon remaining chunks
    std::size_t retired = 0;           ///< chunks retired, pool mutex
    unsigned workers_inside = 0;       ///< workers executing, pool mutex
    std::exception_ptr error;          ///< first failure, pool mutex
  };

  void worker_loop();
  void run_chunks(Job& job) const;

 public:
  /// The chunk loop of parallel_for without a pool: same decomposition,
  /// ascending order, on the calling thread. The free parallel_for
  /// delegates here when given a null pool.
  static void run_inline(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:

  unsigned lanes_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  /// Idle workers spin briefly, then park on this futex word. A submission
  /// bumps the word and wakes exactly min(chunks - 1, workers) parked
  /// workers — never a broadcast, so a two-chunk job on a 64-lane pool
  /// disturbs one sleeper instead of sixty-three (the old notify_all
  /// thundering herd).
  mutable std::atomic<std::uint32_t> wake_word_{0};
  mutable std::condition_variable job_done_;     ///< the submitter waits here
  mutable Job* job_ = nullptr;                   ///< at most one active job
  bool stop_ = false;
};

/// Blocked parallel-for that degrades to the identical inline chunk loop
/// when no pool is supplied (or the pool is single-lane): `pool == nullptr`
/// and `pool->threads() == 16` execute the same chunks in the same
/// decomposition, so serial and parallel outputs can be compared bit for
/// bit.
void parallel_for(
    const ThreadPool* pool, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

/// Deterministic map-reduce over the fixed chunk decomposition: `body`
/// fills one State per chunk (concurrently), then `merge` folds the chunk
/// states into the first chunk's state in ascending chunk order (serially,
/// on the calling thread). The merge order — not the execution order — is
/// what the result depends on, so any thread count yields the same value.
template <typename State, typename Body, typename Merge>
State parallel_reduce(const ThreadPool* pool, std::size_t n, std::size_t grain,
                      Body&& body, Merge&& merge) {
  const std::size_t chunks = ThreadPool::chunk_count(n, grain);
  if (chunks == 0) return State{};
  std::vector<State> partials(chunks);
  parallel_for(pool, n, grain,
               [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                 body(partials[chunk], begin, end);
               });
  State result = std::move(partials[0]);
  for (std::size_t c = 1; c < chunks; ++c) {
    merge(result, std::move(partials[c]));
  }
  return result;
}

}  // namespace omptune::util
