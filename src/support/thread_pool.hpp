// Shared-index thread pool for the static (transformation) side: a phase
// owns N independent, similarly-shaped items (analyse a class, generate a
// family, verify a class) and spreads them across cores with no ordering
// promises — determinism is the *merger's* job, never the scheduler's.
//
// for_each_index(n, fn) publishes one atomic next-index per job.  The
// calling thread and every worker claim contiguous chunks of
// max(1, n / (32 × thread_count())) indices from it until it passes n.
// 32 chunks per participant keep the idle tail (one thread finishing its
// last chunk while the rest wait) short; a claim is one fetch_add — no
// per-participant state, no lock per chunk.
//
//   - fn(i) runs exactly once for every i in [0, n), unless a call
//     throws: the first exception is stored, the index jumps to n so
//     unclaimed chunks are abandoned, and the caller rethrows it.
//   - Re-entrant calls (fn calling for_each_index on the same pool),
//     n <= 1 and one-thread pools run inline on the calling thread; a
//     one-thread pool spawns no threads, so RAFDA_TRANSFORM_THREADS=1
//     really is the serial program.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rafda::support {

class ThreadPool {
public:
    /// `threads` counts the calling thread: ThreadPool(4) = caller + 3
    /// workers.  0 is clamped to 1.
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t thread_count() const noexcept { return threads_; }

    /// Runs fn(0..n-1) across the pool; blocks until every item ran (or
    /// one threw).  The callable must be safe to invoke concurrently for
    /// distinct indices.
    void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// Total items executed over the pool's lifetime (transform.pool.tasks).
    std::uint64_t items_executed() const noexcept {
        return items_executed_.load(std::memory_order_relaxed);
    }

    /// std::thread::hardware_concurrency with a floor of 1.
    static std::size_t hardware_threads();

private:
    void worker_loop();
    void work();

    const std::size_t threads_;
    std::vector<std::thread> workers_;

    // The job: written under job_mu_ before the epoch bump, read-only
    // while the job runs.
    std::mutex job_mu_;
    std::condition_variable job_cv_;   // workers wait for a new epoch
    std::condition_variable done_cv_;  // caller waits for workers to finish
    std::uint64_t epoch_ = 0;
    std::size_t active_workers_ = 0;
    const std::function<void(std::size_t)>* job_fn_ = nullptr;
    std::size_t job_n_ = 0;
    std::size_t chunk_ = 1;
    std::exception_ptr job_error_;
    bool in_job_ = false;  // re-entrancy guard
    bool stop_ = false;

    std::atomic<std::size_t> next_{0};  // first unclaimed index
    std::atomic<std::uint64_t> items_executed_{0};
};

}  // namespace rafda::support
