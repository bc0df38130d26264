#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace rafda::support {

constexpr std::size_t kChunksPerThread = 32;

std::size_t ThreadPool::hardware_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) : threads_(std::max<std::size_t>(1, threads)) {
    workers_.reserve(threads_ - 1);
    for (std::size_t i = 1; i < threads_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lk(job_mu_);
        stop_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
    bool inline_run = threads_ == 1 || n <= 1;
    if (!inline_run) {
        std::lock_guard<std::mutex> lk(job_mu_);
        inline_run = in_job_;  // re-entrant call: run inline
        if (!inline_run) {
            in_job_ = true;
            job_error_ = nullptr;
            job_fn_ = &fn;
            job_n_ = n;
            chunk_ = std::max<std::size_t>(1, n / (kChunksPerThread * threads_));
            next_.store(0, std::memory_order_relaxed);
            active_workers_ = threads_ - 1;
            ++epoch_;
        }
    }
    if (inline_run) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        items_executed_.fetch_add(n, std::memory_order_relaxed);
        return;
    }
    job_cv_.notify_all();

    work();  // the caller participates too

    std::unique_lock<std::mutex> lk(job_mu_);
    done_cv_.wait(lk, [&] { return active_workers_ == 0; });
    job_fn_ = nullptr;
    in_job_ = false;
    if (std::exception_ptr err = std::exchange(job_error_, nullptr)) std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
    std::uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lk(job_mu_);
    for (;;) {
        job_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        lk.unlock();
        work();
        lk.lock();
        if (--active_workers_ == 0) done_cv_.notify_one();
    }
}

/// Claims chunks until the shared index passes n.  The index only hands
/// out disjoint ranges; the job is published (and joined) under job_mu_.
void ThreadPool::work() {
    const std::size_t n = job_n_;
    std::uint64_t done = 0;
    for (;;) {
        const std::size_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
        if (begin >= n) break;
        const std::size_t end = std::min(n, begin + chunk_);
        try {
            for (std::size_t i = begin; i < end; ++i, ++done) (*job_fn_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lk(job_mu_);
            if (!job_error_) job_error_ = std::current_exception();
            next_.store(n, std::memory_order_relaxed);  // abandon unclaimed chunks
            break;
        }
    }
    items_executed_.fetch_add(done, std::memory_order_relaxed);
}

}  // namespace rafda::support
