#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rafda::support {
namespace {

// Every index is executed exactly once, whatever the thread count.
void check_all_indices_once(std::size_t threads, std::size_t n) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(n);
    pool.for_each_index(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    EXPECT_EQ(pool.items_executed(), n);
}

TEST(ThreadPool, CoversAllIndicesExactlyOnce) {
    for (std::size_t threads : {1u, 2u, 8u}) {
        check_all_indices_once(threads, 0);
        check_all_indices_once(threads, 1);
        check_all_indices_once(threads, 7);     // fewer than 8 workers
        check_all_indices_once(threads, 1000);  // many chunks per participant
    }
}

TEST(ThreadPool, ZeroRequestClampsToOne) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), 1u);
    std::atomic<std::size_t> sum{0};
    pool.for_each_index(10, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, ReusableAcrossJobs) {
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> count{0};
        pool.for_each_index(64, [&](std::size_t) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 64u);
    }
    EXPECT_EQ(pool.items_executed(), 20u * 64u);
}

TEST(ThreadPool, PropagatesFirstExceptionAndCancels) {
    ThreadPool pool(4);
    std::atomic<std::size_t> executed{0};
    EXPECT_THROW(
        pool.for_each_index(1000,
                            [&](std::size_t i) {
                                if (i == 3) throw std::runtime_error("boom");
                                executed.fetch_add(1);
                            }),
        std::runtime_error);
    // Cancellation is advisory; what matters is that the pool survives and
    // the next job runs cleanly.
    std::atomic<std::size_t> count{0};
    pool.for_each_index(16, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 16u);
}

TEST(ThreadPool, NestedForEachRunsInline) {
    // A worker that re-enters for_each_index must not deadlock waiting for
    // the (busy) pool; the nested call degrades to inline execution.
    ThreadPool pool(2);
    std::atomic<std::size_t> inner_total{0};
    pool.for_each_index(4, [&](std::size_t) {
        pool.for_each_index(8, [&](std::size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 4u * 8u);
}

TEST(ThreadPool, CompletesUnderOneSlowIndex) {
    // One index is much slower than the rest; the other participants keep
    // claiming chunks around it and every index still runs.
    ThreadPool pool(4);
    if (ThreadPool::hardware_threads() < 2) GTEST_SKIP() << "single core";
    std::atomic<std::size_t> count{0};
    pool.for_each_index(400, [&](std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 400u);
    EXPECT_EQ(pool.items_executed(), 400u);
}

TEST(ThreadPool, BackToBackJobsRunEveryIndexOnce) {
    // Jobs follow each other with no pause, so workers still finishing one
    // epoch race the publication of the next: every index of every job
    // must run exactly once, and a throwing job must not leak into the
    // job after it.
    for (std::size_t threads : {2u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(64);
        const std::size_t sizes[] = {0, 1, 2, 7, 64};
        std::uint64_t expected = 0;
        for (std::size_t job = 0; job < 5000; ++job) {
            const std::size_t n = sizes[job % 5];
            for (std::size_t i = 0; i < n; ++i) hits[i].store(0);
            pool.for_each_index(n, [&](std::size_t i) { hits[i].fetch_add(1); });
            expected += n;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1) << "job " << job << " index " << i << " with "
                                             << threads << " threads";
        }
        EXPECT_EQ(pool.items_executed(), expected);

        EXPECT_THROW(pool.for_each_index(64,
                                         [&](std::size_t i) {
                                             if (i == 5) throw std::runtime_error("boom");
                                         }),
                     std::runtime_error);
        for (std::size_t i = 0; i < 64; ++i) hits[i].store(0);
        pool.for_each_index(64, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, SingleThreadRunsCallerOnly) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.thread_count(), 1u);
    std::thread::id caller = std::this_thread::get_id();
    pool.for_each_index(32, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
    EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace rafda::support
