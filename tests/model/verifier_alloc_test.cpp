// Allocation guard for the verifier's success path.
//
// verify_pool runs on every transformation pipeline, and on a clean pool
// it builds no problem strings, no descriptor strings and no visited sets:
// its graph walks and stack pass reuse per-thread buffers.  This binary
// replaces the global operator new with a counting one and checks that,
// once those buffers have grown, verifying a clean pool allocates the same
// small number of times whatever its size — serial and on two threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <new>

#include "corpus/jdk_corpus.hpp"
#include "model/verifier.hpp"
#include "support/thread_pool.hpp"
#include "transform/pipeline.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rafda::model {
namespace {

/// The transformed (and verified) output of a `types`-type JDK-like corpus.
ClassPool transformed_corpus(std::size_t types) {
    corpus::JdkCorpusParams params;
    params.total_types = types;
    params.packages = 8;
    params.seed = 7;
    transform::PipelineOptions options;
    options.threads = 1;
    return transform::run_pipeline(corpus::generate_jdk_corpus(params), options).pool;
}

/// Allocations made by one verify_pool call, after a warm-up in which
/// every participant of `threads` verifies the whole pool once: each call
/// holds its thread at a latch until all have arrived, so no participant
/// can take two indices and every one grows its own scratch.
std::uint64_t verify_allocations(const ClassPool& pool, support::ThreadPool* threads) {
    if (threads) {
        const std::size_t participants = threads->thread_count();
        std::latch all_warm(static_cast<std::ptrdiff_t>(participants));
        threads->for_each_index(participants, [&](std::size_t) {
            verify_pool(pool, nullptr);
            all_warm.arrive_and_wait();
        });
    } else {
        verify_pool(pool, nullptr);
    }
    const std::uint64_t before = g_allocations.load();
    verify_pool(pool, threads);
    return g_allocations.load() - before;
}

TEST(VerifierAlloc, CleanPoolAllocatesAConstantIndependentOfSize) {
    const ClassPool small = transformed_corpus(300);
    const ClassPool large = transformed_corpus(1200);
    ASSERT_GT(large.size(), 3 * small.size());

    // Serial: the class list of ClassPool::all() and nothing per class.
    const std::uint64_t serial_small = verify_allocations(small, nullptr);
    EXPECT_EQ(verify_allocations(large, nullptr), serial_small);
    EXPECT_LE(serial_small, 1u);

    // Two threads: the class list, the per-class result slots and the
    // task wrapper, again nothing per class.
    support::ThreadPool workers(2);
    const std::uint64_t parallel_small = verify_allocations(small, &workers);
    EXPECT_EQ(verify_allocations(large, &workers), parallel_small);
    EXPECT_LE(parallel_small, 3u);
}

}  // namespace
}  // namespace rafda::model
