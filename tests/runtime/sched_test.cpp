// EventHeap — ordering, tie-breaks, digest determinism and the
// bounded-memory accounting the scale model (DESIGN.md §18) leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/sched.hpp"

namespace rafda::runtime {
namespace {

/// Pops every event, in order, into `fn` — which may post more.
template <typename Fn>
void drain(EventHeap& heap, Fn&& fn) {
    while (!heap.empty()) fn(heap.pop());
}

/// Pops every event, in order, and returns its `a`.
std::vector<std::uint64_t> drain_a(EventHeap& heap) {
    std::vector<std::uint64_t> popped;
    drain(heap, [&popped](const Event& e) { popped.push_back(e.a); });
    return popped;
}

TEST(EventHeap, PopsInVirtualTimeOrder) {
    EventHeap heap;
    std::vector<std::uint64_t> popped;
    heap.post(500, 0, 0);
    heap.post(10, 0, 0);
    heap.post(10'000, 0, 0);
    heap.post(0, 0, 0);
    heap.post(499, 0, 0);
    drain(heap, [&popped](const Event& e) { popped.push_back(e.at_us); });
    EXPECT_EQ(popped, (std::vector<std::uint64_t>{0, 10, 499, 500, 10'000}));
    EXPECT_EQ(heap.dispatched(), 5u);
    EXPECT_EQ(heap.last_popped_at(), 10'000u);
    EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, EqualTimestampsPopInPostOrder) {
    // Regression: two events at the same virtual timestamp must dispatch
    // in the order they were posted — the tie-break is the post sequence,
    // never heap internals.  (A plain std::priority_queue of (at_us, ...)
    // would be free to swap them.)
    EventHeap heap;
    for (std::uint64_t k = 0; k < 64; ++k) heap.post(7'777, 0, 0, /*a=*/k);
    const std::vector<std::uint64_t> popped = drain_a(heap);
    ASSERT_EQ(popped.size(), 64u);
    for (std::uint64_t k = 0; k < 64; ++k) EXPECT_EQ(popped[k], k) << k;
}

TEST(EventHeap, TieBreakSurvivesInterleavedEarlierEvents) {
    // Posting an *earlier* event between two equal-timestamp posts must
    // not disturb the tie order of the equal pair.
    EventHeap heap;
    heap.post(100, 0, 0, 1);
    heap.post(50, 0, 0, 99);
    heap.post(100, 0, 0, 2);
    EXPECT_EQ(drain_a(heap), (std::vector<std::uint64_t>{99, 1, 2}));
}

TEST(EventHeap, OrderDigestIsDeterministicAndOrderSensitive) {
    auto digest_of = [](bool flip) {
        EventHeap heap;
        const std::uint32_t ka = 0;
        const std::uint32_t kb = 1;
        // Same multiset of timestamps either way; `flip` swaps which kind
        // dispatches first at t=30, which the (at_us, seq, kind) digest
        // must detect.
        heap.post(30, 0, flip ? kb : ka);
        heap.post(10, 1, ka);
        heap.post(30, 0, flip ? ka : kb);
        heap.post(20, 2, ka);
        drain_a(heap);
        return heap.order_digest();
    };
    EXPECT_EQ(digest_of(false), digest_of(false));  // same history, same word
    EXPECT_EQ(digest_of(true), digest_of(true));
    // The t=30 pair pops in post order, and seq numbers differ between the
    // two histories, so the digests must differ too.
    EXPECT_NE(digest_of(false), digest_of(true));
}

TEST(EventHeap, FoldedWordsJoinTheDigestWithoutEvents) {
    // fold() witnesses a stream that needs no dispatch: it changes the
    // digest in order with the popped events but posts nothing.
    auto digest_of = [](bool fold_first) {
        EventHeap heap;
        heap.post(10, 0, 0);
        if (fold_first) heap.fold(7);
        drain_a(heap);
        if (!fold_first) heap.fold(7);
        EXPECT_EQ(heap.posted(), 1u);
        EXPECT_EQ(heap.dispatched(), 1u);
        EXPECT_EQ(heap.peak_pending(), 1u);
        return heap.order_digest();
    };
    EventHeap plain;
    plain.post(10, 0, 0);
    drain_a(plain);
    EXPECT_NE(digest_of(true), plain.order_digest());
    EXPECT_EQ(digest_of(true), digest_of(true));
    EXPECT_NE(digest_of(true), digest_of(false));
}

TEST(EventHeap, HandlersRepostIntoTheSameOrder) {
    // Events posted while draining — what the code that runs a popped
    // event does to model a resumable client step — merge into the global
    // order by (at_us, seq).
    EventHeap heap;
    std::vector<std::uint64_t> popped;
    heap.post(0, 0, 0, 0, /*remaining=*/3);
    heap.post(15, 1, 0, 1, 0);
    drain(heap, [&](const Event& e) {
        popped.push_back(e.at_us);
        if (e.b) heap.post(e.at_us + 10, e.node, e.kind, e.a, e.b - 1);
    });
    // Client 0 steps at 0/10/20/30; the one-shot at 15 lands between.
    EXPECT_EQ(popped, (std::vector<std::uint64_t>{0, 10, 15, 20, 30}));
    EXPECT_EQ(heap.posted(), 5u);
    EXPECT_EQ(heap.dispatched(), 5u);
}

TEST(EventHeap, PeakPendingTracksTheHighWaterMark) {
    EventHeap heap;
    for (int k = 0; k < 100; ++k) heap.post(static_cast<std::uint64_t>(k), 0, 0);
    EXPECT_EQ(heap.pending(), 100u);
    EXPECT_EQ(heap.peak_pending(), 100u);
    drain_a(heap);
    EXPECT_EQ(heap.pending(), 0u);
    // The mark is a high-water mark: draining must not lower it.
    EXPECT_EQ(heap.peak_pending(), 100u);
}

}  // namespace
}  // namespace rafda::runtime
