// EventHeap — ordering, tie-breaks, digest determinism and the
// bounded-memory accounting the scale model (DESIGN.md §18) leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/sched.hpp"

namespace rafda::runtime {
namespace {

TEST(EventHeap, PopsInVirtualTimeOrder) {
    EventHeap heap;
    std::vector<std::uint64_t> popped;
    const std::uint32_t kind = heap.register_handler(
        [&popped](const Event& e) { popped.push_back(e.at_us); });
    heap.post(500, 0, kind);
    heap.post(10, 0, kind);
    heap.post(10'000, 0, kind);
    heap.post(0, 0, kind);
    heap.post(499, 0, kind);
    heap.run();
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
    std::vector<std::uint64_t> popped;
    const std::uint32_t kind =
        heap.register_handler([&popped](const Event& e) { popped.push_back(e.a); });
    for (std::uint64_t k = 0; k < 64; ++k) heap.post(7'777, 0, kind, /*a=*/k);
    heap.run();
    ASSERT_EQ(popped.size(), 64u);
    for (std::uint64_t k = 0; k < 64; ++k) EXPECT_EQ(popped[k], k) << k;
}

TEST(EventHeap, TieBreakSurvivesInterleavedEarlierEvents) {
    // Posting an *earlier* event between two equal-timestamp posts must
    // not disturb the tie order of the equal pair.
    EventHeap heap;
    std::vector<std::uint64_t> popped;
    const std::uint32_t kind =
        heap.register_handler([&popped](const Event& e) { popped.push_back(e.a); });
    heap.post(100, 0, kind, 1);
    heap.post(50, 0, kind, 99);
    heap.post(100, 0, kind, 2);
    heap.run();
    EXPECT_EQ(popped, (std::vector<std::uint64_t>{99, 1, 2}));
}

TEST(EventHeap, OrderDigestIsDeterministicAndOrderSensitive) {
    auto digest_of = [](bool flip) {
        EventHeap heap;
        const std::uint32_t ka = heap.register_handler([](const Event&) {});
        const std::uint32_t kb = heap.register_handler([](const Event&) {});
        // Same multiset of timestamps either way; `flip` swaps which kind
        // dispatches first at t=30, which the (at_us, seq, kind) digest
        // must detect.
        heap.post(30, 0, flip ? kb : ka);
        heap.post(10, 1, ka);
        heap.post(30, 0, flip ? ka : kb);
        heap.post(20, 2, ka);
        heap.run();
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
        const std::uint32_t k = heap.register_handler([](const Event&) {});
        heap.post(10, 0, k);
        if (fold_first) heap.fold(7);
        heap.run();
        if (!fold_first) heap.fold(7);
        EXPECT_EQ(heap.posted(), 1u);
        EXPECT_EQ(heap.dispatched(), 1u);
        EXPECT_EQ(heap.peak_pending(), 1u);
        return heap.order_digest();
    };
    EventHeap plain;
    plain.post(10, 0, plain.register_handler([](const Event&) {}));
    plain.run();
    EXPECT_NE(digest_of(true), plain.order_digest());
    EXPECT_EQ(digest_of(true), digest_of(true));
    EXPECT_NE(digest_of(true), digest_of(false));
}

TEST(EventHeap, HandlersRepostIntoTheSameOrder) {
    // A handler posting follow-up work models a resumable client step: the
    // new event merges into the global order by (at_us, seq).
    EventHeap heap;
    std::vector<std::uint64_t> popped;
    std::uint32_t kind = 0;
    kind = heap.register_handler([&](const Event& e) {
        popped.push_back(e.at_us);
        if (e.b) heap.post(e.at_us + 10, e.node, kind, e.a, e.b - 1);
    });
    heap.post(0, 0, kind, 0, /*remaining=*/3);
    heap.post(15, 1, kind, 1, 0);
    heap.run();
    // Client 0 steps at 0/10/20/30; the one-shot at 15 lands between.
    EXPECT_EQ(popped, (std::vector<std::uint64_t>{0, 10, 15, 20, 30}));
    EXPECT_EQ(heap.posted(), 5u);
    EXPECT_EQ(heap.dispatched(), 5u);
}

TEST(EventHeap, PeakPendingTracksTheHighWaterMark) {
    EventHeap heap;
    const std::uint32_t kind = heap.register_handler([](const Event&) {});
    for (int k = 0; k < 100; ++k) heap.post(static_cast<std::uint64_t>(k), 0, kind);
    EXPECT_EQ(heap.pending(), 100u);
    EXPECT_EQ(heap.peak_pending(), 100u);
    heap.run();
    EXPECT_EQ(heap.pending(), 0u);
    // The mark is a high-water mark: draining must not lower it.
    EXPECT_EQ(heap.peak_pending(), 100u);
}

TEST(EventHeap, DispatchRoutesByKind) {
    EventHeap heap;
    int a_hits = 0, b_hits = 0;
    const std::uint32_t ka = heap.register_handler([&](const Event&) { ++a_hits; });
    const std::uint32_t kb = heap.register_handler([&](const Event&) { ++b_hits; });
    ASSERT_NE(ka, kb);
    heap.post(1, 0, ka);
    heap.post(2, 0, kb);
    heap.post(3, 0, ka);
    heap.run();
    EXPECT_EQ(a_hits, 2);
    EXPECT_EQ(b_hits, 1);
}

}  // namespace
}  // namespace rafda::runtime
