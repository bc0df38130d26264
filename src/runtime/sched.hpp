// EventHeap — the single event-heap scheduler at the core of the
// million-client scale-out model (DESIGN.md §18).
//
// Every unit of pending work in a large workload — a client ready to
// issue its next invocation, an adaptation heartbeat — is one small POD
// event in a global priority queue ordered by (virtual time, tie-break
// sequence).  Work that needs no continuation, such as a transfer the
// network has already sequenced, never enters the heap: it is folded
// straight into the order digest (fold()).  Client tasks are resumable steps:
// a client holds *no* host stack while pending, only its event, so 10⁵–10⁶
// simulated clients cost O(bytes per pending event) rather than O(stack
// per client).
//
// Determinism is structural: `post()` assigns a strictly increasing
// sequence number, so two events at the same virtual timestamp pop in
// post order — a total order that depends only on the (deterministic)
// execution history, never on heap internals or host iteration order.
// The popped stream is folded into an FNV-1a digest so "same seed ⇒ same
// event order" is a one-word comparison in tests and bench summaries.
//
// The heap is only a queue: it orders, counts and digests events, and the
// loop that pops them decides what each kind means (WorkloadDriver::run
// has two, a client step and the adaptation heartbeat).
#pragma once

#include <cstdint>
#include <vector>

namespace rafda::runtime {

/// One pending event.  `kind` tells the popping loop what to run (the heap
/// only orders and digests it); `a`/`b` are opaque continuation state
/// (typically a client index and a step argument) — the whole struct is
/// the per-pending-client footprint.
struct Event {
    std::uint64_t at_us = 0;
    std::uint64_t seq = 0;  // assigned by post(); total-order tie-break
    std::int32_t node = 0;
    std::uint32_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

class EventHeap {
public:
    /// Returns kind 0 and drops `fn`: the heap stores no handler, the loop
    /// that pops an event runs it.  Kept only because perfbench's heap
    /// replay still names its one kind this way (ROADMAP item 12).
    template <typename Fn>
    std::uint32_t register_handler(Fn&&) const noexcept { return 0; }

    /// Schedules an event; returns its sequence number.  Events posted at
    /// equal `at_us` pop in post order (deterministic tie-break).
    std::uint64_t post(std::uint64_t at_us, std::int32_t node, std::uint32_t kind,
                       std::uint64_t a = 0, std::uint64_t b = 0);

    bool empty() const noexcept { return heap_.empty(); }
    std::size_t pending() const noexcept { return heap_.size(); }
    /// High-water mark of pending events — the bounded-memory claim of the
    /// scale model is `peak_pending * sizeof(Event)`, not clients × stack.
    std::size_t peak_pending() const noexcept { return peak_pending_; }
    std::uint64_t posted() const noexcept { return posted_; }
    std::uint64_t dispatched() const noexcept { return dispatched_; }

    /// Virtual time of the most recently popped event (0 before any pop).
    std::uint64_t last_popped_at() const noexcept { return last_at_; }

    /// FNV-1a over the popped (at_us, seq, kind) stream and every folded
    /// word, in the order they happened: two runs dispatch the same events
    /// and fold the same words in the same order iff the digests match.
    std::uint64_t order_digest() const noexcept { return digest_; }

    /// Folds one externally sequenced word into the order digest without
    /// posting an event — how a stream that needs no dispatch (network
    /// completions) is still witnessed by the digest.
    void fold(std::uint64_t word) noexcept;

    /// Removes and returns the minimum (at_us, seq) event, counted as
    /// dispatched.  The caller runs it; events it posts meanwhile merge
    /// into the same order.
    Event pop();

private:
    static bool later(const Event& x, const Event& y) noexcept {
        return x.at_us != y.at_us ? x.at_us > y.at_us : x.seq > y.seq;
    }
    void fold_digest(const Event& e) noexcept;

    std::vector<Event> heap_;  // binary min-heap via std::push/pop_heap
    std::uint64_t next_seq_ = 0;
    std::uint64_t posted_ = 0;
    std::uint64_t dispatched_ = 0;
    std::size_t peak_pending_ = 0;
    std::uint64_t last_at_ = 0;
    std::uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

}  // namespace rafda::runtime
