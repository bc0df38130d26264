#include "runtime/sched.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rafda::runtime {

std::uint64_t EventHeap::post(std::uint64_t at_us, std::int32_t node,
                              std::uint32_t kind, std::uint64_t a, std::uint64_t b) {
    Event e;
    e.at_us = at_us;
    e.seq = next_seq_++;
    e.node = node;
    e.kind = kind;
    e.a = a;
    e.b = b;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++posted_;
    if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
    return e.seq;
}

void EventHeap::fold(std::uint64_t word) noexcept {
    for (int k = 0; k < 8; ++k) {
        digest_ ^= (word >> (8 * k)) & 0xff;
        digest_ *= 1099511628211ULL;  // FNV-1a prime
    }
}

void EventHeap::fold_digest(const Event& e) noexcept {
    fold(e.at_us);
    fold(e.seq);
    fold(e.kind);
}

Event EventHeap::pop() {
    if (heap_.empty()) throw RuntimeError("EventHeap::pop on an empty heap");
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event e = heap_.back();
    heap_.pop_back();
    ++dispatched_;
    last_at_ = e.at_us;
    fold_digest(e);
    return e;
}

}  // namespace rafda::runtime
