#include "obs/journal.hpp"

#include <sstream>

#include "obs/export.hpp"

namespace rafda::obs {

const char* journal_kind_name(JournalEvent::Kind kind) {
    switch (kind) {
        case JournalEvent::Kind::RpcSend: return "send";
        case JournalEvent::Kind::RpcArrive: return "arrive";
        case JournalEvent::Kind::RpcDispatch: return "dispatch";
        case JournalEvent::Kind::RpcReply: return "reply";
        case JournalEvent::Kind::RpcDrop: return "drop";
        case JournalEvent::Kind::RpcRetry: return "retry";
        case JournalEvent::Kind::RpcTimeout: return "timeout";
        case JournalEvent::Kind::DedupHit: return "dedup";
        case JournalEvent::Kind::Breaker: return "breaker";
        case JournalEvent::Kind::FaultEdge: return "fault";
        case JournalEvent::Kind::Migrate: return "migrate";
        case JournalEvent::Kind::Adapt: return "adapt";
        case JournalEvent::Kind::Recover: return "recover";
    }
    return "?";
}

void Journal::set_enabled(bool on) {
    enabled_ = on;
    if (enabled_ && ring_.size() != capacity_) ring_.resize(capacity_);
}

void Journal::set_capacity(std::size_t n) {
    capacity_ = n ? n : 1;
    ring_.clear();
    if (enabled_) ring_.resize(capacity_);
    head_ = size_ = 0;
    total_ = 0;
}

void Journal::append(JournalEvent::Kind kind, std::uint64_t t_us, std::int32_t node,
                     std::int32_t peer, std::uint64_t a, std::uint64_t b,
                     std::string_view detail) {
    JournalEvent& slot = ring_[head_];
    slot.kind = kind;
    slot.seq = next_seq_++;
    slot.t_us = t_us;
    slot.node = node;
    slot.peer = peer;
    slot.a = a;
    slot.b = b;
    // Bound per-slot memory: a slot's string capacity persists for the
    // ring's lifetime (reuse pool), so an unbounded detail would pin
    // arbitrary heap per slot at scale.  kMaxDetail covers every emitter's
    // legitimate payload (protocol names, methods, "request"/"reply").
    slot.detail.assign(detail.substr(0, kMaxDetail));
    if (detail.size() > kMaxDetail) slot.detail += "...";
    if (slot.detail.capacity() > kMaxDetail + 16) slot.detail.shrink_to_fit();
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) ++size_;
    ++total_;
}

void Journal::rebase(std::uint64_t epoch_us) {
    // Slots keep their string capacity (the ring is a reuse pool, not an
    // allocation source); only the logical contents are dropped.
    head_ = size_ = 0;
    total_ = 0;
    epoch_us_ = epoch_us;
}

void Journal::visit(const std::function<void(const JournalEvent&)>& fn) const {
    if (!size_) return;
    const std::size_t first = (head_ + capacity_ - size_) % capacity_;
    for (std::size_t k = 0; k < size_; ++k) fn(ring_[(first + k) % capacity_]);
}

std::string Journal::to_json() const {
    std::ostringstream os;
    os << "{\"epoch_us\":" << epoch_us_ << ",\"capacity\":" << capacity_
       << ",\"total\":" << total_ << ",\"overwritten\":" << overwritten()
       << ",\"events\":[";
    bool first = true;
    visit([&](const JournalEvent& e) {
        if (!first) os << ",";
        first = false;
        os << "{\"seq\":" << e.seq << ",\"t_us\":" << e.t_us << ",\"kind\":\""
           << journal_kind_name(e.kind) << "\",\"node\":" << e.node
           << ",\"peer\":" << e.peer << ",\"a\":" << e.a << ",\"b\":" << e.b;
        if (!e.detail.empty()) os << ",\"detail\":\"" << json_escape(e.detail) << "\"";
        os << "}";
    });
    os << "]}";
    return os.str();
}

}  // namespace rafda::obs
