#include "net/faults.hpp"

namespace rafda::net {

namespace {

bool in_window(const FaultWindow& w, std::uint64_t t) {
    return t >= w.from_us && t < w.until_us;
}

}  // namespace

bool FaultPlan::link_down(NodeId src, NodeId dst, std::uint64_t t) const {
    for (const FaultWindow& w : windows_) {
        if (w.src != src || w.dst != dst || !in_window(w, t)) continue;
        if (w.kind == FaultKind::LinkDown) return true;
        if (w.kind == FaultKind::LinkFlap) {
            if (w.period_us == 0) return true;
            // Alternating half-periods starting down: slices 0, 2, 4, …
            // are down. Pure arithmetic on virtual time — no PRNG draw —
            // so the flap schedule is identical on every replay.
            if (((t - w.from_us) / w.period_us) % 2 == 0) return true;
        }
    }
    return false;
}

std::optional<double> FaultPlan::drop_override(NodeId src, NodeId dst,
                                               std::uint64_t t) const {
    std::optional<double> result;
    for (const FaultWindow& w : windows_) {
        if (w.kind == FaultKind::DropRate && w.src == src && w.dst == dst &&
            in_window(w, t)) {
            result = w.drop_probability;
        }
    }
    return result;
}

bool FaultPlan::node_down(NodeId node, std::uint64_t t) const {
    for (const FaultWindow& w : windows_) {
        if (w.kind == FaultKind::NodeCrash && w.node == node && in_window(w, t)) {
            return true;
        }
    }
    return false;
}

std::uint64_t FaultPlan::restarts_before(NodeId node, std::uint64_t t) const {
    std::uint64_t restarts = 0;
    for (const FaultWindow& w : windows_) {
        if (w.kind == FaultKind::NodeCrash && w.node == node && w.until_us <= t) {
            ++restarts;
        }
    }
    return restarts;
}

void FaultPlan::visit(const std::function<void(const FaultWindow&)>& fn) const {
    for (const FaultWindow& w : windows_) fn(w);
}

const char* fault_kind_name(FaultKind kind) {
    switch (kind) {
        case FaultKind::LinkDown: return "down";
        case FaultKind::LinkFlap: return "flap";
        case FaultKind::DropRate: return "drop";
        case FaultKind::NodeCrash: return "crash";
    }
    return "?";
}

}  // namespace rafda::net
