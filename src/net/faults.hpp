// FaultPlan — scheduled, replayable failures in virtual time.
//
// A plan is a list of windows over the event-sequenced clock (DESIGN.md
// §13): a directed link can be down (partition) or flapping, its drop
// probability can be overridden, and a node can crash and later restart.
// Window membership is a pure function of virtual time, so a scenario
// replays bit-for-bit from the same seed — deterministic faults (down,
// flap, crash) consume no PRNG draws at all, and probabilistic overrides
// draw from the per-link streams SimNetwork already owns.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace rafda::net {

using NodeId = std::int32_t;

enum class FaultKind {
    /// Directed link delivers nothing inside the window.
    LinkDown,
    /// Directed link alternates down/up in `period_us` slices, starting
    /// down at `from_us`.
    LinkFlap,
    /// Directed link's drop probability is `drop_probability` inside the
    /// window (overrides the LinkParams setting).
    DropRate,
    /// Node is crashed inside the window: calls to it (and from it) fail
    /// fast.  When the window ends the node restarts; what survives
    /// depends on the durability policy — by default the node loses its
    /// soft state (reply cache; heap and singletons are modelled as
    /// durable — see DESIGN.md §15), while `durable on` replays the
    /// node's WAL + snapshot so reply cache and heap both come back
    /// (DESIGN.md §20).
    NodeCrash,
};

/// One scheduled fault. Windows are half-open: active for
/// `from_us <= t < until_us`.
struct FaultWindow {
    FaultKind kind = FaultKind::LinkDown;
    std::uint64_t from_us = 0;
    std::uint64_t until_us = 0;
    /// Directed link for LinkDown/LinkFlap/DropRate.
    NodeId src = -1;
    NodeId dst = -1;
    /// Crashed node for NodeCrash.
    NodeId node = -1;
    /// Override probability for DropRate.
    double drop_probability = 0.0;
    /// Flap half-period: the link is down for `period_us`, up for
    /// `period_us`, down again, … (0 behaves like LinkDown).
    std::uint64_t period_us = 0;
};

class FaultPlan {
public:
    void add(FaultWindow window) { windows_.push_back(window); }
    void clear() { windows_.clear(); }
    bool empty() const noexcept { return windows_.empty(); }
    std::size_t size() const noexcept { return windows_.size(); }

    /// True when the directed link is unusable at `t` (inside a LinkDown
    /// window, or inside the down phase of a LinkFlap window).
    bool link_down(NodeId src, NodeId dst, std::uint64_t t) const;

    /// Drop-probability override active on the directed link at `t`, if
    /// any. When several DropRate windows overlap, the last-added wins.
    std::optional<double> drop_override(NodeId src, NodeId dst,
                                        std::uint64_t t) const;

    /// True when `node` is inside a NodeCrash window at `t`.
    bool node_down(NodeId node, std::uint64_t t) const;

    /// Number of NodeCrash windows for `node` that have *ended* at or
    /// before `t` — i.e. how many restarts the node has been through.
    /// Monotone in `t`, so a node detects "I restarted since I last
    /// looked" by comparing against the count it remembers
    /// (Node::apply_restarts, DESIGN.md §20).
    std::uint64_t restarts_before(NodeId node, std::uint64_t t) const;

    /// Windows in insertion order, for tables and exports.
    void visit(const std::function<void(const FaultWindow&)>& fn) const;

private:
    std::vector<FaultWindow> windows_;
};

/// Human-readable name of a fault kind ("down", "flap", "drop", "crash").
const char* fault_kind_name(FaultKind kind);

}  // namespace rafda::net
