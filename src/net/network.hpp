// SimNetwork — a deterministic in-process network between address spaces.
//
// The middleware runs all nodes in one OS process (each with its own VM and
// heap), so the "network" models cost and failure rather than moving bytes.
// Time is *event-sequenced*: a transfer is an event with an explicit send
// time (the sender's virtual clock) and a computed arrival time
//
//   depart  = max(send_time, link busy_until)
//   busy_until = depart + size/bandwidth
//   arrival = depart + size/bandwidth + latency
//
// Each directed link is a pipe: the channel is held only while a message's
// bytes serialize, and propagation overlaps whatever is sent next.
// Transfers sent while earlier bytes are still going out queue behind
// `busy_until`, so a multi-client workload contends for bandwidth
// (DESIGN.md §13).  Frames, batch entries and losses all follow this one
// rule.  The network keeps no clock of its own: each node's
// clock stamps its own work, and `now_us()` is only the network's horizon,
// the latest completion it has sequenced, for utilization denominators and
// reports.  Fault injection drops messages deterministically from a seeded
// PRNG, so experiments are exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "net/faults.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace rafda::net {

struct LinkParams {
    /// One-way propagation delay in microseconds.
    std::uint64_t latency_us = 100;
    /// Bytes per microsecond (e.g. 125 = 1 Gbit/s).
    double bandwidth_bytes_per_us = 125.0;
    /// Probability a transfer is lost.
    double drop_probability = 0.0;
};

struct LinkStats {
    /// Frames put on the wire (coalesced continuation entries excluded).
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops = 0;
    /// Entries appended to an open frame, one still serializing, instead
    /// of opening a new one (transfer_coalesced_at).
    std::uint64_t coalesced = 0;
    /// Total virtual time the channel spent serializing bytes, drops
    /// included (propagation does not occupy it).
    std::uint64_t busy_us = 0;
};

/// Outcome of one sequenced transfer.  `at_us` is the arrival time when
/// delivered, or the time the loss becomes observable when dropped — the
/// time it would have arrived, since a lost message was serialized onto
/// the channel all the same.
struct Delivery {
    bool delivered = false;
    std::uint64_t at_us = 0;
};

class SimNetwork {
public:
    explicit SimNetwork(std::uint64_t seed = 1);

    /// Default parameters for links without an explicit setting.
    void set_default_link(LinkParams params);
    /// Directed link override.
    void set_link(NodeId src, NodeId dst, LinkParams params);
    const LinkParams& link(NodeId src, NodeId dst) const;

    /// Sequences one transfer of `size` bytes sent at `send_us` on the
    /// sender's clock: the message departs when the channel frees up,
    /// holds it while its bytes serialize, and arrives one latency later;
    /// the horizon advances to the returned event time.  A sub-µs
    /// serialization remainder carries to a transfer sent back to back
    /// (before the channel frees up), so a burst of small frames is not
    /// free; one sent to an idle link starts from a zero remainder.
    /// Drops (fault injection) hold the channel the same way.
    Delivery transfer_at(NodeId src, NodeId dst, std::size_t size,
                         std::uint64_t send_us);

    /// transfer_at for a batch entry appended to an open frame (DESIGN.md
    /// §17): the same timing, fault evaluation and drop draws, but counted
    /// in LinkStats::coalesced instead of messages.  The caller decides
    /// the join (send_us < link_busy_until()).
    Delivery transfer_coalesced_at(NodeId src, NodeId dst, std::size_t size,
                                   std::uint64_t send_us);

    /// The network's horizon: the latest completion (arrival, or loss
    /// point) it has sequenced.  Utilization denominators and reports read
    /// it; no runtime decision does — a node's clock or the driver's event
    /// time is "now" for those (DESIGN.md §13).
    std::uint64_t now_us() const noexcept { return horizon_us_; }

    /// Time until which the directed link is occupied (0 = never used).
    std::uint64_t link_busy_until(NodeId src, NodeId dst) const;

    /// Accounting for one directed link; a link that has carried nothing
    /// since the last reset_stats() reads as all zeros.  Never creates
    /// state: querying an idle link does not make visit_links list it.
    const LinkStats& stats(NodeId src, NodeId dst) const;
    LinkStats total_stats() const;
    /// Traversal of the links that carried traffic since the last
    /// reset_stats(), in (src, dst) order, for tables and exports.
    void visit_links(
        const std::function<void(NodeId, NodeId, const LinkStats&)>& fn) const;
    /// Clears per-link stats and marks the current horizon as the new
    /// epoch for utilization_ppm, so post-reset utilization is busy time
    /// over time *since the reset* rather than since t=0.  Channel
    /// occupancy (`busy_until`) deliberately survives: it is physical
    /// link state, not accounting — an in-flight message does not vanish
    /// because an observer zeroed its dashboards.
    void reset_stats();

    /// Scheduled failures (link down/flap, drop overrides, node crashes)
    /// evaluated against each transfer's departure time.  Deterministic
    /// windows never draw from the PRNG; drop overrides draw from the
    /// same per-link stream as the link's configured drop probability.
    FaultPlan& fault_plan() noexcept { return fault_plan_; }
    const FaultPlan& fault_plan() const noexcept { return fault_plan_; }

    /// Mirrors per-link accounting into `registry` as counters named
    /// net.link.<src>.<dst>.{messages,bytes,drops,busy_us} plus a
    /// net.link.<src>.<dst>.utilization_ppm gauge (busy time as parts per
    /// million of elapsed virtual time).  Pass nullptr to detach.  The
    /// registry must outlive the network (or be detached).
    void attach_metrics(obs::Registry* registry);

    /// Flight recorder for link fault-window edges: each transfer
    /// evaluates the fault plan at its departure time, and the first
    /// evaluation that observes a link's down-state differing from the
    /// last observation records a FaultEdge event (a=1 entering a down
    /// window, a=0 leaving one).  Edges are therefore stamped with the
    /// virtual time the fault became *observable*, which is what a
    /// timeline reader wants — a window nobody sent into never happened.
    /// Pass nullptr to detach; the journal must outlive the network.
    void attach_journal(obs::Journal* journal) { journal_ = journal; }

    /// Horizon value at the last reset_stats(): the epoch the
    /// utilization_ppm denominators — and, via System::reset_stats(), the
    /// journal — measure from.
    std::uint64_t stats_epoch_us() const noexcept { return stats_epoch_us_; }

    /// Publishes each sequenced transfer's completion (arrival when
    /// delivered, loss-observable time when dropped) to an external event
    /// sink — how the scheduler's order digest sees network completions on
    /// the same timeline as client work (DESIGN.md §18).  Purely
    /// observational: called after the transfer is fully accounted, never
    /// advances clocks or draws from a PRNG.  Pass nullptr (the default)
    /// to detach; the sink must outlive its installation.
    using CompletionSink =
        std::function<void(NodeId src, NodeId dst, std::uint64_t at_us,
                           bool delivered)>;
    void set_completion_sink(CompletionSink sink) {
        completion_sink_ = std::move(sink);
    }

private:
    struct LinkMetrics {
        obs::Counter* messages = nullptr;
        obs::Counter* bytes = nullptr;
        obs::Counter* drops = nullptr;
        obs::Counter* coalesced = nullptr;
        obs::Counter* busy_us = nullptr;
        obs::Gauge* utilization_ppm = nullptr;
    };
    /// Everything the network knows about one directed link, so a
    /// transfer resolves its link with a single hash lookup (DESIGN.md
    /// §13).  Records are created on first use — by set_link or by a
    /// transfer — and never by a read.
    struct Link {
        explicit Link(Rng r) : rng(r) {}
        /// set_link override; the default link applies when absent.
        std::optional<LinkParams> params;
        /// Every transfer counts exactly one message, coalesced entry or
        /// drop, so a link carried traffic since the last reset_stats()
        /// iff carried() — what visit_links lists.
        LinkStats stats;
        bool carried() const noexcept {
            return stats.messages || stats.coalesced || stats.drops;
        }
        /// Time until which the channel is occupied (0 = never used).
        std::uint64_t busy_until = 0;
        /// Serialization remainder (exact minus charged µs, in [-0.5,
        /// 0.5)) of the last transfer, carried to a back-to-back one.
        double carry_us = 0.0;
        /// Last fault-plan down-state a transfer observed (journal edge
        /// detection only; a never-evaluated link counts as up, so the
        /// first observation of a down link records an entering edge).
        bool fault_down = false;
        /// Registry mirrors, resolved on the first transfer after
        /// attach_metrics (null until then).
        LinkMetrics metrics;
        /// The link's own drop stream, seeded from `seed_` and the link
        /// endpoints, so lossy traffic on one link can never perturb the
        /// sequence another link sees.
        Rng rng;
    };
    static std::uint64_t link_key(NodeId src, NodeId dst) noexcept {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
    }
    Link& link_record(NodeId src, NodeId dst);
    const Link* find_link(NodeId src, NodeId dst) const;
    LinkMetrics& link_metrics(NodeId src, NodeId dst, Link& l);
    Delivery sequence_transfer(NodeId src, NodeId dst, std::size_t size,
                               std::uint64_t send_us, bool entry);

    LinkParams default_link_;
    /// One record per directed link, keyed by link_key(src, dst).
    std::unordered_map<std::uint64_t, Link> links_;
    obs::Registry* registry_ = nullptr;
    obs::Journal* journal_ = nullptr;
    /// Latest completion sequenced (now_us()).
    std::uint64_t horizon_us_ = 0;
    /// Horizon value at the last reset_stats(); utilization_ppm
    /// denominators measure elapsed time from here.
    std::uint64_t stats_epoch_us_ = 0;
    std::uint64_t seed_;
    FaultPlan fault_plan_;
    CompletionSink completion_sink_;
};

}  // namespace rafda::net
