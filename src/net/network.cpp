#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace rafda::net {

SimNetwork::SimNetwork(std::uint64_t seed) : seed_(seed) {}

SimNetwork::Link& SimNetwork::link_record(NodeId src, NodeId dst) {
    const std::uint64_t key = link_key(src, dst);
    return links_.try_emplace(key, Rng(Rng::mix(seed_, key))).first->second;
}

const SimNetwork::Link* SimNetwork::find_link(NodeId src, NodeId dst) const {
    auto it = links_.find(link_key(src, dst));
    return it == links_.end() ? nullptr : &it->second;
}

void SimNetwork::set_default_link(LinkParams params) { default_link_ = params; }

void SimNetwork::set_link(NodeId src, NodeId dst, LinkParams params) {
    link_record(src, dst).params = params;
}

const LinkParams& SimNetwork::link(NodeId src, NodeId dst) const {
    const Link* l = find_link(src, dst);
    return l && l->params ? *l->params : default_link_;
}

SimNetwork::LinkMetrics& SimNetwork::link_metrics(NodeId src, NodeId dst, Link& l) {
    LinkMetrics& m = l.metrics;
    if (!m.messages) {
        const std::string prefix = "net.link." + std::to_string(src) + "." +
                                   std::to_string(dst) + ".";
        m.messages = &registry_->counter(prefix + "messages");
        m.bytes = &registry_->counter(prefix + "bytes");
        m.drops = &registry_->counter(prefix + "drops");
        m.coalesced = &registry_->counter(prefix + "coalesced");
        m.busy_us = &registry_->counter(prefix + "busy_us");
        m.utilization_ppm = &registry_->gauge(prefix + "utilization_ppm");
    }
    return m;
}

void SimNetwork::attach_metrics(obs::Registry* registry) {
    registry_ = registry;
    for (auto& [_, l] : links_) l.metrics = LinkMetrics{};
}

Delivery SimNetwork::transfer_at(NodeId src, NodeId dst, std::size_t size,
                                 std::uint64_t send_us) {
    return sequence_transfer(src, dst, size, send_us, false);
}

Delivery SimNetwork::transfer_coalesced_at(NodeId src, NodeId dst, std::size_t size,
                                           std::uint64_t send_us) {
    return sequence_transfer(src, dst, size, send_us, true);
}

Delivery SimNetwork::sequence_transfer(NodeId src, NodeId dst, std::size_t size,
                                       std::uint64_t send_us, bool try_coalesce) {
    Link& l = link_record(src, dst);
    const LinkParams& params = l.params ? *l.params : default_link_;
    LinkStats& stats = l.stats;
    LinkMetrics* metrics = registry_ ? &link_metrics(src, dst, l) : nullptr;
    std::uint64_t& busy_until = l.busy_until;
    // The channel carries one message at a time: a transfer sent while the
    // link is occupied queues behind the in-flight one — unless the caller
    // asked to coalesce, in which case the bytes join the in-flight frame
    // at its tail instead of waiting for the link to free up.
    const bool coalesce = try_coalesce && send_us < busy_until;
    const std::uint64_t depart = std::max(send_us, busy_until);
    // Scheduled faults are evaluated at the departure time. A down/flapped
    // link loses the message without consuming a PRNG draw (pure function
    // of virtual time); a drop-rate override substitutes its probability
    // into the same per-link stream the configured rate uses. Rng::chance
    // never draws for p <= 0, so a fault-free link's stream is untouched.
    bool lost = fault_plan_.link_down(src, dst, depart);
    if (journal_ && journal_->enabled()) {
        // Flight-recorder edge detection: record the transition the first
        // time a transfer observes this link's down-state change.  Pure
        // observation — no clock advance, no PRNG draw.
        if (l.fault_down != lost)
            journal_->record(obs::JournalEvent::Kind::FaultEdge, depart, src, dst,
                             lost ? 1 : 0, 0, "link");
        l.fault_down = lost;
    }
    if (!lost) {
        const double p = fault_plan_.drop_override(src, dst, depart)
                             .value_or(params.drop_probability);
        lost = l.rng.chance(p);
    }
    if (lost) {
        ++stats.drops;
        // A lost message still occupied the link before it died: charge
        // the propagation delay so loss is not free in virtual time (a
        // free drop would bias adaptation experiments toward lossy links).
        const std::uint64_t fail_at = depart + params.latency_us;
        stats.busy_us += fail_at - depart;
        busy_until = fail_at;
        horizon_us_ = std::max(horizon_us_, fail_at);
        if (metrics) {
            metrics->drops->add();
            metrics->busy_us->add(params.latency_us);
            metrics->utilization_ppm->set(static_cast<std::int64_t>(
                stats.busy_us * 1'000'000 /
                std::max<std::uint64_t>(1, horizon_us_ - stats_epoch_us_)));
        }
        if (completion_sink_) completion_sink_(src, dst, fail_at, false);
        return Delivery{false, fail_at, coalesce};
    }
    if (coalesce)
        ++stats.coalesced;
    else
        ++stats.messages;
    stats.bytes += size;
    double serialization =
        params.bandwidth_bytes_per_us > 0
            ? static_cast<double>(size) / params.bandwidth_bytes_per_us
            : 0.0;
    // A coalesced entry rides the in-flight frame: it pays its own
    // serialization time but shares the frame's propagation delay.
    const std::uint64_t arrival =
        depart + (coalesce ? 0 : params.latency_us) +
        static_cast<std::uint64_t>(std::llround(serialization));
    stats.busy_us += arrival - depart;
    busy_until = arrival;
    horizon_us_ = std::max(horizon_us_, arrival);
    if (metrics) {
        if (coalesce)
            metrics->coalesced->add();
        else
            metrics->messages->add();
        metrics->bytes->add(size);
        metrics->busy_us->add(arrival - depart);
        metrics->utilization_ppm->set(static_cast<std::int64_t>(
            stats.busy_us * 1'000'000 /
            std::max<std::uint64_t>(1, horizon_us_ - stats_epoch_us_)));
    }
    if (completion_sink_) completion_sink_(src, dst, arrival, true);
    return Delivery{true, arrival, coalesce};
}

std::uint64_t SimNetwork::link_busy_until(NodeId src, NodeId dst) const {
    const Link* l = find_link(src, dst);
    return l ? l->busy_until : 0;
}

const LinkStats& SimNetwork::stats(NodeId src, NodeId dst) const {
    static const LinkStats kIdle;
    const Link* l = find_link(src, dst);
    return l ? l->stats : kIdle;
}

LinkStats SimNetwork::total_stats() const {
    LinkStats total;
    for (const auto& [_, l] : links_) {
        const LinkStats& s = l.stats;
        total.messages += s.messages;
        total.bytes += s.bytes;
        total.drops += s.drops;
        total.coalesced += s.coalesced;
        total.busy_us += s.busy_us;
    }
    return total;
}

void SimNetwork::visit_links(
    const std::function<void(NodeId, NodeId, const LinkStats&)>& fn) const {
    // The table is unordered; sort at visit time so tables and exports
    // keep their (src, dst) order.
    std::vector<std::pair<std::pair<NodeId, NodeId>, const LinkStats*>> order;
    for (const auto& [key, l] : links_) {
        if (!l.carried()) continue;
        order.push_back({{static_cast<NodeId>(static_cast<std::uint32_t>(key >> 32)),
                          static_cast<NodeId>(static_cast<std::uint32_t>(key))},
                         &l.stats});
    }
    std::sort(order.begin(), order.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [ends, s] : order) fn(ends.first, ends.second, *s);
}

void SimNetwork::reset_stats() {
    // Utilization after a reset measures busy time over virtual time
    // elapsed *since the reset* — without this epoch the denominator keeps
    // growing from t=0 and post-reset utilization is biased toward zero.
    // busy_until is left alone: channel occupancy is physical link state,
    // so a message in flight still blocks the link across a reset.
    stats_epoch_us_ = horizon_us_;
    for (auto& [_, l] : links_) {
        l.stats = LinkStats{};
        // Keep the registry mirrors in step: they are cumulative shadows
        // of the stats, so clearing one but not the other would make
        // `rafdac stats` diverge from total_stats() after a reset.
        if (LinkMetrics& m = l.metrics; m.messages) {
            m.messages->reset();
            m.bytes->reset();
            m.drops->reset();
            m.coalesced->reset();
            m.busy_us->reset();
            m.utilization_ppm->reset();
        }
    }
}

}  // namespace rafda::net
