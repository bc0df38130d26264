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
                                       std::uint64_t send_us, bool entry) {
    Link& l = link_record(src, dst);
    const LinkParams& params = l.params ? *l.params : default_link_;
    LinkStats& stats = l.stats;
    LinkMetrics* metrics = registry_ ? &link_metrics(src, dst, l) : nullptr;
    // The channel is held only while bytes serialize.  A transfer sent
    // before the previous one's bytes are out (to the sub-µs remainder)
    // departs behind them and inherits that remainder; one sent to an idle
    // link starts from zero, so a lone frame charges llround(size/bw).
    if (static_cast<double>(send_us) >= static_cast<double>(l.busy_until) + l.carry_us)
        l.carry_us = 0.0;
    const std::uint64_t depart = std::max(send_us, l.busy_until);
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
    // One rule for frames, entries and losses: serialize, then propagate.
    // A lost message held the channel all the same, and its loss becomes
    // observable when it would have arrived (a free drop would bias
    // adaptation experiments toward lossy links).
    const double exact =
        l.carry_us + (params.bandwidth_bytes_per_us > 0
                          ? static_cast<double>(size) / params.bandwidth_bytes_per_us
                          : 0.0);
    // An empty transfer behind a rounded-up one (remainder -0.5) must
    // charge 0, not -1.
    const auto serialization =
        static_cast<std::uint64_t>(std::llround(std::max(0.0, exact)));
    l.carry_us = exact - static_cast<double>(serialization);
    l.busy_until = depart + serialization;
    const std::uint64_t at = l.busy_until + params.latency_us;
    stats.busy_us += serialization;
    horizon_us_ = std::max(horizon_us_, at);
    ++(lost ? stats.drops : entry ? stats.coalesced : stats.messages);
    if (!lost) stats.bytes += size;
    if (metrics) {
        (lost ? metrics->drops : entry ? metrics->coalesced : metrics->messages)->add();
        if (!lost) metrics->bytes->add(size);
        metrics->busy_us->add(serialization);
        metrics->utilization_ppm->set(static_cast<std::int64_t>(
            stats.busy_us * 1'000'000 /
            std::max<std::uint64_t>(1, horizon_us_ - stats_epoch_us_)));
    }
    if (completion_sink_) completion_sink_(src, dst, at, !lost);
    return Delivery{!lost, at};
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
    // so bytes still serializing block the link across a reset.
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
