#include "net/network.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

namespace rafda::net {
namespace {

/// transfer_at(src, dst, size, now_us()): sends at the network's horizon
/// and returns the delay, or nullopt when the message was dropped.
std::optional<std::uint64_t> send_now(SimNetwork& net, NodeId src, NodeId dst,
                                      std::size_t size) {
    const std::uint64_t send = net.now_us();
    const Delivery d = net.transfer_at(src, dst, size, send);
    if (!d.delivered) return std::nullopt;
    return d.at_us - send;
}

TEST(SimNetwork, LatencyAndBandwidthShapeDelay) {
    SimNetwork net;
    LinkParams fast{100, 1000.0, 0.0};  // 100us + size/1000
    net.set_default_link(fast);
    auto d = send_now(net, 0, 1, 5000);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, 105u);
    EXPECT_EQ(net.now_us(), 105u);
}

TEST(SimNetwork, ZeroBandwidthMeansLatencyOnly) {
    SimNetwork net;
    net.set_default_link(LinkParams{250, 0.0, 0.0});
    EXPECT_EQ(*send_now(net, 0, 1, 1 << 20), 250u);
}

TEST(SimNetwork, PerLinkOverrides) {
    SimNetwork net;
    net.set_default_link(LinkParams{100, 0.0, 0.0});
    net.set_link(0, 1, LinkParams{5, 0.0, 0.0});
    EXPECT_EQ(*send_now(net, 0, 1, 10), 5u);
    EXPECT_EQ(*send_now(net, 1, 0, 10), 100u);  // override is directional
    EXPECT_EQ(*send_now(net, 0, 2, 10), 100u);
}

TEST(SimNetwork, ClockAccumulates) {
    SimNetwork net;
    net.set_default_link(LinkParams{10, 0.0, 0.0});
    send_now(net, 0, 1, 1);
    send_now(net, 1, 0, 1);
    // The horizon is the latest completion sequenced on any link: a later
    // send elsewhere pulls it past the ping-pong's 20 us.
    net.transfer_at(2, 3, 1, 17);
    EXPECT_EQ(net.now_us(), 27u);
    // An earlier completion never pulls it back.
    net.transfer_at(3, 2, 1, 0);
    EXPECT_EQ(net.now_us(), 27u);
}

TEST(SimNetwork, StatsPerLink) {
    SimNetwork net;
    net.set_default_link(LinkParams{1, 0.0, 0.0});
    send_now(net, 0, 1, 100);
    send_now(net, 0, 1, 50);
    send_now(net, 1, 0, 10);
    EXPECT_EQ(net.stats(0, 1).messages, 2u);
    EXPECT_EQ(net.stats(0, 1).bytes, 150u);
    EXPECT_EQ(net.stats(1, 0).messages, 1u);
    LinkStats total = net.total_stats();
    EXPECT_EQ(total.messages, 3u);
    EXPECT_EQ(total.bytes, 160u);
    net.reset_stats();
    EXPECT_EQ(net.total_stats().messages, 0u);
}

TEST(SimNetwork, DropInjectionIsDeterministic) {
    auto run = [](std::uint64_t seed) {
        SimNetwork net(seed);
        net.set_default_link(LinkParams{1, 0.0, 0.5});
        std::vector<bool> outcomes;
        for (int i = 0; i < 64; ++i) outcomes.push_back(send_now(net, 0, 1, 1).has_value());
        return outcomes;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(SimNetwork, DropRateApproximatesProbability) {
    SimNetwork net(123);
    net.set_default_link(LinkParams{1, 0.0, 0.25});
    int delivered = 0;
    for (int i = 0; i < 4000; ++i)
        if (send_now(net, 0, 1, 1)) ++delivered;
    EXPECT_NEAR(delivered / 4000.0, 0.75, 0.03);
    EXPECT_GT(net.stats(0, 1).drops, 0u);
}

TEST(SimNetwork, DroppedTransferChargesLatency) {
    // A lost message still occupied the link: the sender's timeout clock
    // ran for at least the propagation delay.  Drops used to be free in
    // virtual time, which made lossy links *faster* than reliable ones.
    SimNetwork net;
    net.set_default_link(LinkParams{50, 0.0, 1.0});
    EXPECT_FALSE(send_now(net, 0, 1, 1000).has_value());
    EXPECT_EQ(net.now_us(), 50u);
    EXPECT_FALSE(send_now(net, 0, 1, 1000).has_value());
    EXPECT_EQ(net.now_us(), 100u);
}

TEST(SimNetwork, NoDropsAtZeroProbability) {
    SimNetwork net;
    net.set_default_link(LinkParams{1, 0.0, 0.0});
    for (int i = 0; i < 1000; ++i) EXPECT_TRUE(send_now(net, 0, 1, 1).has_value());
}

TEST(SimNetwork, RegistryMirrorsPerLinkStats) {
    obs::Registry reg;
    SimNetwork net(123);
    net.set_default_link(LinkParams{1, 0.0, 0.25});
    net.attach_metrics(&reg);

    for (int i = 0; i < 400; ++i) send_now(net, 0, 1, 8);
    send_now(net, 1, 0, 16);

    const LinkStats& s01 = net.stats(0, 1);
    EXPECT_GT(s01.drops, 0u);  // the seed produces drops at p=0.25
    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter_value("net.link.0.1.messages"), s01.messages);
    EXPECT_EQ(snap.counter_value("net.link.0.1.bytes"), s01.bytes);
    EXPECT_EQ(snap.counter_value("net.link.0.1.drops"), s01.drops);
    EXPECT_EQ(snap.counter_value("net.link.1.0.messages"), net.stats(1, 0).messages);
    EXPECT_EQ(snap.counter_value("net.link.1.0.bytes"), 16u);
}

TEST(SimNetwork, DetachingStopsMirroring) {
    obs::Registry reg;
    SimNetwork net;
    net.set_default_link(LinkParams{1, 0.0, 0.0});
    net.attach_metrics(&reg);
    send_now(net, 0, 1, 5);
    net.attach_metrics(nullptr);
    send_now(net, 0, 1, 5);
    EXPECT_EQ(net.stats(0, 1).messages, 2u);
    EXPECT_EQ(reg.snapshot().counter_value("net.link.0.1.messages"), 1u);
}

TEST(SimNetwork, TransfersBeforeAttachAreNotBackfilled) {
    // Attach mid-flight: the registry mirrors only what it observed, so
    // callers wanting totals-from-zero must attach before traffic starts.
    obs::Registry reg;
    SimNetwork net;
    net.set_default_link(LinkParams{1, 0.0, 0.0});
    send_now(net, 0, 1, 5);
    net.attach_metrics(&reg);
    send_now(net, 0, 1, 5);
    EXPECT_EQ(net.stats(0, 1).bytes, 10u);
    EXPECT_EQ(reg.snapshot().counter_value("net.link.0.1.bytes"), 5u);
}

TEST(SimNetwork, ContendingTransfersQueueOnTheLink) {
    // Two transfers sent at the same instant share one directed channel:
    // the second departs once the first's bytes are out, and the two
    // propagate concurrently.
    SimNetwork net;
    net.set_default_link(LinkParams{100, 1000.0, 0.0});  // 100us + size/1000
    Delivery first = net.transfer_at(0, 1, 5000, 0);     // departs 0, arrives 105
    Delivery second = net.transfer_at(0, 1, 5000, 0);    // departs 5, arrives 110
    ASSERT_TRUE(first.delivered);
    ASSERT_TRUE(second.delivered);
    EXPECT_EQ(first.at_us, 105u);
    EXPECT_EQ(second.at_us, 110u);
    EXPECT_EQ(net.link_busy_until(0, 1), 10u);
    // The reverse direction is an independent channel: no queueing.
    EXPECT_EQ(net.transfer_at(1, 0, 5000, 0).at_us, 105u);
}

TEST(SimNetwork, SendAfterBusyWindowDoesNotQueue) {
    SimNetwork net;
    net.set_default_link(LinkParams{10, 1.0, 0.0});
    EXPECT_EQ(net.transfer_at(0, 1, 2, 0).at_us, 12u);  // channel held [0, 2)
    // Sending once the bytes are out pays only its own serialization and
    // latency, though the first message is still propagating.
    EXPECT_EQ(net.transfer_at(0, 1, 2, 5).at_us, 17u);
    EXPECT_EQ(net.link_busy_until(0, 1), 7u);
}

TEST(SimNetwork, BusyTimeIsAccountedPerLink) {
    SimNetwork net;
    net.set_default_link(LinkParams{100, 1000.0, 0.0});
    net.transfer_at(0, 1, 5000, 0);
    net.transfer_at(0, 1, 5000, 0);
    // Serialization only: 5us each; the propagation is not occupancy.
    EXPECT_EQ(net.stats(0, 1).busy_us, 10u);
    EXPECT_EQ(net.total_stats().busy_us, 10u);
    std::size_t links = 0;
    net.visit_links([&links](NodeId src, NodeId dst, const LinkStats& s) {
        ++links;
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(dst, 1u);
        EXPECT_EQ(s.busy_us, 10u);
    });
    EXPECT_EQ(links, 1u);
}

TEST(SimNetwork, ReadsNeverCreateListedLinks) {
    // stats() is a read: querying an idle link, or configuring one that
    // never carries traffic, must not make it appear in visit_links (and
    // so in the `rafdac net` tables).
    SimNetwork net;
    net.set_default_link(LinkParams{10, 0.0, 0.0});
    net.set_link(2, 3, LinkParams{5, 1.0, 0.0});
    net.transfer_at(1, 0, 1, 0);
    EXPECT_EQ(net.stats(0, 1).messages, 0u);  // idle, never used
    EXPECT_EQ(net.stats(2, 3).busy_us, 0u);   // configured, never used
    EXPECT_EQ(net.link_busy_until(0, 1), 0u);
    std::vector<std::pair<NodeId, NodeId>> listed;
    net.visit_links([&listed](NodeId src, NodeId dst, const LinkStats&) {
        listed.emplace_back(src, dst);
    });
    EXPECT_EQ(listed, (std::vector<std::pair<NodeId, NodeId>>{{1, 0}}));
    EXPECT_EQ(net.total_stats().messages, 1u);

    // A reset clears the accounting and the listing but keeps channel
    // occupancy: bytes still serializing block the link.
    net.transfer_at(2, 3, 4, 100);  // channel held [100, 104)
    net.reset_stats();
    EXPECT_EQ(net.link_busy_until(2, 3), 104u);
    EXPECT_EQ(net.stats(2, 3).messages, 0u);
    std::size_t after_reset = 0;
    net.visit_links([&after_reset](NodeId, NodeId, const LinkStats&) { ++after_reset; });
    EXPECT_EQ(after_reset, 0u);
    EXPECT_EQ(net.transfer_at(2, 3, 1, 100).at_us, 110u);  // departs at 104
}

TEST(SimNetwork, VisitLinksIsOrderedBySourceThenDestination) {
    SimNetwork net;
    net.set_default_link(LinkParams{1, 0.0, 0.0});
    for (auto [src, dst] : std::vector<std::pair<NodeId, NodeId>>{
             {3, 1}, {0, 2}, {3, 0}, {1, 7}, {0, 1}})
        net.transfer_at(src, dst, 1, 0);
    std::vector<std::pair<NodeId, NodeId>> listed;
    net.visit_links([&listed](NodeId src, NodeId dst, const LinkStats&) {
        listed.emplace_back(src, dst);
    });
    EXPECT_EQ(listed, (std::vector<std::pair<NodeId, NodeId>>{
                          {0, 1}, {0, 2}, {1, 7}, {3, 0}, {3, 1}}));
}

TEST(SimNetwork, LegacyTransferSendsAtTheWatermark) {
    // transfer_at(now): with one message in flight at a time the channel is
    // always idle at send, so the old global-clock arithmetic holds.
    SimNetwork net;
    net.set_default_link(LinkParams{100, 1000.0, 0.0});
    EXPECT_EQ(*send_now(net, 0, 1, 5000), 105u);
    EXPECT_EQ(*send_now(net, 0, 1, 5000), 105u);
    EXPECT_EQ(net.now_us(), 210u);
}

TEST(SimNetwork, ResetStatsAlsoResetsMirroredRegistryCounters) {
    // Regression: reset_stats() used to clear only the internal tables,
    // leaving the net.link.* registry counters stale so post-reset deltas
    // double-counted the pre-reset traffic.
    obs::Registry reg;
    SimNetwork net;
    net.set_default_link(LinkParams{1, 1000.0, 0.0});
    net.attach_metrics(&reg);
    send_now(net, 0, 1, 2000);
    send_now(net, 1, 0, 4000);
    ASSERT_EQ(reg.snapshot().counter_value("net.link.0.1.bytes"), 2000u);

    net.reset_stats();
    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter_value("net.link.0.1.messages"), 0u);
    EXPECT_EQ(snap.counter_value("net.link.0.1.bytes"), 0u);
    EXPECT_EQ(snap.counter_value("net.link.0.1.busy_us"), 0u);
    EXPECT_EQ(snap.counter_value("net.link.1.0.bytes"), 0u);
    const obs::Sample* util = snap.find("net.link.0.1.utilization_ppm");
    ASSERT_NE(util, nullptr);
    EXPECT_EQ(util->gauge, 0);

    // And the mirror keeps tracking from zero afterwards.
    send_now(net, 0, 1, 3000);
    EXPECT_EQ(reg.snapshot().counter_value("net.link.0.1.bytes"), 3000u);
    EXPECT_EQ(net.stats(0, 1).bytes, 3000u);
}

TEST(SimNetwork, DropStillOccupiesTheChannel) {
    // A dropped message occupied the channel while it serialized, and its
    // loss shows when it would have arrived; the next sender queues behind
    // the serialization window.
    SimNetwork net;
    net.set_default_link(LinkParams{50, 100.0, 1.0});
    Delivery d = net.transfer_at(0, 1, 1000, 0);
    EXPECT_FALSE(d.delivered);
    EXPECT_EQ(d.at_us, 60u);
    EXPECT_EQ(net.stats(0, 1).busy_us, 10u);
    EXPECT_EQ(net.link_busy_until(0, 1), 10u);
    EXPECT_EQ(net.transfer_at(0, 1, 1000, 0).at_us, 70u);
}

TEST(SimNetwork, BackToBackFramesPayTheirSerialization) {
    // 60 bytes at 125 B/us serialize in 0.48us, which rounds to 0.  The
    // remainder carries from frame to frame while the channel is still
    // busy, so a burst of 1,000 costs its 480us of serialization instead
    // of nothing.
    SimNetwork net;
    net.set_default_link(LinkParams{100, 125.0, 0.0});
    Delivery last;
    for (int k = 0; k < 1000; ++k) last = net.transfer_at(0, 1, 60, 0);
    ASSERT_TRUE(last.delivered);
    EXPECT_NEAR(static_cast<double>(last.at_us), 580.0, 1.0);
    EXPECT_NEAR(static_cast<double>(net.stats(0, 1).busy_us), 480.0, 1.0);
    // A frame sent to the idle link starts from a zero remainder: a lone
    // 60-byte frame still costs llround(0.48) = 0.
    EXPECT_EQ(net.transfer_at(0, 1, 60, 10'000).at_us, 10'100u);
}

TEST(SimNetwork, EmptyTransferAfterARoundedUpFrameChargesNothing) {
    // 500 bytes at 1000 B/us is 0.5us, charged as 1: the carried
    // remainder is -0.5.  An empty transfer sent back to back is charged
    // 0us, never -1.
    SimNetwork net;
    net.set_default_link(LinkParams{10, 1000.0, 0.0});
    EXPECT_EQ(net.transfer_at(0, 1, 500, 0).at_us, 11u);
    EXPECT_EQ(net.transfer_at(0, 1, 0, 0).at_us, 11u);
    EXPECT_EQ(net.link_busy_until(0, 1), 1u);
}

TEST(SimNetwork, CoalescedTransferTimesLikeAFrame) {
    // A batch entry is timed by the frame rule: it departs when the open
    // frame's bytes are out (5us), holds the channel for its own 2us and
    // propagates for the full 100us.  It differs from a frame sent at the
    // same instant only in the counter it bumps.
    auto run = [](bool entry) {
        SimNetwork net;
        net.set_default_link(LinkParams{100, 1000.0, 0.0});
        EXPECT_EQ(net.transfer_at(0, 1, 5000, 0).at_us, 105u);
        const Delivery d = entry ? net.transfer_coalesced_at(0, 1, 2000, 3)
                                 : net.transfer_at(0, 1, 2000, 3);
        EXPECT_TRUE(d.delivered);
        EXPECT_EQ(d.at_us, 107u);
        EXPECT_EQ(net.link_busy_until(0, 1), 7u);
        EXPECT_EQ(net.stats(0, 1).busy_us, 7u);
        EXPECT_EQ(net.stats(0, 1).bytes, 7000u);
        return std::pair{net.stats(0, 1).messages, net.stats(0, 1).coalesced};
    };
    EXPECT_EQ(run(false), (std::pair<std::uint64_t, std::uint64_t>{2, 0}));
    EXPECT_EQ(run(true), (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
    SimNetwork net;
    net.transfer_at(0, 1, 5000, 0);
    net.transfer_coalesced_at(0, 1, 2000, 3);
    EXPECT_EQ(net.total_stats().coalesced, 1u);
}

TEST(SimNetwork, CoalescedDrawsMatchPlainTransfersOnLossyLinks) {
    // Drop decisions come from the per-link PRNG stream at the departure
    // time; whether a transfer coalesced must not change the stream, so
    // the same event sequence loses the same messages either way.
    auto run = [](bool coalesce) {
        SimNetwork net(1234);
        net.set_default_link(LinkParams{100, 10.0, 0.25});
        std::vector<bool> outcomes;
        std::uint64_t t = 0;
        for (int k = 0; k < 64; ++k) {
            Delivery d = coalesce ? net.transfer_coalesced_at(0, 1, 1000, t)
                                  : net.transfer_at(0, 1, 1000, t);
            outcomes.push_back(d.delivered);
            t += 10;  // well inside the previous transfer's 100us of bytes
        }
        return outcomes;
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(SimNetwork, CoalescedDropChargesLatencyLikePlainDrop) {
    // A lost entry still died on the wire: the loss accounting (drop
    // count, serialization busy charge, loss seen one latency later) is
    // identical to a plain drop.
    SimNetwork net;
    net.set_default_link(LinkParams{50, 10.0, 1.0});
    net.transfer_at(0, 1, 100, 0);  // channel held [0, 10)
    Delivery d = net.transfer_coalesced_at(0, 1, 100, 5);
    EXPECT_FALSE(d.delivered);
    EXPECT_EQ(d.at_us, 70u);  // departs at 10, serializes 10us, dies 50us later
    EXPECT_EQ(net.stats(0, 1).drops, 2u);
    EXPECT_EQ(net.stats(0, 1).coalesced, 0u);
    EXPECT_EQ(net.stats(0, 1).busy_us, 20u);
    EXPECT_EQ(net.link_busy_until(0, 1), 20u);
}

TEST(SimNetwork, ResetStatsClearsCoalescedCount) {
    obs::Registry reg;
    SimNetwork net;
    net.set_default_link(LinkParams{100, 1000.0, 0.0});
    net.attach_metrics(&reg);
    net.transfer_at(0, 1, 5000, 0);             // channel held [0, 5)
    net.transfer_coalesced_at(0, 1, 1000, 1);  // joins while it is held
    ASSERT_EQ(net.stats(0, 1).coalesced, 1u);
    ASSERT_EQ(reg.snapshot().counter_value("net.link.0.1.coalesced"), 1u);
    net.reset_stats();
    EXPECT_EQ(net.stats(0, 1).coalesced, 0u);
    EXPECT_EQ(reg.snapshot().counter_value("net.link.0.1.coalesced"), 0u);
}

}  // namespace
}  // namespace rafda::net
