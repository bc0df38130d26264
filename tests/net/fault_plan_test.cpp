// Scheduled fault injection (DESIGN.md §15).  Window membership is a pure
// function of virtual time, deterministic faults never draw from the PRNG,
// and every directed link owns its own drop-decision stream — so a fault
// scenario replays bit-for-bit and faults on one link cannot perturb the
// sequence another link sees.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace rafda::net {
namespace {

FaultWindow link_window(FaultKind kind, NodeId src, NodeId dst,
                        std::uint64_t from, std::uint64_t until,
                        double p = 0.0, std::uint64_t period = 0) {
    FaultWindow w;
    w.kind = kind;
    w.src = src;
    w.dst = dst;
    w.from_us = from;
    w.until_us = until;
    w.drop_probability = p;
    w.period_us = period;
    return w;
}

FaultWindow crash_window(NodeId node, std::uint64_t from, std::uint64_t until) {
    FaultWindow w;
    w.kind = FaultKind::NodeCrash;
    w.node = node;
    w.from_us = from;
    w.until_us = until;
    return w;
}

TEST(FaultPlan, LinkDownWindowIsHalfOpen) {
    FaultPlan plan;
    plan.add(link_window(FaultKind::LinkDown, 0, 1, 100, 200));
    EXPECT_FALSE(plan.link_down(0, 1, 99));
    EXPECT_TRUE(plan.link_down(0, 1, 100));
    EXPECT_TRUE(plan.link_down(0, 1, 199));
    EXPECT_FALSE(plan.link_down(0, 1, 200));
    // Directed: the reverse link and unrelated links are untouched.
    EXPECT_FALSE(plan.link_down(1, 0, 150));
    EXPECT_FALSE(plan.link_down(2, 3, 150));
}

TEST(FaultPlan, FlapAlternatesByPeriodStartingDown) {
    FaultPlan plan;
    plan.add(link_window(FaultKind::LinkFlap, 0, 1, 1000, 1400, 0.0, 100));
    // Slices from the window start: down [1000,1100), up [1100,1200), ...
    EXPECT_TRUE(plan.link_down(0, 1, 1000));
    EXPECT_TRUE(plan.link_down(0, 1, 1099));
    EXPECT_FALSE(plan.link_down(0, 1, 1100));
    EXPECT_FALSE(plan.link_down(0, 1, 1199));
    EXPECT_TRUE(plan.link_down(0, 1, 1200));
    EXPECT_FALSE(plan.link_down(0, 1, 1399));
    // Outside the window the flap has no effect at all.
    EXPECT_FALSE(plan.link_down(0, 1, 999));
    EXPECT_FALSE(plan.link_down(0, 1, 1400));
}

TEST(FaultPlan, DropOverrideAppliesOnlyInsideWindowAndLastAddedWins) {
    FaultPlan plan;
    plan.add(link_window(FaultKind::DropRate, 0, 1, 100, 500, 0.25));
    plan.add(link_window(FaultKind::DropRate, 0, 1, 200, 300, 0.75));
    EXPECT_FALSE(plan.drop_override(0, 1, 50).has_value());
    EXPECT_EQ(plan.drop_override(0, 1, 150).value(), 0.25);
    EXPECT_EQ(plan.drop_override(0, 1, 250).value(), 0.75);  // later window wins
    EXPECT_EQ(plan.drop_override(0, 1, 400).value(), 0.25);
    EXPECT_FALSE(plan.drop_override(0, 1, 500).has_value());
    EXPECT_FALSE(plan.drop_override(1, 0, 250).has_value());
}

TEST(FaultPlan, NodeCrashWindowsAndRestartCounting) {
    FaultPlan plan;
    plan.add(crash_window(1, 100, 200));
    plan.add(crash_window(1, 300, 400));
    EXPECT_FALSE(plan.node_down(1, 99));
    EXPECT_TRUE(plan.node_down(1, 100));
    EXPECT_FALSE(plan.node_down(1, 250));
    EXPECT_TRUE(plan.node_down(1, 350));
    EXPECT_FALSE(plan.node_down(2, 350));
    // restarts_before counts completed crash windows — monotone in t.
    EXPECT_EQ(plan.restarts_before(1, 50), 0u);
    EXPECT_EQ(plan.restarts_before(1, 199), 0u);
    EXPECT_EQ(plan.restarts_before(1, 200), 1u);  // window end = restart
    EXPECT_EQ(plan.restarts_before(1, 350), 1u);
    EXPECT_EQ(plan.restarts_before(1, 400), 2u);
    EXPECT_EQ(plan.restarts_before(2, 400), 0u);
}

TEST(FaultPlan, KindNames) {
    EXPECT_STREQ(fault_kind_name(FaultKind::LinkDown), "down");
    EXPECT_STREQ(fault_kind_name(FaultKind::LinkFlap), "flap");
    EXPECT_STREQ(fault_kind_name(FaultKind::DropRate), "drop");
    EXPECT_STREQ(fault_kind_name(FaultKind::NodeCrash), "crash");
}

TEST(SimNetworkFaults, DownWindowLosesMessagesOnlyInsideWindow) {
    SimNetwork net(7);
    net.set_link(0, 1, LinkParams{100, 0.0, 0.0});
    net.fault_plan().add(link_window(FaultKind::LinkDown, 0, 1, 1000, 2000));

    Delivery before = net.transfer_at(0, 1, 10, 500);
    EXPECT_TRUE(before.delivered);
    EXPECT_EQ(before.at_us, 600u);

    // Inside the window the message is lost, but the loss is not free: the
    // link stays occupied for the propagation delay.
    Delivery during = net.transfer_at(0, 1, 10, 1500);
    EXPECT_FALSE(during.delivered);
    EXPECT_EQ(during.at_us, 1600u);

    Delivery after = net.transfer_at(0, 1, 10, 2500);
    EXPECT_TRUE(after.delivered);

    EXPECT_EQ(net.stats(0, 1).messages, 2u);
    EXPECT_EQ(net.stats(0, 1).drops, 1u);
}

TEST(SimNetworkFaults, PartitionEvaluatedAtDepartureTime) {
    // A message *sent* before the partition but queued behind link
    // occupancy departs inside the window — and dies there.  Membership is
    // judged at departure, the moment the message actually hits the wire.
    SimNetwork net(7);
    net.set_link(0, 1, LinkParams{100, 1.0, 0.0});
    net.fault_plan().add(link_window(FaultKind::LinkDown, 0, 1, 500, 2000));
    Delivery first = net.transfer_at(0, 1, 600, 0);  // serializes until 600
    EXPECT_TRUE(first.delivered);
    Delivery queued = net.transfer_at(0, 1, 10, 100);  // departs at 600 >= 500
    EXPECT_FALSE(queued.delivered);
}

TEST(SimNetworkFaults, DropOverrideSubstitutesProbabilityInsideWindow) {
    SimNetwork net(7);
    net.set_link(0, 1, LinkParams{100, 0.0, 0.0});  // lossless by config
    net.fault_plan().add(link_window(FaultKind::DropRate, 0, 1, 0, 1000, 1.0));
    EXPECT_FALSE(net.transfer_at(0, 1, 10, 0).delivered);
    EXPECT_TRUE(net.transfer_at(0, 1, 10, 5000).delivered);
}

TEST(SimNetworkFaults, PerLinkStreamsIsolateLossyTraffic) {
    // Heavy lossy traffic on link 0->1 must not change which of link
    // 2->3's messages are dropped: each directed link draws from its own
    // seeded stream.
    auto pattern_2_3 = [](bool with_noise) {
        SimNetwork net(42);
        net.set_link(0, 1, LinkParams{100, 0.0, 0.5});
        net.set_link(2, 3, LinkParams{100, 0.0, 0.5});
        std::vector<bool> delivered;
        for (int k = 0; k < 32; ++k) {
            const std::uint64_t t = static_cast<std::uint64_t>(k) * 1000;
            if (with_noise) {
                net.transfer_at(0, 1, 10, t);
                net.transfer_at(0, 1, 10, t + 200);
            }
            delivered.push_back(net.transfer_at(2, 3, 10, t).delivered);
        }
        return delivered;
    };
    EXPECT_EQ(pattern_2_3(false), pattern_2_3(true));
}

TEST(SimNetworkFaults, DeterministicFaultsConsumeNoPrngDraws) {
    // Down windows on a link are decided by pure time arithmetic.  With a
    // lossless link config, adding a partition must not touch the link's
    // stream — so a later lossy phase sees the identical drop sequence
    // whether or not the partition existed.
    auto lossy_tail = [](bool with_partition) {
        SimNetwork net(9);
        net.set_link(0, 1, LinkParams{100, 0.0, 0.0});
        if (with_partition)
            net.fault_plan().add(link_window(FaultKind::LinkDown, 0, 1, 0, 10'000));
        for (int k = 0; k < 8; ++k)
            net.transfer_at(0, 1, 10, static_cast<std::uint64_t>(k) * 1000);
        net.set_link(0, 1, LinkParams{100, 0.0, 0.5});
        std::vector<bool> delivered;
        for (int k = 0; k < 32; ++k)
            delivered.push_back(
                net.transfer_at(0, 1, 10, 20'000 + static_cast<std::uint64_t>(k) * 1000)
                    .delivered);
        return delivered;
    };
    EXPECT_EQ(lossy_tail(false), lossy_tail(true));
}

TEST(SimNetworkFaults, ChanceZeroConsumesNoDraw) {
    // Rng::chance(0) short-circuits without drawing, so traffic on a
    // lossless link leaves its stream untouched; Rng::mix derives streams
    // without consuming generator state.
    Rng a(123);
    Rng b(123);
    for (int k = 0; k < 100; ++k) EXPECT_FALSE(a.chance(0.0));
    for (int k = 0; k < 5; ++k) EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(Rng::mix(1, 2), Rng::mix(1, 2));
    EXPECT_NE(Rng::mix(1, 2), Rng::mix(1, 3));
    EXPECT_NE(Rng::mix(1, 2), Rng::mix(2, 2));
}

TEST(SimNetworkFaults, FaultScheduleReplaysBitForBit) {
    auto run = [] {
        SimNetwork net(77);
        net.set_link(0, 1, LinkParams{100, 125.0, 0.1});
        net.fault_plan().add(link_window(FaultKind::LinkFlap, 0, 1, 3000, 9000, 0.0, 500));
        net.fault_plan().add(link_window(FaultKind::DropRate, 0, 1, 12'000, 20'000, 0.6));
        std::vector<std::uint64_t> events;
        for (int k = 0; k < 64; ++k) {
            Delivery d = net.transfer_at(0, 1, 200, static_cast<std::uint64_t>(k) * 400);
            events.push_back(d.at_us * 2 + (d.delivered ? 1 : 0));
        }
        events.push_back(net.stats(0, 1).drops);
        events.push_back(net.stats(0, 1).busy_us);
        return events;
    };
    EXPECT_EQ(run(), run());
}

TEST(SimNetworkStats, ResetRebasesUtilizationEpoch) {
    // Regression: utilization_ppm after reset_stats() must measure busy
    // time against virtual time elapsed *since the reset*, not since t=0
    // (the old denominator biased post-reset utilization toward zero).
    SimNetwork net(1);
    obs::Registry registry;
    net.attach_metrics(&registry);
    net.set_link(0, 1, LinkParams{0, 1.0, 0.0});

    net.transfer_at(0, 1, 100, 0);  // busy [0,100) over elapsed 100 -> 100%
    obs::Snapshot before = registry.snapshot();
    const obs::Sample* util = before.find("net.link.0.1.utilization_ppm");
    ASSERT_NE(util, nullptr);
    EXPECT_EQ(util->gauge, 1'000'000);

    // An idle gap on link 0->1: traffic on another link carries the
    // network's horizon to 10,000 before the reset.
    net.set_link(2, 3, LinkParams{10'000, 0.0, 0.0});
    net.transfer_at(2, 3, 10, 0);
    net.reset_stats();
    EXPECT_EQ(net.stats_epoch_us(), 10'000u);
    EXPECT_EQ(net.stats(0, 1).messages, 0u);

    // One transfer occupying the full post-reset window reads 100% again;
    // against a t=0 denominator it would read ~1%.
    net.transfer_at(0, 1, 100, 10'000);
    obs::Snapshot after = registry.snapshot();
    util = after.find("net.link.0.1.utilization_ppm");
    ASSERT_NE(util, nullptr);
    EXPECT_EQ(util->gauge, 1'000'000);
    EXPECT_EQ(net.stats(0, 1).messages, 1u);
}

TEST(SimNetworkStats, BusyUntilSurvivesReset) {
    // Channel occupancy is physical link state: bytes still serializing
    // block the link across a stats reset.
    SimNetwork net(1);
    net.set_link(0, 1, LinkParams{500, 1.0, 0.0});
    net.transfer_at(0, 1, 200, 0);  // channel held until 200
    net.reset_stats();
    EXPECT_EQ(net.link_busy_until(0, 1), 200u);
    Delivery d = net.transfer_at(0, 1, 10, 100);  // departs at 200
    EXPECT_EQ(d.at_us, 710u);
}

}  // namespace
}  // namespace rafda::net
