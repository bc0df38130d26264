#include "runtime/policy_config.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace rafda::runtime {
namespace {

TEST(PolicyConfig, ParsesFullExample) {
    DistributionPolicy policy;
    net::SimNetwork network;
    apply_policy_config(R"(
# deployment: two racks
protocol default CORBA
instance Inventory on 1 via SOAP
instance Worker on 0
singleton Registry on 1 via RMI

link 0 -> 1 latency 250 bandwidth 125 drop 0.01
link 1 -> 0 latency 250
)",
                        policy, &network);

    EXPECT_EQ(policy.default_protocol(), "CORBA");
    EXPECT_EQ(policy.instance_placement("Inventory", 0),
              (Placement{1, "SOAP"}));
    // 'via' omitted: the default protocol applies.
    EXPECT_EQ(policy.instance_placement("Worker", 5), (Placement{0, "CORBA"}));
    EXPECT_EQ(policy.singleton_placement("Registry", 0), (Placement{1, "RMI"}));
    // Unmentioned classes keep the defaults.
    EXPECT_EQ(policy.instance_placement("Other", 3), (Placement{3, "CORBA"}));
    EXPECT_EQ(policy.singleton_placement("Other", 3), (Placement{0, "CORBA"}));

    EXPECT_EQ(network.link(0, 1).latency_us, 250u);
    EXPECT_DOUBLE_EQ(network.link(0, 1).drop_probability, 0.01);
    EXPECT_DOUBLE_EQ(network.link(0, 1).bandwidth_bytes_per_us, 125.0);
    EXPECT_EQ(network.link(1, 0).latency_us, 250u);
}

TEST(PolicyConfig, EmptyAndCommentOnlyInputIsFine) {
    DistributionPolicy policy;
    apply_policy_config("", policy);
    apply_policy_config("\n# nothing here\n\n", policy);
    EXPECT_EQ(policy.default_protocol(), "RMI");
}

TEST(PolicyConfig, RejectsUnknownProtocol) {
    DistributionPolicy policy;
    EXPECT_THROW(apply_policy_config("protocol default DCOM", policy), ParseError);
    EXPECT_THROW(apply_policy_config("instance A on 0 via DCOM", policy), ParseError);
}

TEST(PolicyConfig, RejectsMalformedLines) {
    DistributionPolicy policy;
    EXPECT_THROW(apply_policy_config("instance A at 0", policy), ParseError);
    EXPECT_THROW(apply_policy_config("instance A on minusone", policy), ParseError);
    EXPECT_THROW(apply_policy_config("instance A on -1", policy), ParseError);
    EXPECT_THROW(apply_policy_config("singleton", policy), ParseError);
    EXPECT_THROW(apply_policy_config("teleport A on 0", policy), ParseError);
    EXPECT_THROW(apply_policy_config("link 0 1 latency 5", policy), ParseError);
    EXPECT_THROW(apply_policy_config("link 0 -> 1 latency 5 warp 9", policy), ParseError);
}

TEST(PolicyConfig, LinkWithoutNetworkIsAnError) {
    DistributionPolicy policy;
    EXPECT_THROW(apply_policy_config("link 0 -> 1 latency 5", policy), ParseError);
}

TEST(PolicyConfig, ErrorsCarryLineNumbers) {
    DistributionPolicy policy;
    try {
        apply_policy_config("protocol default RMI\n\nbogus directive\n", policy);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 3);
    }
}

TEST(PolicyConfig, MalformedLinkAndRetryNumbersFailAtTheirLine) {
    // Every number is parsed once, as a whole token in its field's own
    // type, and range-checked: nothing wraps on the way into a narrower
    // field, and no sign prefix slips through.
    DistributionPolicy policy;
    net::SimNetwork network;
    RetryPolicy rp;
    BatchPolicy batch;
    for (const char* line : {
             "link 0 -> 1 latency abc",
             "link 0 -> 1 latency 5x",
             "link 0 -> 1 latency -3",
             "link 0 -> 1 latency 5 drop 1.5",
             "link 0 -> 1 latency 5 drop -0.1",
             "link 0 -> 1 latency 5 drop often",
             "link 0 -> 1 latency 5 bandwidth -3",
             "link 0 -> 1 latency 5 bandwidth 12MB",
             "link 0 -> 1 latency abc drop 1.5 bandwidth -3",
             "retry attempts 3 multiplier 2x",
             "retry attempts 3 multiplier abc",
             "instance X on 4294967297",
             "retry attempts 4294967297",
             "breaker threshold 4294967296",
             "batch on max 4294967297",
             "retry attempts 3 base 99999999999999999999999",
             "instance X on +1",
         }) {
        const std::string text = "protocol default RMI\n# two racks\n" + std::string(line);
        try {
            apply_policy_config(text, policy, &network, &rp, &batch);
            ADD_FAILURE() << "accepted: " << line;
        } catch (const ParseError& e) {
            EXPECT_EQ(e.line(), 3) << line;
        }
    }
}

TEST(PolicyConfig, ParsesReliabilityDirectives) {
    DistributionPolicy policy;
    net::SimNetwork network;
    RetryPolicy reliability;
    apply_policy_config(R"(
retry attempts 8 base 300 multiplier 1.5 cap 20000 jitter 50 budget 100 deadline 50000
dedup on capacity 64
breaker threshold 5 cooldown 9000
fault link 0 -> 1 down from 5000 until 9000
fault link 1 -> 0 flap from 5000 until 9000 period 500
fault link 0 -> 1 drop 0.25 from 10000 until 12000
fault node 1 crash from 20000 until 21000
)",
                        policy, &network, &reliability);

    EXPECT_EQ(reliability.attempts, 8u);
    EXPECT_EQ(reliability.backoff_base_us, 300u);
    EXPECT_DOUBLE_EQ(reliability.backoff_multiplier, 1.5);
    EXPECT_EQ(reliability.backoff_cap_us, 20'000u);
    EXPECT_EQ(reliability.jitter_us, 50u);
    EXPECT_EQ(reliability.retry_budget, 100u);
    EXPECT_EQ(reliability.deadline_us, 50'000u);
    EXPECT_TRUE(reliability.dedup);
    EXPECT_EQ(reliability.dedup_capacity, 64u);
    EXPECT_EQ(reliability.breaker_threshold, 5u);
    EXPECT_EQ(reliability.breaker_cooldown_us, 9000u);

    const net::FaultPlan& plan = network.fault_plan();
    EXPECT_EQ(plan.size(), 4u);
    EXPECT_TRUE(plan.link_down(0, 1, 6000));
    EXPECT_TRUE(plan.link_down(1, 0, 5100));   // flap, first (down) slice
    EXPECT_FALSE(plan.link_down(1, 0, 5600));  // second (up) slice
    EXPECT_EQ(plan.drop_override(0, 1, 11'000).value(), 0.25);
    EXPECT_TRUE(plan.node_down(1, 20'500));
}

TEST(PolicyConfig, DedupOffIsParsed) {
    DistributionPolicy policy;
    RetryPolicy reliability;
    reliability.dedup = true;
    apply_policy_config("dedup off", policy, nullptr, &reliability);
    EXPECT_FALSE(reliability.dedup);
}

TEST(PolicyConfig, ReliabilityDirectivesNeedTheirTargets) {
    DistributionPolicy policy;
    net::SimNetwork network;
    // No RetryPolicy given: retry/dedup/breaker lines are errors.
    EXPECT_THROW(apply_policy_config("retry attempts 3", policy, &network), ParseError);
    EXPECT_THROW(apply_policy_config("dedup on", policy, &network), ParseError);
    EXPECT_THROW(apply_policy_config("breaker threshold 2", policy, &network),
                 ParseError);
    // No network given: fault lines are errors.
    RetryPolicy reliability;
    EXPECT_THROW(apply_policy_config("fault node 1 crash from 0 until 5", policy,
                                     nullptr, &reliability),
                 ParseError);
}

TEST(PolicyConfig, RejectsMalformedReliabilityLines) {
    DistributionPolicy policy;
    net::SimNetwork network;
    RetryPolicy rp;
    auto bad = [&](const char* text) {
        EXPECT_THROW(apply_policy_config(text, policy, &network, &rp), ParseError)
            << text;
    };
    bad("retry attempts 0");                  // at least one attempt
    bad("retry attempts 3 base");             // dangling key
    bad("retry attempts 3 warp 9");           // unknown key
    bad("retry attempts 3 multiplier 0.5");   // shrinking backoff
    bad("dedup maybe");
    bad("dedup on size 9");
    bad("breaker threshold");
    bad("breaker threshold 2 warmup 5");
    bad("fault link 0 -> 1 down from 9 until 5");       // ends before start
    bad("fault link 0 -> 1 down from 5 until 5");       // empty window
    bad("fault link 0 -> 1 flap from 5 until 9");       // flap needs period
    bad("fault link 0 -> 1 down from 5 until 9 period 2");  // period only on flap
    bad("fault link 0 -> 1 drop 1.5 from 5 until 9");   // probability > 1
    bad("fault link 0 -> 1 melt from 5 until 9");
    bad("fault node 1 crash from 5 until 9 period 2");
    bad("fault node 1 crash until 9");
    bad("fault disk 1 crash from 5 until 9");
}

TEST(PolicyConfig, ParsesBatchDirective) {
    DistributionPolicy policy;
    BatchPolicy batching;
    apply_policy_config("batch on max 8", policy, nullptr, nullptr, &batching);
    EXPECT_TRUE(batching.enabled);
    EXPECT_EQ(batching.max_frame_calls, 8u);

    apply_policy_config("batch off", policy, nullptr, nullptr, &batching);
    EXPECT_FALSE(batching.enabled);
    EXPECT_EQ(batching.max_frame_calls, 8u);  // max untouched without 'max N'
}

TEST(PolicyConfig, BatchDirectiveNeedsItsTargetAndValidShape) {
    DistributionPolicy policy;
    // No BatchPolicy given: a batch line is an error.
    EXPECT_THROW(apply_policy_config("batch on", policy), ParseError);

    BatchPolicy batching;
    auto bad = [&](const char* text) {
        EXPECT_THROW(apply_policy_config(text, policy, nullptr, nullptr, &batching),
                     ParseError)
            << text;
    };
    bad("batch");
    bad("batch maybe");
    bad("batch on max");
    bad("batch on cap 4");
    bad("batch on max 1");  // a frame of one call is not a batch
    bad("batch on max 0");
}

TEST(PolicyConfig, ParsesAdaptDirective) {
    DistributionPolicy policy;
    AdaptPolicy adaptation;
    apply_policy_config(
        "adapt on interval 1500 migrate-threshold 128 replicate-ratio 0.8 "
        "min-calls 6",
        policy, nullptr, nullptr, nullptr, &adaptation);
    EXPECT_TRUE(adaptation.enabled);
    EXPECT_EQ(adaptation.interval_us, 1500u);
    EXPECT_EQ(adaptation.migrate_threshold_bytes, 128u);
    EXPECT_DOUBLE_EQ(adaptation.replicate_ratio, 0.8);
    EXPECT_EQ(adaptation.min_window_calls, 6u);

    // Knobs survive an off toggle (only the switch flips).
    apply_policy_config("adapt off", policy, nullptr, nullptr, nullptr,
                        &adaptation);
    EXPECT_FALSE(adaptation.enabled);
    EXPECT_EQ(adaptation.interval_us, 1500u);
}

TEST(PolicyConfig, AdaptDirectiveNeedsItsTargetAndValidShape) {
    DistributionPolicy policy;
    // No AdaptPolicy given: an adapt line is an error.
    EXPECT_THROW(apply_policy_config("adapt on", policy), ParseError);

    AdaptPolicy adaptation;
    auto bad = [&](const char* text) {
        EXPECT_THROW(apply_policy_config(text, policy, nullptr, nullptr, nullptr,
                                         &adaptation),
                     ParseError)
            << text;
    };
    bad("adapt");
    bad("adapt maybe");
    bad("adapt on interval");
    bad("adapt on interval 0");
    bad("adapt on cadence 100");
    bad("adapt on replicate-ratio 1.5");  // a ratio is a probability
    bad("adapt on replicate-ratio -0.1");
}

TEST(PolicyConfig, DurableDirectiveConfiguresDurability) {
    DistributionPolicy policy;
    DurabilityPolicy durability;
    apply_policy_config("durable on snapshot-interval 2500", policy, nullptr,
                        nullptr, nullptr, nullptr, &durability);
    EXPECT_TRUE(durability.enabled);
    EXPECT_EQ(durability.snapshot_interval_us, 2500u);

    // Interval is optional and survives an off toggle (only the switch
    // flips); 0 means never snapshot, which is legal.
    apply_policy_config("durable off", policy, nullptr, nullptr, nullptr,
                        nullptr, &durability);
    EXPECT_FALSE(durability.enabled);
    EXPECT_EQ(durability.snapshot_interval_us, 2500u);
    apply_policy_config("durable on snapshot-interval 0", policy, nullptr,
                        nullptr, nullptr, nullptr, &durability);
    EXPECT_TRUE(durability.enabled);
    EXPECT_EQ(durability.snapshot_interval_us, 0u);
}

TEST(PolicyConfig, DurableDirectiveNeedsItsTargetAndValidShape) {
    DistributionPolicy policy;
    // No DurabilityPolicy given: a durable line is an error.
    EXPECT_THROW(apply_policy_config("durable on", policy), ParseError);

    DurabilityPolicy durability;
    auto bad = [&](const char* text) {
        EXPECT_THROW(apply_policy_config(text, policy, nullptr, nullptr, nullptr,
                                         nullptr, &durability),
                     ParseError)
            << text;
    };
    bad("durable");
    bad("durable maybe");
    bad("durable on snapshot-interval");
    bad("durable on interval 100");
    bad("durable on snapshot-interval -5");
}

TEST(PolicyConfig, LaterLinesOverrideEarlier) {
    DistributionPolicy policy;
    apply_policy_config(R"(
instance A on 1
instance A on 2 via SOAP
)",
                        policy);
    EXPECT_EQ(policy.instance_placement("A", 0), (Placement{2, "SOAP"}));
}

}  // namespace
}  // namespace rafda::runtime
