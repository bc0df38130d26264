// AdaptationEngine (DESIGN.md §19) — the closed loop between observation
// and placement, end to end.
//
// The invariants under test, in rough order of importance:
//   - a skewed window migrates the hot singleton toward its dominant
//     caller, autonomously, and the placement sticks (no ping-pong once
//     the traffic goes local);
//   - the migrate threshold really gates: an absurd threshold means the
//     controller observes but never acts, and the run is indistinguishable
//     from adaptation-off in wire terms;
//   - off means OFF: no adapt counters exist, and the event-order digest
//     matches a run that never touched the adaptation API;
//   - a migration whose destination sits inside a FaultPlan crash window
//     defers and is retried by a later tick, with exactly-once execution
//     preserved under retries + dedup (the E10 invariant);
//   - two runs from one seed take identical decisions at identical
//     virtual times;
//   - a tracked instance is followed wherever it moves, by the engine or
//     by anyone else, and moving it toward its callers pays off in the
//     next window.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

constexpr const char* kApp = R"(
class Counter {
  static field total I
  static method bump (I)I {
    getstatic Counter.total I
    load 0
    add
    dup
    putstatic Counter.total I
    returnvalue
  }
  static method total ()I {
    getstatic Counter.total I
    returnvalue
  }
}
)";

struct AdaptRunConfig {
    bool adapt = false;
    AdaptPolicy policy;
    bool crash_caller = false;  // node 1 crashes mid-run
    bool drop_faults = false;   // E10-style lossy links both ways
    bool reliable = false;
    int calls = 40;
};

using DecisionKey = std::tuple<std::uint64_t, std::uint64_t, std::string,
                               std::string, net::NodeId, net::NodeId>;

struct AdaptOutcome {
    std::uint64_t makespan_us = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t digest = 0;
    std::uint64_t faults = 0;
    std::uint64_t retries = 0;
    std::uint64_t migrations = 0;
    std::uint64_t defers = 0;
    std::int32_t executions = 0;   // Counter.total after the run
    net::NodeId home = -1;         // where the singleton ended up
    bool adapt_counters_exist = false;
    std::vector<DecisionKey> decisions;
};

AdaptOutcome run_workload(const AdaptRunConfig& cfg) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);

    SystemOptions options;
    options.network_seed = 11;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    if (cfg.reliable) {
        options.reliability.attempts = 16;
        options.reliability.backoff_base_us = 200;
        options.reliability.backoff_multiplier = 2.0;
        options.reliability.backoff_cap_us = 2'000;
        options.reliability.dedup = true;
    }
    System system(pool, options);
    system.add_node();  // 0: initial singleton home, otherwise idle
    system.add_node();  // 1: the dominant caller
    system.add_node();  // 2: bystander
    system.policy().set_singleton_home("Counter", 0, "RMI");
    if (cfg.adapt) system.enable_adaptation(cfg.policy);
    if (cfg.crash_caller) {
        net::FaultWindow w;
        w.kind = net::FaultKind::NodeCrash;
        w.node = 1;
        w.from_us = 500;
        w.until_us = 2'500;
        system.network().fault_plan().add(w);
    }
    if (cfg.drop_faults) {
        for (bool inbound : {false, true}) {
            net::FaultWindow w;
            w.kind = net::FaultKind::DropRate;
            w.src = inbound ? 0 : 1;
            w.dst = inbound ? 1 : 0;
            w.from_us = 0;
            w.until_us = ~0ULL;
            w.drop_probability = 0.08;
            system.network().fault_plan().add(w);
        }
    }

    WorkloadDriver driver(system);
    driver.add_client(1, static_cast<std::size_t>(cfg.calls),
                      [](System& sys, net::NodeId node) {
                          sys.call_static(node, "Counter", "bump", "(I)I",
                                          {vm::Value::of_int(1)});
                      });
    WorkloadDriver::Report report = driver.run();

    AdaptOutcome out;
    out.makespan_us = report.makespan_us;
    out.digest = report.event_order_digest;
    out.faults = report.faults;
    out.wire_bytes = system.network().total_stats().bytes;
    out.retries = system.metrics().counter("rpc.retries").value();
    out.home = system.find_singleton("Counter").first;
    out.executions =
        system.call_static(1, "Counter", "total", "()I").as_int();
    system.metrics().visit_counters([&](const std::string& name, std::uint64_t) {
        if (name.rfind("adapt.", 0) == 0) out.adapt_counters_exist = true;
    });
    if (cfg.adapt) {
        out.migrations = system.metrics().counter("adapt.migrations").value();
        for (const AdaptDecision& d : system.adaptation()->decisions()) {
            if (d.action == AdaptDecision::Action::Defer) ++out.defers;
            out.decisions.emplace_back(d.seq, d.t_us, d.cls,
                                       adapt_action_name(d.action), d.from,
                                       d.to);
        }
    }
    return out;
}

AdaptPolicy eager_policy() {
    AdaptPolicy p;
    p.interval_us = 600;
    p.migrate_threshold_bytes = 64;
    p.min_window_calls = 4;
    return p;
}

TEST(Adapt, SkewedTrafficMigratesSingletonTowardCaller) {
    AdaptRunConfig off;
    AdaptOutcome base = run_workload(off);
    EXPECT_EQ(base.home, 0);
    EXPECT_EQ(base.executions, off.calls);
    EXPECT_FALSE(base.adapt_counters_exist);

    AdaptRunConfig on;
    on.adapt = true;
    on.policy = eager_policy();
    AdaptOutcome adapted = run_workload(on);

    // The controller noticed node 1's one-sided traffic and moved the
    // singleton there mid-run — after which the calls are loopback.
    EXPECT_GE(adapted.migrations, 1u);
    EXPECT_EQ(adapted.home, 1);
    EXPECT_EQ(adapted.executions, on.calls);
    EXPECT_EQ(adapted.faults, 0u);
    ASSERT_FALSE(adapted.decisions.empty());
    EXPECT_EQ(std::get<3>(adapted.decisions.front()), "migrate");
    EXPECT_EQ(std::get<4>(adapted.decisions.front()), 0);
    EXPECT_EQ(std::get<5>(adapted.decisions.front()), 1);

    // And it paid off: the adapted run moved fewer bytes end to end
    // (the migration payload included) and finished no later.
    EXPECT_LT(adapted.wire_bytes, base.wire_bytes);
    EXPECT_LE(adapted.makespan_us, base.makespan_us);
}

TEST(Adapt, ResetStatsRebasesTheWindows) {
    // Regression: reset_stats() zeroes the counters the windows are deltas
    // of.  The engine used to keep its pre-reset baselines, so M post-reset
    // calls after N pre-reset ones read as a window of M - N.
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    SystemOptions options;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    System system(pool, options);
    for (int k = 0; k < 3; ++k) system.add_node();
    system.policy().set_singleton_home("Counter", 0, "RMI");
    AdaptPolicy policy;
    policy.min_window_calls = 8;
    system.enable_adaptation(policy);
    auto bump = [&system](int calls) {
        for (int k = 0; k < calls; ++k)
            system.call_static(1, "Counter", "bump", "(I)I", {vm::Value::of_int(1)});
    };

    bump(6);
    system.adaptation()->tick(system.node(1).clock_us());
    EXPECT_TRUE(system.adaptation()->decisions().empty());  // 6 < min_window_calls

    system.reset_stats();
    bump(10);
    system.adaptation()->tick(system.node(1).clock_us());
    const std::vector<AdaptDecision>& decisions = system.adaptation()->decisions();
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].window_calls, 10u);
    EXPECT_EQ(decisions[0].action, AdaptDecision::Action::Migrate);
    EXPECT_EQ(decisions[0].to, 1);
}

TEST(Adapt, MigrateThresholdGatesTheController) {
    AdaptRunConfig off;
    AdaptOutcome base = run_workload(off);

    AdaptRunConfig on;
    on.adapt = true;
    on.policy = eager_policy();
    on.policy.migrate_threshold_bytes = 1'000'000'000;  // never worth it
    AdaptOutcome gated = run_workload(on);

    // Observes, never acts: placement and the wire schedule match the
    // adaptation-off run exactly.
    EXPECT_EQ(gated.migrations, 0u);
    EXPECT_TRUE(gated.decisions.empty());
    EXPECT_EQ(gated.home, 0);
    EXPECT_EQ(gated.wire_bytes, base.wire_bytes);
    EXPECT_EQ(gated.makespan_us, base.makespan_us);
}

TEST(Adapt, DisabledIsByteIdenticalAcrossRuns) {
    AdaptRunConfig off;
    AdaptOutcome a = run_workload(off);
    AdaptOutcome b = run_workload(off);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_FALSE(a.adapt_counters_exist);
}

TEST(Adapt, MigrationToCrashedNodeDefersAndRetries) {
    // The E10 fault plan with the controller in the loop: lossy links
    // both ways (retries + dedup absorb them), and node 1 — the
    // migration's natural destination — crashed over [500, 2500)us.
    // Ticks inside the window that want to migrate must defer; a tick
    // after the window completes the move, and the workload rides it all
    // out exactly-once.
    AdaptRunConfig cfg;
    cfg.adapt = true;
    cfg.policy = eager_policy();
    cfg.crash_caller = true;
    cfg.drop_faults = true;
    cfg.reliable = true;
    AdaptOutcome out = run_workload(cfg);

    EXPECT_GE(out.defers, 1u);
    EXPECT_GE(out.migrations, 1u);
    EXPECT_EQ(out.home, 1);
    EXPECT_EQ(out.faults, 0u);
    EXPECT_GT(out.retries, 0u);  // the crash really did bite
    EXPECT_EQ(out.executions, cfg.calls);

    // Every defer precedes the migration, and the migration's decision
    // time falls outside the crash window.
    bool migrated = false;
    for (const DecisionKey& d : out.decisions) {
        if (std::get<3>(d) == "defer") {
            EXPECT_FALSE(migrated);
            EXPECT_GE(std::get<1>(d), 500u);
            EXPECT_LT(std::get<1>(d), 2'500u);
        } else if (std::get<3>(d) == "migrate") {
            migrated = true;
            EXPECT_GE(std::get<1>(d), 2'500u);
        }
    }
    EXPECT_TRUE(migrated);
}

TEST(Adapt, DecisionsAreDeterministicFromTheSeed) {
    AdaptRunConfig cfg;
    cfg.adapt = true;
    cfg.policy = eager_policy();
    cfg.crash_caller = true;
    cfg.drop_faults = true;
    cfg.reliable = true;
    AdaptOutcome a = run_workload(cfg);
    AdaptOutcome b = run_workload(cfg);
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.digest, b.digest);
}

// ---- tracked instances ----

constexpr const char* kCellApp = R"(
class Cell {
  field n I
  ctor ()V {
    return
  }
  method poke ()I {
    load 0
    load 0
    getfield Cell.n I
    const 1
    add
    putfield Cell.n I
    load 0
    getfield Cell.n I
    returnvalue
  }
}
)";

/// One Cell deployed on node 2 and tracked by the engine; node 0 holds the
/// reference `cell`.
struct AdaptTracked : ::testing::Test {
    model::ClassPool pool;
    std::unique_ptr<System> system;
    vm::Value cell;

    void SetUp() override {
        vm::install_prelude(pool);
        model::assemble_into(pool, kCellApp);
        model::verify_pool(pool);
        SystemOptions options;
        options.default_link = net::LinkParams{20, 0.0, 0.0};
        system = std::make_unique<System>(pool, options);
        for (int k = 0; k < 3; ++k) system->add_node();
        system->policy().set_instance_home("Cell", 2, "RMI");
        cell = system->construct(0, "Cell", "()V");
        system->enable_adaptation();
        const auto [home, oid] = system->resolve_terminal(0, cell.as_ref());
        system->adaptation()->track_instance("Cell", home, oid);
    }

    /// `calls` pokes through `ref` from node `from`; returns the virtual
    /// time they took.
    std::uint64_t poke(net::NodeId from, vm::Value ref, int calls) {
        const std::uint64_t t0 = system->network().now_us();
        for (int k = 0; k < calls; ++k)
            system->node(from).interp().call_virtual(ref, "poke", "()I");
        return system->network().now_us() - t0;
    }

    std::pair<net::NodeId, vm::ObjId> where() {
        return system->resolve_terminal(0, cell.as_ref());
    }
};

TEST_F(AdaptTracked, InstanceMovedOutsideTheEngineIsFollowed) {
    // Regression: the engine kept the tracked (node, oid) it was given.
    // After a migration it did not make, that slot is a proxy, and the next
    // tick threw "can only migrate local implementations" out of tick().
    poke(0, cell, 30);
    const auto [home, oid] = where();
    system->migrate_instance(home, oid, 1, "RMI");
    ASSERT_EQ(where().first, 1);

    ASSERT_NO_THROW(system->adaptation()->tick(system->node(0).clock_us()));
    const std::vector<AdaptDecision>& decisions = system->adaptation()->decisions();
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].action, AdaptDecision::Action::Migrate);
    EXPECT_EQ(decisions[0].from, 1);
    EXPECT_EQ(decisions[0].to, 0);
    EXPECT_EQ(where().first, 0);
    EXPECT_EQ(system->node(0).interp().call_virtual(cell, "poke", "()I").as_int(), 31);
}

TEST_F(AdaptTracked, OidStaysCorrectAcrossTwoMoves) {
    // Window 1: node 0 calls, so the engine moves the cell 2 -> 0.
    poke(0, cell, 20);
    system->adaptation()->tick(system->node(0).clock_us());
    const auto [home, oid] = where();
    ASSERT_EQ(home, 0);

    // Window 2: only node 1 calls, straight at the new home; the engine
    // moves the cell 0 -> 1 from its own tracking entry.
    vm::Value on_1 = system->node(1).import_ref(0, oid, "Cell_O_Int", "RMI");
    poke(1, on_1, 20);
    system->adaptation()->tick(system->node(1).clock_us());

    const std::vector<AdaptDecision>& decisions = system->adaptation()->decisions();
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_EQ(decisions[0].from, 2);
    EXPECT_EQ(decisions[0].to, 0);
    EXPECT_EQ(decisions[1].from, 0);
    EXPECT_EQ(decisions[1].to, 1);
    const auto [node, live] = where();
    EXPECT_EQ(node, 1);
    EXPECT_EQ(system->node(1).interp().class_of(live).name, "Cell_O_Local");
    // One object throughout: every poke landed on the same state.
    EXPECT_EQ(system->node(1).interp().call_virtual(on_1, "poke", "()I").as_int(), 41);
}

TEST_F(AdaptTracked, ClosingTheLoopLowersTheNextWindow) {
    const std::uint64_t before = poke(0, cell, 30);
    system->adaptation()->tick(system->node(0).clock_us());
    system->shorten_chain(0, cell.as_ref());
    const std::uint64_t after = poke(0, cell, 30);
    EXPECT_GT(before, 0u);
    EXPECT_EQ(after, 0u);  // fully local now
}

}  // namespace
}  // namespace rafda::runtime
