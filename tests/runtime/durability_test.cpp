// Durable nodes end to end (DESIGN.md §20).  The invariants under test:
//
//   - an in-place restart replays the WAL: the recovered node resumes
//     with its pre-crash heap *and* reply cache, so a duplicate request
//     dedup-hits instead of re-executing (exactly-once survives the
//     crash it used to die on — contrast CrashFailsFastAndRestart-
//     LosesReplyCache in reliable_rpc_test.cpp);
//   - inline caches warmed in one incarnation never validate in the
//     next: a hot call path across crash/restart stays correct;
//   - migration-by-recovery rebuilds a crashed node's objects on a
//     *different* live node with identical per-call results, is
//     idempotent per crash, and chains through the crashed node's own
//     eventual restart;
//   - the adaptation engine uses it as a defer-free path around crash
//     windows (Action::Recover), with exactly-once preserved;
//   - durable off is provably inert: no wal.* counters even exist.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Service {
  field calls I
  ctor ()V {
    return
  }
  method work (I)I {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    const 2
    mul
    returnvalue
  }
  method calls ()I {
    load 0
    getfield Service.calls I
    returnvalue
  }
}
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

struct DurableFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override { make_system(/*durable=*/true); }

    void make_system(bool durable) {
        original = model::ClassPool();
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        SystemOptions options;
        options.durability.enabled = durable;
        system = std::make_unique<System>(original, options);
        system->add_node();  // 0: client
        system->add_node();  // 1: server (crashes)
        system->add_node();  // 2: recovery target
        system->policy().set_instance_home("Service", 1, "RMI");
        system->policy().set_singleton_home("Counter", 1, "RMI");
    }

    std::uint64_t counter(const std::string& name) {
        return system->metrics().counter(name).value();
    }

    void crash_window(net::NodeId node, std::uint64_t from, std::uint64_t until) {
        net::FaultWindow w;
        w.kind = net::FaultKind::NodeCrash;
        w.node = node;
        w.from_us = from;
        w.until_us = until;
        system->network().fault_plan().add(w);
    }

    net::CallReply send_create(std::uint64_t request_id) {
        net::CallRequest req;
        req.kind = net::RequestKind::Create;
        req.cls = "Service";
        req.request_id = request_id;
        req.src_node = 0;
        return system->rpc(0, 1, "RMI", req);
    }
};

TEST_F(DurableFixture, RestartReplaysHeapAndReplyCache) {
    system->reliability().dedup = true;

    Value svc = system->construct(0, "Service", "()V");
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(svc, "work", "(I)I", {Value::of_int(21)})
                  .as_int(),
              42);
    send_create(900);
    send_create(900);  // cache answers
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);
    const std::size_t heap_before = system->node(1).interp().heap().size();

    // Crash and restart the server.  The first request to arrive after
    // the window replays the WAL before being handled.
    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 100);
    system->node(0).advance_clock(200);
    send_create(900);

    // Soft-state behaviour was: cache gone, re-execute, heap grows.
    // Durable behaviour: the recovered cache answers the duplicate.
    EXPECT_EQ(counter("rpc.dedup_hits"), 2u);
    EXPECT_EQ(system->node(1).interp().heap().size(), heap_before);
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);
    EXPECT_GT(counter("wal.replayed_records"), 0u);
    EXPECT_EQ(counter("wal.recoveries"), 1u);

    // Instance state replayed too: the pre-crash work() call is still
    // counted, and the object remains live and callable.
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(),
              1);
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(svc, "work", "(I)I", {Value::of_int(5)})
                  .as_int(),
              10);
}

TEST_F(DurableFixture, InlineCachesNeverLeakAcrossIncarnations) {
    // Satellite regression: PR 2's inline caches memoize dispatch/field
    // lookups per call site.  A restart rebuilds the interpreter's tables
    // at new addresses; a site warmed pre-crash must re-validate, not
    // reuse its stale pointers.  The incarnation counter folds into
    // cache_gen() so every pre-crash site misses once and re-warms.
    auto bump = [&](int by) {
        return system
            ->call_static(0, "Counter", "bump", "(I)I", {Value::of_int(by)})
            .as_int();
    };
    int total = 0;
    for (int k = 0; k < 8; ++k) total = bump(1);  // hot: sites warm on node 1
    EXPECT_EQ(total, 8);

    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 100);
    system->node(0).advance_clock(200);

    // Recovered static state + fresh caches: the count continues exactly.
    EXPECT_EQ(bump(1), 9);
    EXPECT_EQ(bump(1), 10);
    EXPECT_EQ(system->call_static(0, "Counter", "total", "()I").as_int(), 10);
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);
}

TEST_F(DurableFixture, MigrationByRecoveryMatchesUncrashedResults) {
    // Baseline: the same call sequence against a server that never
    // crashes.
    std::vector<std::int32_t> baseline;
    {
        Value svc = system->construct(0, "Service", "()V");
        for (int k = 1; k <= 3; ++k)
            baseline.push_back(system->node(0)
                                   .interp()
                                   .call_virtual(svc, "work", "(I)I",
                                                 {Value::of_int(k)})
                                   .as_int());
        baseline.push_back(
            system->node(0).interp().call_virtual(svc, "calls", "()I").as_int());
    }

    make_system(/*durable=*/true);
    Value svc = system->construct(0, "Service", "()V");
    std::vector<std::int32_t> observed;
    for (int k = 1; k <= 2; ++k)
        observed.push_back(
            system->node(0)
                .interp()
                .call_virtual(svc, "work", "(I)I", {Value::of_int(k)})
                .as_int());

    // The server dies for good (as far as this run is concerned); its
    // image is rebuilt on node 2 from the WAL.
    crash_window(1, system->node(0).clock_us(), ~0ULL);
    const std::size_t restored = system->recover_node_onto(1, 2);
    EXPECT_GT(restored, 0u);
    ASSERT_NE(system->relocation_of(1), nullptr);
    EXPECT_EQ(system->relocation_of(1)->target, 2);
    EXPECT_EQ(counter("wal.relocated_objects"), restored);

    // Idempotent per crash: a second sweep re-materializes nothing.
    EXPECT_EQ(system->recover_node_onto(1, 2), 0u);

    // The client's proxy was repointed; the remaining calls land on node
    // 2 and continue the instance state exactly where the crash cut it.
    observed.push_back(system->node(0)
                           .interp()
                           .call_virtual(svc, "work", "(I)I", {Value::of_int(3)})
                           .as_int());
    observed.push_back(
        system->node(0).interp().call_virtual(svc, "calls", "()I").as_int());
    EXPECT_EQ(observed, baseline);
}

TEST_F(DurableFixture, RelocationChainsThroughTheCrashedNodesRestart) {
    system->reliability().dedup = true;
    Value svc = system->construct(0, "Service", "()V");
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});

    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 1'000);
    ASSERT_GT(system->recover_node_onto(1, 2), 0u);
    ASSERT_NE(system->relocation_of(1), nullptr);

    // When node 1 itself restarts, replaying its WAL applies the Relocate
    // records: its copies become proxies to node 2, it is a live
    // forwarder again, and the relocation bookkeeping clears.
    system->node(0).advance_clock(2'000);
    send_create(77);  // any arrival triggers the restart replay
    EXPECT_EQ(system->relocation_of(1), nullptr);
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);

    // The object stays singular: calls through the original proxy reach
    // the one relocated instance, wherever the route enters.
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(),
              1);
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(svc, "work", "(I)I", {Value::of_int(4)})
                  .as_int(),
              8);
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(),
              2);
}

TEST_F(DurableFixture, DurableOffRegistersNothing) {
    make_system(/*durable=*/false);
    EXPECT_FALSE(system->durability_enabled());
    for (net::NodeId n = 0; n < 3; ++n)
        EXPECT_FALSE(system->node(n).durable());

    Value svc = system->construct(0, "Service", "()V");
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});

    bool wal_counters = false;
    system->metrics().visit_counters([&](const std::string& name, std::uint64_t) {
        if (name.rfind("wal.", 0) == 0) wal_counters = true;
    });
    EXPECT_FALSE(wal_counters);
}

TEST_F(DurableFixture, RestartWithDedupCapacityZeroCachesNothing) {
    // Regression: replaying Reply records after the capacity dropped to 0
    // ran cache_reply's eviction loop on an empty queue (front/pop_front
    // on an empty deque).  Replay must cache nothing instead.
    system->reliability().dedup = true;
    send_create(900);
    send_create(901);
    const std::size_t heap_before = system->node(1).interp().heap().size();

    system->reliability().dedup_capacity = 0;
    const std::uint64_t t0 = system->node(0).clock_us();
    crash_window(1, t0, t0 + 100);
    system->node(0).advance_clock(200);
    send_create(900);  // triggers the restart replay; capacity 0 = no dedup
    EXPECT_EQ(system->node(1).wal()->stats().recoveries, 1u);
    EXPECT_EQ(counter("rpc.dedup_hits"), 0u);
    EXPECT_GT(system->node(1).interp().heap().size(), heap_before);

    // With the capacity back, the restart's empty cache shows: 901
    // re-executes once, then dedups as usual.
    system->reliability().dedup_capacity = 1024;
    send_create(901);
    EXPECT_EQ(counter("rpc.dedup_hits"), 0u);
    send_create(901);
    EXPECT_EQ(counter("rpc.dedup_hits"), 1u);
}

/// Re-appends every replayed record through Wal's field-by-field API.
struct Reappend final : WalVisitor {
    explicit Reappend(Wal& out) : w(out) {}
    Wal& w;
    std::size_t replies = 0;

    void on_alloc(std::uint64_t t, const std::string& cls) override {
        w.append_alloc(t, cls);
    }
    void on_alloc_array(std::uint64_t t, const std::string& elem,
                        std::uint64_t n) override {
        w.append_alloc_array(t, elem, n);
    }
    void on_field_put(std::uint64_t t, std::uint64_t oid, std::uint64_t slot,
                      const Value& v) override {
        w.append_field_put(t, oid, slot, v);
    }
    void on_array_put(std::uint64_t t, std::uint64_t oid, std::uint64_t index,
                      const Value& v) override {
        w.append_array_put(t, oid, index, v);
    }
    void on_static_put(std::uint64_t t, const std::string& cls, const std::string& field,
                       const Value& v) override {
        w.append_static_put(t, cls, field, v);
    }
    void on_class_init(std::uint64_t t, const std::string& cls) override {
        w.append_class_init(t, cls);
    }
    void on_singleton(std::uint64_t t, const std::string& cls, std::uint64_t oid) override {
        w.append_singleton(t, cls, oid);
    }
    void on_singleton_drop(std::uint64_t t, const std::string& cls) override {
        w.append_singleton_drop(t, cls);
    }
    void on_proxy_import(std::uint64_t t, std::int32_t node, std::uint64_t oid,
                         const std::string& iface, const std::string& protocol,
                         std::uint64_t local) override {
        w.append_proxy_import(t, node, oid, iface, protocol, local);
    }
    void on_reply(std::uint64_t t, std::uint64_t id, const net::CallReply& reply) override {
        ++replies;
        w.append_reply(t, id, reply);
    }
    void on_transmute(std::uint64_t t, std::uint64_t oid, const std::string& cls,
                      std::int32_t node, std::uint64_t remote) override {
        w.append_transmute(t, oid, cls, node, remote);
    }
    void on_relocate(std::uint64_t t, std::uint64_t oid, const std::string& cls,
                     std::int32_t node, std::uint64_t remote) override {
        w.append_relocate(t, oid, cls, node, remote);
    }
};

TEST_F(DurableFixture, CheckpointMatchesFreshEncodingAndIsRebuiltByRestart) {
    // Checkpoints copy each cached reply's stored encoding and combine its
    // CRC; the oracle is the plain field-by-field append of the same
    // records, which must produce the same bytes.
    system->reliability().dedup = true;
    system->reliability().dedup_capacity = 48;  // FIFO eviction churns
    Value svc = system->construct(0, "Service", "()V");
    for (int k = 0; k < 120; ++k) {
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(k)});
        send_create(5000 + static_cast<std::uint64_t>(k / 2));  // every other one dedups
    }
    EXPECT_EQ(counter("rpc.dedup_hits"), 60u);

    Node& server = system->node(1);
    server.take_snapshot();
    const Bytes checkpoint = server.wal()->snapshot();
    Wal fresh;
    Reappend oracle(fresh);
    EXPECT_TRUE(Wal::replay(checkpoint, oracle).clean);
    EXPECT_EQ(oracle.replies, 48u);
    EXPECT_EQ(fresh.log(), checkpoint);

    // Crash and restart in place with no calls in between: replay rebuilds
    // every stored encoding, so the next checkpoint is the same bytes.
    server.apply_restarts(1);
    ASSERT_EQ(server.wal()->stats().recoveries, 1u);
    server.take_snapshot();
    EXPECT_EQ(server.wal()->snapshot(), checkpoint);
}

TEST_F(DurableFixture, DurabilitySwitchedOnLaterEncodesTheCachedReplies) {
    // Replies cached while the node was volatile get their WAL encoding
    // when durability comes on, so the first checkpoint carries them whole.
    make_system(/*durable=*/false);
    system->reliability().dedup = true;
    for (std::uint64_t id = 700; id < 710; ++id) send_create(id);
    system->enable_durability(DurabilityPolicy{});

    Node& server = system->node(1);
    server.take_snapshot();
    Wal fresh;
    Reappend oracle(fresh);
    EXPECT_TRUE(Wal::replay(server.wal()->snapshot(), oracle).clean);
    EXPECT_EQ(oracle.replies, 10u);
    EXPECT_EQ(fresh.log(), server.wal()->snapshot());
}

// ---- the adaptation engine rides migration-by-recovery ----------------

struct EngineOutcome {
    std::uint64_t faults = 0;
    std::uint64_t recovers = 0;
    std::uint64_t in_window_recovers = 0;
    std::int32_t executions = 0;
    net::NodeId home = -1;
    net::NodeId recover_to = -1;
};

EngineOutcome run_engine_workload(bool durable) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);

    SystemOptions options;
    options.network_seed = 11;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    options.reliability.attempts = 16;
    options.reliability.backoff_base_us = 200;
    options.reliability.backoff_multiplier = 2.0;
    options.reliability.backoff_cap_us = 2'000;
    options.reliability.dedup = true;
    options.durability.enabled = durable;

    System system(pool, options);
    system.add_node();  // 0: singleton home — crashes mid-run
    system.add_node();  // 1: the dominant Counter caller, Service home
    system.add_node();  // 2: Service caller — its live 2<->1 traffic keeps
                        //    virtual time moving through the crash window
    system.policy().set_singleton_home("Counter", 0, "RMI");
    system.policy().set_instance_home("Service", 1, "RMI");

    AdaptPolicy eager;
    eager.interval_us = 600;
    eager.migrate_threshold_bytes = 64;
    eager.min_window_calls = 4;
    system.enable_adaptation(eager);

    // Warm-up before the crash: the Service proxy exists on node 2 and
    // node 1 is the dominant (sole) Counter caller — the source the engine
    // will pick as the recovery target.  This runs outside the driver so
    // the crash window can be anchored to the *measured* virtual time
    // afterwards; setup RPC costs never skew the window placement.
    Value svc = system.construct(2, "Service", "()V");
    for (int k = 0; k < 8; ++k)
        system.call_static(1, "Counter", "bump", "(I)I", {vm::Value::of_int(1)});
    const std::uint64_t t_start = system.network().now_us();

    // The crash opens after the warm-up and closes before the Service
    // client's traffic runs out: no dispatched call ever straddles the
    // window, so the client's small steps (and the controller heartbeats
    // interleaved with them on the VirtualClock timeline) carry virtual
    // time *through* the window instead of one stalled retry loop
    // dragging it across in a single dispatch.  The first heartbeat fires
    // at t_start + interval, inside the window by construction.
    const std::uint64_t crash_from = t_start + 100;
    const std::uint64_t crash_until = t_start + 1'400;
    net::FaultWindow w;
    w.kind = net::FaultKind::NodeCrash;
    w.node = 0;
    w.from_us = crash_from;
    w.until_us = crash_until;
    system.network().fault_plan().add(w);

    WorkloadDriver driver(system);
    driver.set_fairness(WorkloadDriver::Fairness::VirtualClock);
    // Node 2: 40 Service calls span the whole window, then 12 more bumps
    // land after the in-window recovery has moved Counter off node 0 —
    // exactly-once across the relocation means all 20 bumps count once.
    std::vector<WorkloadDriver::Task> tasks;
    for (int i = 0; i < 40; ++i)
        tasks.push_back([svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(I)I",
                                                 {vm::Value::of_int(1)});
        });
    for (int i = 0; i < 12; ++i)
        tasks.push_back([](System& sys, net::NodeId node) {
            sys.call_static(node, "Counter", "bump", "(I)I",
                            {vm::Value::of_int(1)});
        });
    driver.add_client(2, tasks);
    WorkloadDriver::Report report = driver.run();

    EngineOutcome out;
    out.faults = report.faults;
    out.home = system.find_singleton("Counter").first;
    out.executions = system.call_static(1, "Counter", "total", "()I").as_int();
    for (const AdaptDecision& d : system.adaptation()->decisions()) {
        if (d.action != AdaptDecision::Action::Recover) continue;
        ++out.recovers;
        out.recover_to = d.to;
        if (d.t_us >= crash_from && d.t_us < crash_until)
            ++out.in_window_recovers;
    }
    return out;
}

TEST(DurableAdapt, EngineRecoversAroundTheCrashWindowExactlyOnce) {
    // Soft state never produces a Recover decision — there is no durable
    // image to rebuild from, so the crashed home's skew is handled by the
    // legacy paths alone.
    EngineOutcome soft = run_engine_workload(/*durable=*/false);
    EXPECT_EQ(soft.recovers, 0u);

    // Durable: a tick inside the crash window rebuilds the Counter
    // singleton on its dominant caller's node from the crashed home's WAL
    // — no defer, no waiting for the window to close — and the run
    // completes exactly-once: every bump counted, none double-counted.
    EngineOutcome durable = run_engine_workload(/*durable=*/true);
    EXPECT_GE(durable.recovers, 1u);
    EXPECT_GE(durable.in_window_recovers, 1u);
    EXPECT_EQ(durable.faults, 0u);
    // The recovery target is the dominant caller's node; the engine is
    // free to keep adapting afterwards, but the crashed node is never the
    // home again.
    EXPECT_EQ(durable.recover_to, 1);
    EXPECT_NE(durable.home, 0);
    EXPECT_EQ(durable.executions, 20);
}

}  // namespace
}  // namespace rafda::runtime
