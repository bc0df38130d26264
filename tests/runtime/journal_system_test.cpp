// The flight recorder wired through a live System (DESIGN.md §16): the
// RPC lifecycle lands in the journal in causal order, loss/retry/dedup/
// breaker/fault/migration events carry their documented payloads, the
// observation window rebases together with the utilization epoch on
// reset_stats(), and — the passivity contract — enabling the journal
// changes no virtual-time result.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "obs/journal.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using obs::JournalEvent;
using Kind = JournalEvent::Kind;
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
}
)";

struct JournalSystemFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
        system->policy().set_instance_home("Service", 1, "RMI");
    }

    std::vector<JournalEvent> events() const {
        std::vector<JournalEvent> out;
        system->journal().visit([&](const JournalEvent& e) { out.push_back(e); });
        return out;
    }

    std::map<Kind, std::size_t> kind_counts() const {
        std::map<Kind, std::size_t> out;
        for (const JournalEvent& e : events()) ++out[e.kind];
        return out;
    }

    void drop_window(net::NodeId src, net::NodeId dst, std::uint64_t from,
                     std::uint64_t until) {
        net::FaultWindow w;
        w.kind = net::FaultKind::DropRate;
        w.src = src;
        w.dst = dst;
        w.from_us = from;
        w.until_us = until;
        w.drop_probability = 1.0;
        system->network().fault_plan().add(w);
    }
};

TEST_F(JournalSystemFixture, DisabledByDefaultRecordsNothing) {
    Value svc = system->construct(0, "Service", "()V");
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});
    EXPECT_FALSE(system->journal().enabled());
    EXPECT_EQ(system->journal().size(), 0u);
}

TEST_F(JournalSystemFixture, HappyPathLifecycleInCausalOrder) {
    Value svc = system->construct(0, "Service", "()V");
    system->journal().set_enabled(true);
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(21)});

    std::vector<JournalEvent> ev = events();
    ASSERT_EQ(ev.size(), 4u);
    EXPECT_EQ(ev[0].kind, Kind::RpcSend);
    EXPECT_EQ(ev[1].kind, Kind::RpcArrive);
    EXPECT_EQ(ev[2].kind, Kind::RpcDispatch);
    EXPECT_EQ(ev[3].kind, Kind::RpcReply);

    // Documented payloads: node/peer orientation, shared request id, byte
    // counts, and the class.method detail on the send.
    EXPECT_EQ(ev[0].node, 0);
    EXPECT_EQ(ev[0].peer, 1);
    EXPECT_EQ(ev[0].detail, "Service.work");
    EXPECT_GT(ev[0].b, 0u);  // request bytes
    EXPECT_EQ(ev[1].node, 1);
    EXPECT_EQ(ev[1].peer, 0);
    EXPECT_EQ(ev[1].b, ev[0].b);
    EXPECT_EQ(ev[2].node, 1);
    EXPECT_EQ(ev[2].detail, "work");
    EXPECT_EQ(ev[3].node, 0);
    EXPECT_EQ(ev[3].peer, 1);
    EXPECT_GT(ev[3].b, 0u);  // reply bytes
    for (const JournalEvent& e : ev) EXPECT_EQ(e.a, ev[0].a) << "request id";

    // Virtual-time causality: send <= arrive <= dispatch <= reply.
    EXPECT_LE(ev[0].t_us, ev[1].t_us);
    EXPECT_LE(ev[1].t_us, ev[2].t_us);
    EXPECT_LE(ev[2].t_us, ev[3].t_us);
}

TEST_F(JournalSystemFixture, LossRetryAndLinkFaultEdges) {
    Value svc = system->construct(0, "Service", "()V");
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.attempts = 5;
    rp.backoff_base_us = 200;

    // A scheduled link-down window that eats exactly the first attempt's
    // request (fault edges track the deterministic plan, not random loss).
    const std::uint64_t t0 = system->node(0).clock_us();
    net::FaultWindow w;
    w.kind = net::FaultKind::LinkDown;
    w.src = 0;
    w.dst = 1;
    w.from_us = t0;
    w.until_us = t0 + 150;
    system->network().fault_plan().add(w);
    system->journal().set_enabled(true);

    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});

    std::map<Kind, std::size_t> counts = kind_counts();
    EXPECT_EQ(counts[Kind::RpcSend], 2u);   // first attempt + retry
    EXPECT_EQ(counts[Kind::RpcDrop], 1u);
    EXPECT_EQ(counts[Kind::RpcRetry], 1u);
    EXPECT_EQ(counts[Kind::RpcArrive], 1u);
    EXPECT_EQ(counts[Kind::RpcReply], 1u);
    // The link was observed down once and back up once — edges, not levels.
    EXPECT_EQ(counts[Kind::FaultEdge], 2u);

    std::vector<std::uint64_t> fault_states;
    for (const JournalEvent& e : events())
        if (e.kind == Kind::FaultEdge) {
            EXPECT_EQ(e.node, 0);
            EXPECT_EQ(e.peer, 1);
            EXPECT_EQ(e.detail, "link");
            fault_states.push_back(e.a);
        }
    EXPECT_EQ(fault_states, (std::vector<std::uint64_t>{1, 0}));

    for (const JournalEvent& e : events()) {
        if (e.kind == Kind::RpcDrop) {
            EXPECT_EQ(e.detail, "request");
        }
        if (e.kind == Kind::RpcRetry) {
            EXPECT_EQ(e.b, 1u);  // attempt about to run
        }
    }
}

TEST_F(JournalSystemFixture, DedupHitLandsInTheTimeline) {
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.attempts = 5;
    rp.backoff_base_us = 1000;
    rp.dedup = true;

    // First reply lost: the retry is answered from the reply cache.
    const std::uint64_t t0 = system->node(0).clock_us();
    drop_window(1, 0, t0, t0 + 400);
    system->journal().set_enabled(true);

    system->construct(0, "Service", "()V");

    std::map<Kind, std::size_t> counts = kind_counts();
    EXPECT_EQ(counts[Kind::DedupHit], 1u);
    EXPECT_EQ(counts[Kind::RpcRetry], 1u);
    bool saw_reply_drop = false;
    for (const JournalEvent& e : events()) {
        if (e.kind == Kind::RpcDrop) {
            EXPECT_EQ(e.detail, "reply");
            saw_reply_drop = true;
        }
        if (e.kind == Kind::DedupHit) {
            EXPECT_EQ(e.node, 1);  // the server absorbed the duplicate
            EXPECT_EQ(e.peer, -1);
        }
    }
    EXPECT_TRUE(saw_reply_drop);
}

TEST_F(JournalSystemFixture, BreakerTransitionsOpenHalfOpenClose) {
    RetryPolicy& rp = system->rpc_path().reliability();
    rp.breaker_threshold = 2;
    rp.breaker_cooldown_us = 5000;
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});
    system->journal().set_enabled(true);

    auto create = [&](std::uint64_t id) {
        net::CallRequest req;
        req.kind = net::RequestKind::Create;
        req.cls = "Service";
        req.request_id = id;
        req.src_node = 0;
        RpcPath& path = system->rpc_path();
        return path.rpc(0, 1, path.protocol("RMI"), req);
    };
    EXPECT_THROW(create(1), System::Dropped);
    EXPECT_THROW(create(2), System::Dropped);  // threshold: opens
    system->node(0).advance_clock(6000);       // cooldown elapses
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 0.0});
    EXPECT_FALSE(create(3).is_fault);  // half-open probe succeeds, closes

    // Transition sequence, with payload a = new state (1 open, 2 half-open,
    // 0 closed) on the breaker's destination node.
    std::vector<std::uint64_t> states;
    for (const JournalEvent& e : events())
        if (e.kind == Kind::Breaker) {
            EXPECT_EQ(e.node, 1);
            EXPECT_EQ(e.detail, "RMI");
            states.push_back(e.a);
        }
    EXPECT_EQ(states, (std::vector<std::uint64_t>{1, 2, 0}));
}

TEST_F(JournalSystemFixture, MigrationIsRecorded) {
    Value svc = system->construct(0, "Service", "()V");
    // Home policy put the instance on node 1; pull it back to node 0.
    system->journal().set_enabled(true);
    const vm::ObjId remote = system->resolve_terminal(0, svc.as_ref()).second;
    system->migrate_instance(1, remote, 0, "RMI");

    bool saw = false;
    for (const JournalEvent& e : events())
        if (e.kind == Kind::Migrate) {
            saw = true;
            EXPECT_EQ(e.node, 1);  // from
            EXPECT_EQ(e.peer, 0);  // to
            EXPECT_FALSE(e.detail.empty());
        }
    EXPECT_TRUE(saw);
}

TEST_F(JournalSystemFixture, ResetStatsRebasesJournalWithUtilizationEpoch) {
    Value svc = system->construct(0, "Service", "()V");
    system->journal().set_enabled(true);
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});
    ASSERT_GT(system->journal().size(), 0u);
    EXPECT_EQ(system->journal().epoch_us(), 0u);

    system->reset_stats();

    // Regression (satellite fix): the journal window and the utilization
    // epoch must move together, or timeline events and windowed rates
    // describe different intervals.
    EXPECT_EQ(system->journal().size(), 0u);
    EXPECT_EQ(system->journal().total_recorded(), 0u);
    EXPECT_GT(system->journal().epoch_us(), 0u);
    EXPECT_EQ(system->journal().epoch_us(), system->network().stats_epoch_us());
    EXPECT_TRUE(system->journal().enabled());  // reset rebases, never disarms

    // Post-reset events sit inside the new window.
    system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});
    for (const JournalEvent& e : events())
        EXPECT_GE(e.t_us, system->journal().epoch_us());
}

TEST_F(JournalSystemFixture, TrafficMatrixCountsBytesAndLatencyHistograms) {
    Value svc = system->construct(0, "Service", "()V");
    for (int k = 0; k < 5; ++k)
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});

    ASSERT_TRUE(system->traffic().count("Service"));
    const ClassTraffic& row = system->traffic().at("Service");
    ASSERT_EQ(row.edges.size(), 1u);  // only the invoked edge carries calls
    ASSERT_TRUE(row.edges.count({0, 1}));
    const EdgeTraffic& edge = row.edges.at({0, 1});
    EXPECT_EQ(edge.calls->value(), 5u);
    EXPECT_GT(edge.bytes->value(), 0u);

    // The per-edge bytes are the registry counter itself.
    obs::Snapshot snap = system->metrics().snapshot();
    EXPECT_EQ(edge.bytes->value(), snap.counter_value("rpc.class_bytes.Service.0.1"));

    // Per-method virtual-latency histogram: one sample per call, nonzero
    // round-trip; the table holds the registry's handle.
    const obs::Histogram* lat =
        system->metrics().find_histogram("rpc.latency.Service.work");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(row.latency.at("work"), lat);
    EXPECT_EQ(lat->count(), 5u);
    EXPECT_GT(lat->min(), 0u);
    EXPECT_LE(lat->approx_quantile(0.5), lat->approx_quantile(0.99));
}

/// Lossy two-client workload; returns (makespan, total wire bytes).
std::pair<std::uint64_t, std::uint64_t> run_lossy(bool journal_on) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    SystemOptions options;
    options.network_seed = 7;
    options.reliability.attempts = 8;
    options.reliability.backoff_base_us = 200;
    options.reliability.dedup = true;
    System system(pool, options);
    system.add_node();  // 0: server
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("Service", 0, "RMI");
    for (net::NodeId client : {net::NodeId{1}, net::NodeId{2}}) {
        for (net::NodeId dst : {net::NodeId{0}, client}) {
            net::FaultWindow w;
            w.kind = net::FaultKind::DropRate;
            w.src = dst == 0 ? client : net::NodeId{0};
            w.dst = dst == 0 ? net::NodeId{0} : client;
            w.from_us = 0;
            w.until_us = ~0ULL;
            w.drop_probability = 0.08;
            system.network().fault_plan().add(w);
        }
    }
    if (journal_on) system.journal().set_enabled(true);

    WorkloadDriver driver(system);
    for (net::NodeId client : {net::NodeId{1}, net::NodeId{2}}) {
        Value svc = system.construct(client, "Service", "()V");
        driver.add_client(client, 20, [svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(I)I",
                                                 {Value::of_int(1)});
        });
    }
    WorkloadDriver::Report report = driver.run();
    return {report.makespan_us, system.network().total_stats().bytes};
}

TEST(JournalPassivity, EnablingTheJournalChangesNoVirtualTimeResult) {
    // The E11 contract as a unit test: recording never reads clocks and
    // never draws randomness, so a seeded lossy run is bit-identical with
    // the journal on or off.
    EXPECT_EQ(run_lossy(false), run_lossy(true));
}

}  // namespace
}  // namespace rafda::runtime
