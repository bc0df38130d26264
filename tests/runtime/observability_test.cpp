// End-to-end observability: one logical RPC shows up as the documented
// span tree, forwarding chains nest under the dispatch that caused them,
// and the registry is the single source the stats views and the
// adaptation engine read from.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/system.hpp"
#include "support/error.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using obs::Span;
using vm::Value;

constexpr const char* kApp = R"(
class C {
  field state I
  ctor ()V {
    return
  }
  method poke ()I {
    load 0
    load 0
    getfield C.state I
    const 1
    add
    putfield C.state I
    load 0
    getfield C.state I
    returnvalue
  }
}
)";

struct ObservabilityFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
        system->add_node();
    }

    /// The unique span matching `name` (and `node` unless -2); registers a
    /// test failure and returns an empty span when missing, so callers can
    /// keep dereferencing.
    const Span* span(const std::string& name, std::int32_t node = -2) const {
        static const Span missing{};
        const Span* found = nullptr;
        for (const Span& s : system->tracer().spans())
            if (s.name == name && (node == -2 || s.node == node)) {
                EXPECT_EQ(found, nullptr) << "duplicate span " << name;
                found = &s;
            }
        if (!found) {
            ADD_FAILURE() << "missing span " << name << " (node " << node << ")\n"
                          << system->tracer().render_tree();
            return &missing;
        }
        return found;
    }

    bool is_ancestor(const Span* ancestor, const Span* descendant) const {
        std::map<std::uint64_t, const Span*> by_id;
        for (const Span& s : system->tracer().spans()) by_id[s.id] = &s;
        for (std::uint64_t p = descendant->parent; p != 0;) {
            auto it = by_id.find(p);
            if (it == by_id.end()) return false;
            if (it->second == ancestor) return true;
            p = it->second->parent;
        }
        return false;
    }
};

TEST_F(ObservabilityFixture, RemoteCallProducesDocumentedSpanTree) {
    system->policy().set_instance_home("C", 1, "RMI");
    Value c = system->construct(0, "C", "()V");
    system->tracer().set_enabled(true);

    EXPECT_EQ(system->node(0).interp().call_virtual(c, "poke", "()I").as_int(), 1);
    ASSERT_EQ(system->tracer().spans().size(), 9u);
    EXPECT_EQ(system->tracer().current_span(), 0u);  // everything closed

    const Span* invoke = span("rpc.invoke C.poke", 0);
    const Span* encode_req = span("codec.encode_request RMI", 0);
    const Span* xfer_out = span("net.transfer 0->1", 0);
    const Span* decode_req = span("codec.decode_request RMI", 1);
    const Span* dispatch = span("rpc.dispatch poke", 1);
    const Span* execute = span("vm.execute poke", 1);
    const Span* encode_rep = span("codec.encode_reply RMI", 1);
    const Span* xfer_back = span("net.transfer 1->0", 1);
    const Span* decode_rep = span("codec.decode_reply RMI", 0);

    // One trace; everything hangs off the client-side invoke.  The
    // dispatch parent travelled in the wire header (decoded, not stack).
    for (const Span* s : {encode_req, xfer_out, decode_req, dispatch, encode_rep,
                          xfer_back, decode_rep}) {
        EXPECT_EQ(s->parent, invoke->id) << s->name;
        EXPECT_EQ(s->trace, invoke->trace) << s->name;
    }
    EXPECT_EQ(invoke->parent, 0u);
    EXPECT_EQ(execute->parent, dispatch->id);
    EXPECT_EQ(execute->trace, invoke->trace);

    // The transfers carry byte counts and advance virtual time.
    ASSERT_FALSE(xfer_out->notes.empty());
    EXPECT_EQ(xfer_out->notes[0].first, "bytes");
    EXPECT_GT(xfer_out->duration_us(), 0u);
    EXPECT_GE(invoke->duration_us(),
              xfer_out->duration_us() + xfer_back->duration_us());
}

TEST_F(ObservabilityFixture, ForwardingChainNestsUnderRemoteDispatch) {
    Value c = system->construct(0, "C", "()V");
    vm::ObjId on1 = system->migrate_instance(0, c.as_ref(), 1, "RMI");
    system->migrate_instance(1, on1, 2, "RMI");  // chain: 0 -> 1 -> 2
    system->tracer().set_enabled(true);

    EXPECT_EQ(system->node(0).interp().call_virtual(c, "poke", "()I").as_int(), 1);

    // The hop through node 1 re-enters the proxy dispatcher inside the
    // server-side vm.execute, so a second invoke nests under the first
    // dispatch — the chain is visible exactly as the wire saw it.
    const Span* invoke0 = span("rpc.invoke C.poke", 0);
    const Span* dispatch1 = span("rpc.dispatch poke", 1);
    const Span* execute1 = span("vm.execute poke", 1);
    const Span* invoke1 = span("rpc.invoke C.poke", 1);
    const Span* dispatch2 = span("rpc.dispatch poke", 2);
    const Span* execute2 = span("vm.execute poke", 2);

    EXPECT_EQ(dispatch1->parent, invoke0->id);
    EXPECT_EQ(execute1->parent, dispatch1->id);
    EXPECT_EQ(invoke1->parent, execute1->id);
    EXPECT_EQ(dispatch2->parent, invoke1->id);
    EXPECT_EQ(execute2->parent, dispatch2->id);
    for (const Span* s : {dispatch1, execute1, invoke1, dispatch2, execute2})
        EXPECT_EQ(s->trace, invoke0->trace) << s->name;
    EXPECT_TRUE(is_ancestor(invoke0, execute2));
}

TEST_F(ObservabilityFixture, MigrationEmitsSpanAndCounters) {
    Value c = system->construct(0, "C", "()V");
    system->tracer().set_enabled(true);

    system->migrate_instance(0, c.as_ref(), 1, "RMI");

    // The span names the concrete heap class being transmuted, which is
    // the transformed local implementation.
    const Span* migrate = span("runtime.migrate C_O_Local", 0);
    std::map<std::string, std::string> notes(migrate->notes.begin(),
                                             migrate->notes.end());
    EXPECT_EQ(notes["from"], "0");
    EXPECT_EQ(notes["to"], "1");

    EXPECT_EQ(system->migrations(), 1u);
    obs::Snapshot snap = system->metrics().snapshot();
    EXPECT_EQ(snap.counter_value("runtime.migrations"), 1u);
    EXPECT_GT(snap.counter_value("runtime.migration_bytes"), 0u);
}

TEST_F(ObservabilityFixture, ChainShorteningCounters) {
    Value c = system->construct(0, "C", "()V");
    vm::ObjId on1 = system->migrate_instance(0, c.as_ref(), 1, "RMI");
    system->migrate_instance(1, on1, 2, "RMI");

    EXPECT_EQ(system->shorten_chain(0, c.as_ref()), 1);
    obs::Snapshot snap = system->metrics().snapshot();
    EXPECT_EQ(snap.counter_value("runtime.chain_shortenings"), 1u);
    EXPECT_EQ(snap.counter_value("runtime.chain_hops_removed"), 1u);
}

TEST_F(ObservabilityFixture, StatsViewsAreRegistryBacked) {
    system->policy().set_instance_home("C", 1, "RMI");
    Value c = system->construct(0, "C", "()V");
    for (int k = 0; k < 5; ++k) system->node(0).interp().call_virtual(c, "poke", "()I");

    obs::Snapshot snap = system->metrics().snapshot();
    EXPECT_EQ(snap.counter_value("rpc.proto.RMI.calls"), 5u);
    EXPECT_EQ(system->rpc_totals().calls, snap.counter_value("rpc.proto.RMI.calls") +
                                              snap.counter_value("rpc.proto.RMI.creates"));
    EXPECT_EQ(system->rpc_totals().bytes,
              snap.counter_value("rpc.proto.RMI.request_bytes") +
                  snap.counter_value("rpc.proto.RMI.reply_bytes"));
    EXPECT_GT(snap.counter_value("rpc.proto.RMI.request_bytes"), 0u);

    // The typed traffic table holds the very registry handles.
    EXPECT_EQ(snap.counter_value("rpc.class_calls.C.0.1"), 5u);
    ASSERT_TRUE(system->traffic().count("C"));
    const ClassTraffic& row = system->traffic().at("C");
    ASSERT_EQ(row.edges.size(), 1u);
    EXPECT_EQ(row.edges.at({0, 1}).calls,
              system->metrics().find_counter("rpc.class_calls.C.0.1"));
    EXPECT_EQ(row.edges.at({0, 1}).calls->value(), 5u);
    EXPECT_EQ(row.latency.at("poke"), system->metrics().find_histogram("rpc.latency.C.poke"));

    // reset_stats() zeroes the registry, and the table reads the zeros.
    system->reset_stats();
    EXPECT_EQ(row.edges.at({0, 1}).calls->value(), 0u);
    EXPECT_EQ(system->rpc_totals().calls, 0u);
    EXPECT_EQ(system->rpc_totals().bytes, 0u);
    EXPECT_EQ(system->metrics().snapshot().counter_value("rpc.proto.RMI.calls"), 0u);
}

TEST_F(ObservabilityFixture, DispatchHandlesSurviveResetAndRegistryGrowth) {
    // The proxy dispatch closures cache raw Counter*/Histogram* handles on
    // first use.  reset_stats() zeroes metrics in place and registry
    // growth must not relocate them, so the cached handles have to keep
    // accumulating — a dangling or stale handle here would silently lose
    // (or double-count) class traffic after any mid-run stats reset.
    system->policy().set_instance_home("C", 1, "RMI");
    Value c = system->construct(0, "C", "()V");
    for (int k = 0; k < 3; ++k) system->node(0).interp().call_virtual(c, "poke", "()I");
    obs::Snapshot before = system->metrics().snapshot();
    ASSERT_EQ(before.counter_value("rpc.class_calls.C.0.1"), 3u);
    const obs::Sample* lat = before.find("rpc.latency.C.poke");
    ASSERT_NE(lat, nullptr);
    ASSERT_EQ(lat->count, 3u);

    system->reset_stats();
    // Grow the registry past the reset so the node-based maps rebalance
    // around the cached entries.
    for (int k = 0; k < 64; ++k)
        system->metrics().counter("test.growth." + std::to_string(k)).add();

    for (int k = 0; k < 2; ++k) system->node(0).interp().call_virtual(c, "poke", "()I");
    obs::Snapshot snap = system->metrics().snapshot();
    EXPECT_EQ(snap.counter_value("rpc.class_calls.C.0.1"), 2u);
    EXPECT_GT(snap.counter_value("rpc.class_bytes.C.0.1"), 0u);
    lat = snap.find("rpc.latency.C.poke");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 2u);  // histogram resumed from zero, not stale
    EXPECT_GT(lat->sum, 0u);
    // And the traffic table reads the same post-reset truth.
    EXPECT_EQ(system->traffic().at("C").edges.at({0, 1}).calls->value(), 2u);
}

TEST_F(ObservabilityFixture, EngineReadsExclusivelyFromTrafficTable) {
    // Traffic split 30/10 between nodes 0 and 1 toward an instance on node 2.
    system->policy().set_instance_home("C", 2, "RMI");
    Value c = system->construct(0, "C", "()V");
    const auto [home, oid] = system->resolve_terminal(0, c.as_ref());
    ASSERT_EQ(home, 2);
    Value c_on_1 = system->node(1).import_ref(2, oid, "C_O_Int", "RMI");
    system->enable_adaptation();
    system->adaptation()->track_instance("C", home, oid);
    for (int k = 0; k < 30; ++k) system->node(0).interp().call_virtual(c, "poke", "()I");
    for (int k = 0; k < 10; ++k)
        system->node(1).interp().call_virtual(c_on_1, "poke", "()I");

    // The traffic table holds exactly the edges the engine must see, and
    // the registry agrees with it.
    auto table_reads = [&] {
        std::map<std::pair<net::NodeId, net::NodeId>, std::pair<std::uint64_t, std::uint64_t>>
            out;
        for (const auto& [edge, ctr] : system->traffic().at("C").edges)
            out[edge] = {ctr.calls->value(), ctr.bytes->value()};
        return out;
    };
    const auto before = table_reads();
    EXPECT_EQ(before.at({0, 2}).first, 30u);
    EXPECT_EQ(before.at({1, 2}).first, 10u);
    obs::Snapshot snap = system->metrics().snapshot();
    EXPECT_EQ(snap.counter_value("rpc.class_calls.C.0.2"), 30u);
    EXPECT_EQ(snap.counter_value("rpc.class_calls.C.1.2"), 10u);

    system->adaptation()->tick(system->node(1).clock_us());  // after node 1's calls
    const std::vector<AdaptDecision>& decisions = system->adaptation()->decisions();
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].cls, "C");
    EXPECT_EQ(decisions[0].action, AdaptDecision::Action::Migrate);
    EXPECT_EQ(decisions[0].from, 2);
    EXPECT_EQ(decisions[0].to, 0);
    EXPECT_EQ(decisions[0].window_calls, 40u);
    // Deciding only read the table: every edge reads as it did before.
    EXPECT_EQ(table_reads(), before);
}

TEST_F(ObservabilityFixture, MethodProfilingRecordsPerMethodHistograms) {
    system->policy().set_instance_home("C", 1, "RMI");
    system->enable_method_profiling(true);
    Value c = system->construct(0, "C", "()V");
    for (int k = 0; k < 3; ++k) system->node(0).interp().call_virtual(c, "poke", "()I");

    // The executed body lives on whatever class the transform moved it to,
    // so match by VM prefix and method suffix rather than the exact class.
    obs::Snapshot snap = system->metrics().snapshot();
    const obs::Sample* poke_hist = nullptr;
    for (const auto& [name, s] : snap.samples)
        if (name.starts_with("vm.node1.method_instr.") && name.ends_with(".poke"))
            poke_hist = &s;
    ASSERT_NE(poke_hist, nullptr);
    EXPECT_EQ(poke_hist->kind, obs::Sample::Kind::Histogram);
    EXPECT_EQ(poke_hist->count, 3u);
    EXPECT_GT(poke_hist->sum, 0u);

    // The per-VM probes ride along in every snapshot.
    const obs::Sample* instr = snap.find("vm.node1.instructions");
    ASSERT_NE(instr, nullptr);
    EXPECT_GT(instr->gauge, 0);
}

TEST_F(ObservabilityFixture, TracingOffRecordsNothing) {
    system->policy().set_instance_home("C", 1, "RMI");
    Value c = system->construct(0, "C", "()V");
    system->node(0).interp().call_virtual(c, "poke", "()I");
    EXPECT_TRUE(system->tracer().spans().empty());
}

TEST(ProtocolTable, OnlyProtocolsThatCarriedACallRegisterMetrics) {
    // Every generated protocol has a codec from the start, but its
    // rpc.proto.<p>.* handles appear on its first call and not before.
    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, kApp);
    model::verify_pool(original);
    SystemOptions options;
    options.pipeline.generator.protocols = {"RMI", "CORBA", "SOAP"};
    System system(original, options);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("C", 1, "RMI");
    Value c = system.construct(0, "C", "()V");
    system.node(0).interp().call_virtual(c, "poke", "()I");

    std::map<std::string, int> per_protocol;
    for (const auto& [name, _] : system.metrics().snapshot().samples)
        for (const char* proto : {"RMI", "CORBA", "SOAP"})
            if (name.rfind(std::string("rpc.proto.") + proto + ".", 0) == 0)
                ++per_protocol[proto];
    EXPECT_EQ(per_protocol["RMI"], 9);
    EXPECT_EQ(per_protocol["CORBA"], 0);
    EXPECT_EQ(per_protocol["SOAP"], 0);
    EXPECT_THROW(system.rpc_path().protocol("DCOM"), RuntimeError);
}

}  // namespace
}  // namespace rafda::runtime
