// Tracer integrity under the concurrent WorkloadDriver with retries
// (satellite of DESIGN.md §16): interleaved clients must never corrupt
// span parentage — every trace has exactly one root, every parent edge
// stays inside its own trace, retried attempts nest under the original
// invoke, and no trace mixes two clients' work.  Spans read the clock of
// the node that did the work, and tracing is passive: it changes no
// virtual-time result and no wire byte.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using obs::Span;
using vm::Value;

constexpr const char* kApp = R"(
class Service {
  field calls I
  ctor ()V {
    return
  }
  method work (I)I {
    load 1
    const 2
    mul
    returnvalue
  }
}
)";

/// Plain (non-Test) harness so the determinism test can spin up two
/// independent copies of the same seeded world.
struct TraceHarness {
    model::ClassPool pool;
    std::unique_ptr<System> system;

    TraceHarness() {
        vm::install_prelude(pool);
        model::assemble_into(pool, kApp);
        model::verify_pool(pool);
        SystemOptions options;
        options.network_seed = 7;
        options.reliability.attempts = 8;
        options.reliability.backoff_base_us = 200;
        options.reliability.dedup = true;
        system = std::make_unique<System>(pool, options);
        system->add_node();  // 0: server
        system->add_node();  // 1: client
        system->add_node();  // 2: client
        system->policy().set_instance_home("Service", 0, "RMI");
    }

    /// ~15% request loss client->server from `from_us` on, so retries are
    /// guaranteed to interleave with the other client's traffic.
    void make_lossy(std::uint64_t from_us) {
        for (net::NodeId client : {net::NodeId{1}, net::NodeId{2}}) {
            net::FaultWindow w;
            w.kind = net::FaultKind::DropRate;
            w.src = client;
            w.dst = 0;
            w.from_us = from_us;
            w.until_us = ~0ULL;
            w.drop_probability = 0.15;
            system->network().fault_plan().add(w);
        }
    }

    WorkloadDriver::Report run_clients(int calls) {
        WorkloadDriver driver(*system);
        for (net::NodeId client : {net::NodeId{1}, net::NodeId{2}}) {
            Value svc = system->construct(client, "Service", "()V");
            driver.add_client(client, static_cast<std::size_t>(calls),
                              [svc](System& sys, net::NodeId node) {
                                  sys.node(node).interp().call_virtual(
                                      svc, "work", "(I)I", {Value::of_int(3)});
                              });
        }
        make_lossy(std::max(system->node(1).clock_us(),
                            system->node(2).clock_us()));
        system->tracer().set_enabled(true);
        return driver.run();
    }
};

TEST(DriverTrace, SpanParentageSurvivesConcurrencyAndRetries) {
    TraceHarness h;
    System* system = h.system.get();
    WorkloadDriver::Report report = h.run_clients(24);
    ASSERT_EQ(report.tasks_run, 48u);
    EXPECT_EQ(report.faults, 0u);
    ASSERT_GT(report.recovered, 0u) << "workload produced no retries";
    EXPECT_EQ(system->tracer().current_span(), 0u);  // everything closed

    const std::vector<Span>& spans = system->tracer().spans();
    std::map<std::uint64_t, const Span*> by_id;
    for (const Span& s : spans) by_id[s.id] = &s;

    std::map<std::uint64_t, std::vector<const Span*>> by_trace;
    for (const Span& s : spans) by_trace[s.trace].push_back(&s);
    ASSERT_EQ(by_trace.size(), 48u);  // one trace per driver task

    for (const auto& [trace, members] : by_trace) {
        const Span* root = nullptr;
        std::set<std::int32_t> client_nodes;
        for (const Span* s : members) {
            if (s->parent == 0) {
                EXPECT_EQ(root, nullptr) << "two roots in trace " << trace;
                root = s;
            } else {
                // Every parent edge resolves, and stays inside the trace.
                auto it = by_id.find(s->parent);
                ASSERT_NE(it, by_id.end())
                    << s->name << " has dangling parent " << s->parent;
                EXPECT_EQ(it->second->trace, trace) << s->name;
            }
            if (s->name.starts_with("rpc.invoke")) client_nodes.insert(s->node);
        }
        ASSERT_NE(root, nullptr) << "rootless trace " << trace;
        EXPECT_TRUE(root->name.starts_with("rpc.invoke")) << root->name;
        // No cross-client leakage: all invokes in a trace sit on the one
        // client node that started it.
        EXPECT_EQ(client_nodes, (std::set<std::int32_t>{root->node}));
        EXPECT_TRUE(root->node == 1 || root->node == 2);
    }

    // Retried attempts nest under the original invoke: a numbered
    // `rpc.attempt N` span hangs off the root, and the retry's transfers
    // sit inside it — never under another client's trace.
    bool saw_retried_trace = false;
    for (const auto& [trace, members] : by_trace) {
        const Span* root = nullptr;
        for (const Span* s : members)
            if (s->parent == 0) root = s;
        std::vector<const Span*> attempts;
        for (const Span* s : members)
            if (s->name.starts_with("rpc.attempt")) attempts.push_back(s);
        if (attempts.empty()) continue;
        saw_retried_trace = true;
        for (const Span* a : attempts) {
            EXPECT_EQ(a->parent, root->id) << a->name;
            EXPECT_EQ(a->node, root->node) << a->name;
        }
        // Every client-side transfer belongs to the root or to one of its
        // attempt spans — retries never escape their invoke.
        for (const Span* s : members) {
            if (!s->name.starts_with("net.transfer") || s->node == 0) continue;
            bool under_attempt = false;
            for (const Span* a : attempts) under_attempt |= s->parent == a->id;
            EXPECT_TRUE(s->parent == root->id || under_attempt) << s->name;
        }
    }
    EXPECT_TRUE(saw_retried_trace);
}

TEST(DriverTrace, TraceStreamIsDeterministic) {
    auto shape = [] {
        TraceHarness h;
        h.run_clients(12);
        std::vector<std::tuple<std::string, std::int32_t, std::uint64_t>> out;
        for (const Span& s : h.system->tracer().spans())
            out.emplace_back(s.name, s.node, s.start_us);
        return out;
    };
    EXPECT_EQ(shape(), shape());
}

/// Four clients, 64 work() calls each, against server node 0 over
/// `protocol`; with `batched`, per-link batching on and pipeline depth 8.
/// Tracing (and the journal, to witness it) is on from before the first
/// construct when `traced`.
struct FourClients {
    model::ClassPool pool;
    std::unique_ptr<System> system;
    WorkloadDriver::Report report;

    FourClients(const std::string& protocol, bool batched, bool traced) {
        vm::install_prelude(pool);
        model::assemble_into(pool, kApp);
        model::verify_pool(pool);
        SystemOptions options;
        options.network_seed = 7;
        options.batching.enabled = batched;
        options.pipeline.generator.protocols = {"RMI", "CORBA", "SOAP"};
        system = std::make_unique<System>(pool, options);
        for (int k = 0; k <= 4; ++k) system->add_node();
        system->policy().set_instance_home("Service", 0, protocol);
        system->tracer().set_enabled(traced);
        system->journal().set_enabled(traced);
        WorkloadDriver driver(*system);
        if (batched) driver.set_pipeline_depth(8);
        for (net::NodeId client = 1; client <= 4; ++client) {
            Value svc = system->construct(client, "Service", "()V");
            driver.add_client(client, 64, [svc](System& sys, net::NodeId node) {
                sys.node(node).interp().call_virtual(svc, "work", "(I)I",
                                                     {Value::of_int(3)});
            });
        }
        report = driver.run();
    }

    std::pair<std::uint64_t, std::uint64_t> makespan_and_wire_bytes() const {
        return {report.makespan_us, system->network().total_stats().bytes};
    }
};

TEST(TracerPassivity, EnablingTheTracerChangesNoVirtualTimeResult) {
    // The tracer's version of the E11 contract: the trace context travels
    // host-side, never in the encoded request, so SOAP's text ids, CORBA's
    // aligned body and RMI's batch entries are the same size with tracing
    // on or off.
    for (const auto& [protocol, batched] : {std::pair<std::string, bool>{"SOAP", false},
                                            {"CORBA", false},
                                            {"RMI", true}}) {
        EXPECT_EQ(FourClients(protocol, batched, false).makespan_and_wire_bytes(),
                  FourClients(protocol, batched, true).makespan_and_wire_bytes())
            << protocol << (batched ? " batched" : "");
    }
}

TEST(DriverTrace, TransferSpansRunFromSendToArrival) {
    FourClients h("RMI", false, true);
    ASSERT_EQ(h.report.tasks_run, 256u);
    ASSERT_EQ(h.report.faults, 0u);
    ASSERT_EQ(h.system->journal().overwritten(), 0u);

    // Host execution is sequential, so the k-th request transfer is the
    // k-th send/arrival pair and the k-th reply transfer the k-th reply.
    std::vector<obs::JournalEvent> sends, arrivals, replies;
    h.system->journal().visit([&](const obs::JournalEvent& e) {
        if (e.kind == obs::JournalEvent::Kind::RpcSend) sends.push_back(e);
        if (e.kind == obs::JournalEvent::Kind::RpcArrive) arrivals.push_back(e);
        if (e.kind == obs::JournalEvent::Kind::RpcReply) replies.push_back(e);
    });
    std::vector<const Span*> requests, reply_spans;
    std::size_t zero_duration = 0;
    for (const Span& s : h.system->tracer().spans()) {
        if (!s.name.starts_with("net.transfer")) continue;
        if (s.duration_us() == 0) ++zero_duration;
        (s.name.ends_with("->0") ? requests : reply_spans).push_back(&s);
    }
    EXPECT_EQ(zero_duration, 0u) << "of " << requests.size() + reply_spans.size();
    ASSERT_EQ(requests.size(), sends.size());
    ASSERT_EQ(arrivals.size(), sends.size());
    ASSERT_EQ(reply_spans.size(), replies.size());
    std::size_t off_requests = 0, off_replies = 0;
    for (std::size_t k = 0; k < requests.size(); ++k) {
        ASSERT_EQ(arrivals[k].a, sends[k].a);  // same request id
        EXPECT_EQ(requests[k]->node, sends[k].node);
        if (requests[k]->start_us != sends[k].t_us ||
            requests[k]->end_us != arrivals[k].t_us)
            ++off_requests;
    }
    for (std::size_t k = 0; k < reply_spans.size(); ++k)
        if (reply_spans[k]->end_us != replies[k].t_us) ++off_replies;
    EXPECT_EQ(off_requests, 0u) << "of " << requests.size() << " request transfers";
    EXPECT_EQ(off_replies, 0u) << "of " << reply_spans.size() << " reply transfers";
}

}  // namespace
}  // namespace rafda::runtime
