// The reference timeline (tests/support/reference_timeline.hpp): checked
// first against hand-computed timelines, then used as the oracle for
// System runs of one client, which it must match exactly, per request.
// The last test runs the skewed eight-client probe, where the System
// serves requests in host order rather than arrival order, and prints
// how far each client's finish lies from the arrival-order timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../support/reference_timeline.hpp"
#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "net/codec.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using obs::JournalEvent;
using reference::Call;
using reference::Client;
using reference::CodecCost;
using reference::PipeLink;
using vm::Value;

TEST(ReferenceTimeline, IdleLinkChargesRoundedSerialization) {
    PipeLink link{100, 125.0};
    const PipeLink::Hop lone = link.send(0, 60);  // 0.48us rounds to 0
    EXPECT_EQ(lone.depart_us, 0u);
    EXPECT_EQ(lone.arrive_us, 100u);
    const PipeLink::Hop later = link.send(1000, 500);  // 4us, new chain
    EXPECT_EQ(later.depart_us, 1000u);
    EXPECT_EQ(later.arrive_us, 1104u);
    EXPECT_EQ(link.free_us(), 1004u);
}

TEST(ReferenceTimeline, BackToBackSubMicrosecondFramesAddUp) {
    PipeLink link{100, 125.0};
    // 0.48, 0.96, 1.44us of running serialization: charged 0, 1, 1.
    EXPECT_EQ(link.send(0, 60).arrive_us, 100u);
    const PipeLink::Hop second = link.send(0, 60);
    EXPECT_EQ(second.depart_us, 0u);
    EXPECT_EQ(second.arrive_us, 101u);
    const PipeLink::Hop third = link.send(0, 60);
    EXPECT_EQ(third.depart_us, 1u);
    EXPECT_EQ(third.arrive_us, 101u);
    PipeLink burst{100, 125.0};
    PipeLink::Hop last{};
    for (int k = 0; k < 1000; ++k) last = burst.send(0, 60);
    EXPECT_EQ(last.arrive_us, 580u);
    EXPECT_EQ(burst.free_us(), 480u);
}

TEST(ReferenceTimeline, LostRequestEndsItsCallAtTheLossTime) {
    // 100us links at 10 B/us; 50 ns/B codec: a 50-byte request costs
    // 2us to encode and 3 to decode, a 30-byte reply 1 and 2.
    Client c;
    c.up = PipeLink{100, 10.0};
    c.down = PipeLink{100, 10.0};
    c.calls = {{50, 30, false}, {50, 30, true}, {50, 30, false}};
    const reference::Timeline t = reference::run({c}, 0, CodecCost{50.0});
    const std::vector<reference::Request>& r = t.requests[0];
    // send 2, arrive 2+5+100; served at once; reply sent at 107+3+1.
    EXPECT_EQ(r[0].send_us, 2u);
    EXPECT_EQ(r[0].arrive_us, 107u);
    EXPECT_EQ(r[0].service_us, 107u);
    EXPECT_EQ(r[0].dispatch_us, 110u);
    EXPECT_EQ(r[0].reply_us, 214u);
    // Decoded by 216; the lost request is sent at 218 and seen lost at
    // its would-be arrival.
    EXPECT_TRUE(r[1].lost);
    EXPECT_EQ(r[1].send_us, 218u);
    EXPECT_EQ(r[1].arrive_us, 323u);
    EXPECT_EQ(r[2].send_us, 325u);
    EXPECT_EQ(r[2].arrive_us, 430u);
    EXPECT_EQ(r[2].dispatch_us, 433u);
    EXPECT_EQ(r[2].reply_us, 537u);
    EXPECT_EQ(t.finish_us[0], 539u);
}

TEST(ReferenceTimeline, ServerTakesRequestsInArrivalOrder) {
    // Free serialization; 1000 ns/B codec: a 10-byte request costs 10us
    // to encode and 10 to decode, a 5-byte reply 5 and 5.  The fast
    // client's two calls both arrive before the slow client's first.
    Client slow;
    slow.up = slow.down = PipeLink{300, 0.0};
    slow.calls = {{10, 5, false}};
    Client fast;
    fast.up = fast.down = PipeLink{20, 0.0};
    fast.calls = {{10, 5, false}, {10, 5, false}};
    const reference::Timeline t = reference::run({slow, fast}, 0, CodecCost{1000.0});
    const std::vector<reference::Request>& f = t.requests[1];
    EXPECT_EQ(f[0].arrive_us, 30u);
    EXPECT_EQ(f[0].dispatch_us, 40u);
    EXPECT_EQ(f[0].reply_us, 65u);
    EXPECT_EQ(f[1].send_us, 80u);
    EXPECT_EQ(f[1].service_us, 100u);
    EXPECT_EQ(f[1].reply_us, 135u);
    EXPECT_EQ(t.finish_us[1], 140u);
    const reference::Request& s = t.requests[0][0];
    EXPECT_EQ(s.arrive_us, 310u);
    EXPECT_EQ(s.service_us, 310u);
    EXPECT_EQ(s.reply_us, 625u);
    EXPECT_EQ(t.finish_us[0], 630u);
}

TEST(ReferenceTimeline, PipelinedBurstWaitsOnceForItsLatestReply) {
    // Two 50-byte requests sent at 0 queue on the 10 B/us up link; the
    // second reply, sent once the first reply's bytes are out, opens a
    // new chain on the down link.
    Client c;
    c.up = c.down = PipeLink{100, 10.0};
    c.depth = 2;
    c.calls = {{50, 30, false}, {50, 30, false}};
    const reference::Timeline t = reference::run({c}, 0, CodecCost{0.0});
    EXPECT_EQ(t.requests[0][0].arrive_us, 105u);
    EXPECT_EQ(t.requests[0][1].send_us, 0u);
    EXPECT_EQ(t.requests[0][1].arrive_us, 110u);
    EXPECT_EQ(t.requests[0][0].reply_us, 208u);
    EXPECT_EQ(t.requests[0][1].reply_us, 213u);
    EXPECT_EQ(t.finish_us[0], 213u);
}

constexpr const char* kApp = R"(
class Service {
  field calls I
  ctor ()V {
    return
  }
  method work (J)J {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    returnvalue
  }
}
)";

model::ClassPool make_pool() {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    return pool;
}

/// Each client's calls as the System ran them, and as the reference
/// timeline computes them from the same frame sizes.
struct Probe {
    std::vector<std::vector<reference::Request>> system;  // [client][call]
    std::vector<std::uint64_t> system_finish_us;
    reference::Timeline reference;
};

/// Node 0 serves `Service` over `protocol`; client k (node k + 1) sits
/// on links of latencies[k] and bandwidth `bytes_per_us` both ways and
/// makes `calls` work() calls at pipeline depth `depth`.  A nonzero
/// `link_down_us` takes every client's link to the server down for the
/// microsecond starting there, losing what departs in it.
Probe run_probe(const std::string& protocol, const std::vector<std::uint64_t>& latencies,
                double bytes_per_us, std::size_t depth, int calls,
                std::uint64_t link_down_us = 0) {
    const model::ClassPool pool = make_pool();
    SystemOptions options;
    options.pipeline.generator.protocols = {"RMI", "CORBA", "SOAP"};
    System system(pool, options);
    const std::size_t n = latencies.size();
    for (std::size_t k = 0; k <= n; ++k) system.add_node();
    for (std::size_t k = 0; k < n; ++k) {
        const auto node = static_cast<net::NodeId>(k + 1);
        const net::LinkParams link{latencies[k], bytes_per_us, 0.0};
        system.network().set_link(node, 0, link);
        system.network().set_link(0, node, link);
        if (link_down_us) {
            net::FaultWindow w;
            w.src = node;
            w.dst = 0;
            w.from_us = link_down_us;
            w.until_us = link_down_us + 1;
            system.network().fault_plan().add(w);
        }
    }
    system.policy().set_instance_home("Service", 0, protocol);

    std::vector<Client> clients(n);
    WorkloadDriver driver(system);
    driver.set_pipeline_depth(depth);
    for (std::size_t k = 0; k < n; ++k) {
        const auto node = static_cast<net::NodeId>(k + 1);
        Value svc = system.construct(node, "Service", "()V");
        clients[k].up = clients[k].down = PipeLink{latencies[k], bytes_per_us};
        clients[k].clock_us = system.node(node).clock_us();
        clients[k].depth = depth;
        driver.add_client(node, static_cast<std::size_t>(calls),
                          [svc](System& sys, net::NodeId self) {
                              sys.node(self).interp().call_virtual(
                                  svc, "work", "(J)J", {Value::of_long(7)});
                          });
    }
    const std::uint64_t server_clock = system.node(0).clock_us();
    // Each client has its construct() reply, so both its links are idle
    // before it sends again, and the reference links start fresh.
    for (std::size_t k = 0; k < n; ++k) {
        const auto node = static_cast<net::NodeId>(k + 1);
        EXPECT_LE(system.network().link_busy_until(node, 0), clients[k].clock_us);
        EXPECT_LE(system.network().link_busy_until(0, node), clients[k].clock_us);
    }
    system.journal().set_capacity(1 << 16);
    system.journal().set_enabled(true);
    driver.run();

    // The journal names each request by id; the caller's sends give the
    // call order.
    Probe p;
    p.system.resize(n);
    std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> by_id;  // (client, call)
    system.journal().visit([&](const JournalEvent& e) {
        using Kind = JournalEvent::Kind;
        if (e.kind == Kind::RpcSend) {
            const auto k = static_cast<std::size_t>(e.node - 1);
            by_id[e.a] = {k, p.system[k].size()};
            p.system[k].emplace_back();
            clients[k].calls.push_back(Call{e.b, 0, false});
        }
        const auto it = by_id.find(e.a);
        if (it == by_id.end()) return;
        const auto [k, i] = it->second;
        reference::Request& r = p.system[k][i];
        switch (e.kind) {
            case Kind::RpcSend: r.send_us = e.t_us; break;
            case Kind::RpcArrive: r.arrive_us = e.t_us; break;
            case Kind::RpcDrop:
                r.arrive_us = e.t_us;
                r.lost = true;
                clients[k].calls[i].request_lost = true;
                break;
            case Kind::RpcDispatch: r.dispatch_us = e.t_us; break;
            case Kind::RpcReply:
                r.reply_us = e.t_us;
                clients[k].calls[i].reply_bytes = e.b;
                break;
            default: break;
        }
    });
    for (std::size_t k = 0; k < n; ++k)
        p.system_finish_us.push_back(system.node(static_cast<net::NodeId>(k + 1)).clock_us());
    p.reference = reference::run(
        clients, server_clock, CodecCost{net::make_codec(protocol)->cpu_cost_ns_per_byte()});
    return p;
}

void expect_matches(const Probe& p) {
    ASSERT_EQ(p.system.size(), p.reference.requests.size());
    for (std::size_t k = 0; k < p.system.size(); ++k) {
        ASSERT_EQ(p.system[k].size(), p.reference.requests[k].size());
        for (std::size_t i = 0; i < p.system[k].size(); ++i) {
            const reference::Request& s = p.system[k][i];
            const reference::Request& r = p.reference.requests[k][i];
            EXPECT_EQ(s.send_us, r.send_us) << "client " << k << " call " << i;
            EXPECT_EQ(s.arrive_us, r.arrive_us) << "client " << k << " call " << i;
            EXPECT_EQ(s.dispatch_us, r.dispatch_us) << "client " << k << " call " << i;
            EXPECT_EQ(s.reply_us, r.reply_us) << "client " << k << " call " << i;
            EXPECT_EQ(s.lost, r.lost) << "client " << k << " call " << i;
        }
        EXPECT_EQ(p.system_finish_us[k], p.reference.finish_us[k]) << "client " << k;
    }
}

class OneClient
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(OneClient, SystemMatchesTheTimelinePerRequest) {
    const auto& [protocol, depth] = GetParam();
    // 22 calls: at depth 4, five full bursts and a burst of two.
    const Probe p = run_probe(protocol, {100}, 25.0, depth, 22);
    ASSERT_EQ(p.system[0].size(), 22u);
    expect_matches(p);
}

INSTANTIATE_TEST_SUITE_P(
    ReferenceTimeline, OneClient,
    ::testing::Combine(::testing::Values("RMI", "CORBA", "SOAP"),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const ::testing::TestParamInfo<OneClient::ParamType>& info) {
        return std::get<0>(info.param) + "_depth" + std::to_string(std::get<1>(info.param));
    });

TEST(ReferenceTimeline, LostRequestMatchesTheSystem) {
    // Take the link down for the microsecond the sixth request departs
    // in: that call fails at its would-be arrival, and the client carries
    // on from there.
    const Probe clean = run_probe("RMI", {100}, 25.0, 1, 10);
    const Probe p = run_probe("RMI", {100}, 25.0, 1, 10, clean.system[0][5].send_us);
    ASSERT_EQ(p.system[0].size(), 10u);
    EXPECT_TRUE(p.system[0][5].lost);
    EXPECT_EQ(std::count_if(p.system[0].begin(), p.system[0].end(),
                            [](const reference::Request& r) { return r.lost; }),
              1);
    expect_matches(p);
}

TEST(ReferenceTimeline, SkewedProbeReportsHostOrderService) {
    // Eight clients on 20/110/200/290us links (two per latency), 64 RMI
    // calls each.  The System serves requests in host order, so its
    // finishes diverge from the arrival-order timeline; the gap is
    // printed, not asserted.  The timeline itself must serve in arrival
    // order without overlap.
    const Probe p = run_probe("RMI", {20, 20, 110, 110, 200, 200, 290, 290}, 125.0, 1, 64);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> served;  // (arrival, service)
    for (std::size_t k = 0; k < 8; ++k) {
        ASSERT_EQ(p.system[k].size(), 64u);
        std::printf("skewed probe: client %zu: system %llu us, reference %llu us\n", k + 1,
                    static_cast<unsigned long long>(p.system_finish_us[k]),
                    static_cast<unsigned long long>(p.reference.finish_us[k]));
        for (const reference::Request& r : p.reference.requests[k]) {
            EXPECT_GE(r.service_us, r.arrive_us);
            served.emplace_back(r.arrive_us, r.service_us);
        }
    }
    std::sort(served.begin(), served.end());
    for (std::size_t i = 1; i < served.size(); ++i)
        EXPECT_LE(served[i - 1].second, served[i].second);
}

}  // namespace
}  // namespace rafda::runtime
