// WorkloadDriver + event-sequenced virtual time: concurrent clients
// overlap, contention queues where it must, single-client runs reduce to
// the old sequential clock, and everything is deterministic from the seed.
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

using vm::Value;

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
  method boom ()V {
    new Throwable
    dup
    const "synthetic"
    invokespecial Throwable.<init> (S)V
    throw
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

/// One server (node 0), `clients` client nodes, each queueing `calls`
/// remote work() invocations; returns the driver report.
WorkloadDriver::Report drive(System& system, int clients, int calls) {
    system.add_node();  // server
    for (int k = 0; k < clients; ++k) system.add_node();
    system.policy().set_instance_home("Service", 0, "RMI");
    WorkloadDriver driver(system);
    for (int k = 1; k <= clients; ++k) {
        const auto client = static_cast<net::NodeId>(k);
        Value svc = system.construct(client, "Service", "()V");
        driver.add_client(client, static_cast<std::size_t>(calls),
                          [svc](System& sys, net::NodeId node) {
                              sys.node(node).interp().call_virtual(
                                  svc, "work", "(J)J", {Value::of_long(7)});
                          });
    }
    return driver.run();
}

TEST(WorkloadDriver, ConcurrentMakespanBeatsSerialisedClients) {
    model::ClassPool pool = make_pool();

    System single(pool);
    WorkloadDriver::Report one = drive(single, 1, 16);
    ASSERT_EQ(one.tasks_run, 16u);
    ASSERT_GT(one.makespan_us, 0u);

    System contended(pool);
    WorkloadDriver::Report eight = drive(contended, 8, 16);
    EXPECT_EQ(eight.tasks_run, 8u * 16u);

    // The whole point of per-node clocks: eight clients against one server
    // overlap everywhere except the server's own work, so the aggregate
    // makespan beats eight sequential clients by a wide margin.
    EXPECT_LT(eight.makespan_us, 8 * one.makespan_us);

    // The contention is real, not free: more clients cannot be faster than
    // one client's own chain of latencies.
    EXPECT_GE(eight.makespan_us, one.makespan_us);
}

/// Options for a thin 1 byte/us link, where every frame serializes in a
/// whole number of microseconds (one per byte) and so occupies its
/// channel measurably; the default link sends a small frame in under
/// 1 us.
SystemOptions thin_link() {
    SystemOptions options;
    options.default_link = net::LinkParams{100, 1.0, 0.0};
    return options;
}

TEST(WorkloadDriver, LinkOccupancyAndClockGaugesAreExported) {
    model::ClassPool pool = make_pool();
    System system(pool, thin_link());
    drive(system, 4, 8);

    obs::Snapshot snap = system.metrics().snapshot();
    for (int client = 1; client <= 4; ++client) {
        const std::string prefix = "net.link." + std::to_string(client) + ".0.";
        // The channel is held while bytes serialize: one us per byte.
        EXPECT_GT(snap.counter_value(prefix + "busy_us"), 0u) << prefix;
        EXPECT_EQ(snap.counter_value(prefix + "busy_us"),
                  snap.counter_value(prefix + "bytes"))
            << prefix;
        const obs::Sample* util = snap.find(prefix + "utilization_ppm");
        ASSERT_NE(util, nullptr) << prefix;
        EXPECT_GT(util->gauge, 0) << prefix;
    }
    // Per-node clock gauges mirror each node's virtual clock.
    for (net::NodeId n = 0; n < 5; ++n) {
        const obs::Sample* clock =
            snap.find("runtime.node" + std::to_string(n) + ".clock_us");
        ASSERT_NE(clock, nullptr) << n;
        EXPECT_EQ(clock->gauge,
                  static_cast<std::int64_t>(system.node(n).clock_us()));
        EXPECT_GT(clock->gauge, 0) << n;
    }
}

TEST(WorkloadDriver, ClockGaugesReadEachNodesClockAfterResetStats) {
    // The clock gauges sample the nodes' clocks: a registry reset zeroes
    // accounting, not the time a node has reached.
    model::ClassPool pool = make_pool();
    System system(pool);
    drive(system, 4, 8);
    system.reset_stats();

    const obs::Snapshot snap = system.metrics().snapshot();
    for (net::NodeId n = 0; n < 5; ++n) {
        const obs::Sample* clock =
            snap.find("runtime.node" + std::to_string(n) + ".clock_us");
        ASSERT_NE(clock, nullptr) << n;
        EXPECT_GT(system.node(n).clock_us(), 0u) << n;
        EXPECT_EQ(clock->gauge, static_cast<std::int64_t>(system.node(n).clock_us())) << n;
    }
}

TEST(WorkloadDriver, DeterministicFromTheSeed) {
    model::ClassPool pool = make_pool();
    auto once = [&pool] {
        System system(pool);
        WorkloadDriver::Report r = drive(system, 8, 16);
        return std::tuple{r.makespan_us, r.start_us, r.end_us,
                          system.network().total_stats().busy_us,
                          system.network().total_stats().bytes};
    };
    EXPECT_EQ(once(), once());
}

TEST(WorkloadDriver, SingleClientReducesToSequentialExecution) {
    // Running the same 16 calls through the driver or as a plain loop must
    // land every clock on the same microsecond: with one request in flight
    // the event-sequenced model collapses to the old global clock.
    model::ClassPool pool = make_pool();

    System driven(pool);
    drive(driven, 1, 16);

    System plain(pool);
    plain.add_node();
    plain.add_node();
    plain.policy().set_instance_home("Service", 0, "RMI");
    Value svc = plain.construct(1, "Service", "()V");
    for (int k = 0; k < 16; ++k)
        plain.node(1).interp().call_virtual(svc, "work", "(J)J", {Value::of_long(7)});

    EXPECT_EQ(driven.network().now_us(), plain.network().now_us());
    EXPECT_EQ(driven.node(0).clock_us(), plain.node(0).clock_us());
    EXPECT_EQ(driven.node(1).clock_us(), plain.node(1).clock_us());
    EXPECT_EQ(driven.network().total_stats().bytes,
              plain.network().total_stats().bytes);
}

TEST(WorkloadDriver, ServerClockSerialisesContendedDispatch) {
    // The server must be busy for at least the sum of all per-request
    // server-side codec work — that is the serial bottleneck the model
    // preserves under contention.
    model::ClassPool pool = make_pool();
    System system(pool);
    WorkloadDriver::Report report = drive(system, 8, 8);
    EXPECT_GT(system.node(0).clock_us(), 0u);
    EXPECT_LE(system.node(0).clock_us(), report.end_us);
}

TEST(WorkloadDriver, GuestFaultsAreCountedNotFatal) {
    model::ClassPool pool = make_pool();
    System system(pool);
    system.add_node();
    system.add_node();

    Value svc = system.construct(1, "Service", "()V");
    WorkloadDriver driver(system);
    int attempted = 0;
    driver.add_client(1, 5, [&attempted, svc](System& sys, net::NodeId node) {
        ++attempted;
        sys.node(node).interp().call_virtual(svc, "boom", "()V");
    });
    WorkloadDriver::Report report = driver.run();
    EXPECT_EQ(attempted, 5);
    EXPECT_EQ(report.tasks_run, 5u);
    EXPECT_EQ(report.faults, 5u);
}

TEST(WorkloadDriver, ContendedLinkQueuesTransfers) {
    // Two clients sharing one *directed* link toward the server: force
    // both through the same source node id is impossible (each node owns
    // its link), so instead check the inbound links' busy windows overlap
    // the makespan — occupancy accounted as serialization time only
    // (one us per byte here), nothing double-booked.
    model::ClassPool pool = make_pool();
    System system(pool, thin_link());
    WorkloadDriver::Report report = drive(system, 2, 8);
    const net::SimNetwork& net = system.network();
    EXPECT_GT(net.stats(1, 0).busy_us, 0u);
    EXPECT_EQ(net.stats(1, 0).busy_us, net.stats(1, 0).bytes);
    EXPECT_EQ(net.stats(2, 0).busy_us, net.stats(2, 0).bytes);
    EXPECT_LE(net.stats(1, 0).busy_us, report.makespan_us + report.start_us);
    EXPECT_LE(net.link_busy_until(1, 0), report.end_us);
}

TEST(WorkloadDriver, ReportsLatencyQuantiles) {
    model::ClassPool pool = make_pool();
    System system(pool);
    WorkloadDriver::Report report = drive(system, 4, 16);
    // One latency sample per task, so the quantiles are populated, ordered
    // and bounded by the whole run.
    EXPECT_GT(report.latency_p50_us, 0u);
    EXPECT_LE(report.latency_p50_us, report.latency_p95_us);
    EXPECT_LE(report.latency_p95_us, report.latency_p99_us);
    EXPECT_LE(report.latency_p99_us, report.makespan_us);
}

TEST(WorkloadDriver, WindowsPartitionTheRun) {
    model::ClassPool pool = make_pool();
    System system(pool);
    system.add_node();
    for (int k = 1; k <= 4; ++k) system.add_node();
    system.policy().set_instance_home("Service", 0, "RMI");
    WorkloadDriver driver(system);
    for (int k = 1; k <= 4; ++k) {
        const auto client = static_cast<net::NodeId>(k);
        Value svc = system.construct(client, "Service", "()V");
        driver.add_client(client, 16, [svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(J)J",
                                                 {Value::of_long(7)});
        });
    }
    const std::uint64_t kWindow = 2000;
    driver.set_window_us(kWindow);
    WorkloadDriver::Report report = driver.run();

    ASSERT_GT(report.windows.size(), 1u);
    std::size_t tasks = 0;
    std::uint64_t calls = 0;
    for (std::size_t i = 0; i < report.windows.size(); ++i) {
        const WorkloadDriver::Window& w = report.windows[i];
        EXPECT_LT(w.start_us, w.end_us);
        // Contiguous, and every interior boundary is an exact multiple of
        // the window size (windows are fixed slices of virtual time).
        if (i) {
            EXPECT_EQ(w.start_us, report.windows[i - 1].end_us);
        }
        if (i + 1 < report.windows.size()) {
            EXPECT_EQ(w.end_us % kWindow, 0u);
        }
        tasks += w.tasks;
        calls += w.rpc_calls;
    }
    // The windows tile the whole run: totals reconcile with the report.
    EXPECT_EQ(tasks, report.tasks_run);
    EXPECT_GE(calls, report.tasks_run);  // every task made >= 1 RPC
    EXPECT_EQ(report.windows.front().start_us, report.start_us);
    EXPECT_EQ(report.windows.back().end_us, report.end_us);
}

TEST(WorkloadDriver, WindowSeriesIsDeterministic) {
    model::ClassPool pool = make_pool();
    auto series = [&pool] {
        System system(pool);
        system.add_node();
        system.add_node();
        system.policy().set_instance_home("Service", 0, "RMI");
        Value svc = system.construct(1, "Service", "()V");
        WorkloadDriver driver(system);
        driver.add_client(1, 12, [svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(J)J",
                                                 {Value::of_long(7)});
        });
        driver.set_window_us(1500);
        WorkloadDriver::Report r = driver.run();
        std::vector<std::tuple<std::uint64_t, std::uint64_t, std::size_t,
                               std::uint64_t, std::uint64_t>>
            out;
        for (const WorkloadDriver::Window& w : r.windows)
            out.emplace_back(w.start_us, w.end_us, w.tasks, w.rpc_calls,
                             w.wire_bytes);
        return out;
    };
    EXPECT_EQ(series(), series());
}

TEST(WorkloadDriver, FleetClientsAggregateIntoTotals) {
    model::ClassPool pool = make_pool();
    System system(pool);
    system.add_node();  // server
    std::vector<net::NodeId> client_nodes;
    for (int k = 1; k <= 3; ++k) {
        system.add_node();
        client_nodes.push_back(static_cast<net::NodeId>(k));
    }
    system.policy().set_instance_home("Service", 0, "RMI");
    std::vector<Value> services(4);
    for (net::NodeId n : client_nodes)
        services[static_cast<std::size_t>(n)] = system.construct(n, "Service", "()V");

    WorkloadDriver driver(system);
    driver.add_fleet(client_nodes, /*clients=*/10, /*tasks_each=*/4,
                     [&services](System& sys, net::NodeId node) {
                         sys.node(node).interp().call_virtual(
                             services[static_cast<std::size_t>(node)], "work",
                             "(J)J", {Value::of_long(1)});
                     });
    WorkloadDriver::Report report = driver.run();

    // Fleet clients have no per-client report — their whole state was the
    // pending event — but every task they ran lands in the totals.
    EXPECT_EQ(report.tasks_run, 40u);
    // The driver dispatches exactly one step event per task: network
    // completions fold into the digest without entering the heap.
    EXPECT_EQ(report.events_dispatched, 40u);
    EXPECT_GT(report.peak_pending_events, 0u);
    // Pending state is one step event per live client — nowhere near
    // tasks × clients.
    EXPECT_LE(report.peak_pending_events, 10u);
    EXPECT_NE(report.event_order_digest, 0u);
    EXPECT_GT(report.latency_p50_us, 0u);
}

TEST(WorkloadDriver, VirtualClockAdaptationHeartbeatStopsWithTheLastStep) {
    // The adaptation heartbeat rides the event heap beside the
    // client steps and re-posts only while a step is pending.  Pins the
    // tick count, the heartbeat count and every decision of one seeded
    // run: a hot singleton on node 0, called only from node 1.
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
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
}
)");
    model::verify_pool(pool);
    SystemOptions options;
    options.network_seed = 11;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    System system(pool, options);
    for (int k = 0; k < 3; ++k) system.add_node();
    system.policy().set_singleton_home("Counter", 0, "RMI");
    AdaptPolicy policy;
    policy.interval_us = 600;
    policy.migrate_threshold_bytes = 64;
    policy.min_window_calls = 4;
    system.enable_adaptation(policy);

    WorkloadDriver driver(system);
    auto bump = [](System& sys, net::NodeId node) {
        sys.call_static(node, "Counter", "bump", "(I)I", {Value::of_int(1)});
    };
    driver.add_client(1, 40, bump);
    driver.add_client(2, 24, bump);
    WorkloadDriver::Report report = driver.run();

    ASSERT_EQ(report.tasks_run, 64u);
    EXPECT_EQ(report.faults, 0u);
    // Every dispatched event that is not a step is a heartbeat, and every
    // heartbeat is a tick.  The last one pops after the final step and
    // does not re-post: the controller goes quiet with the workload.
    const std::uint64_t heartbeats = report.events_dispatched - report.tasks_run;
    EXPECT_EQ(heartbeats, 3u);
    EXPECT_EQ(system.adaptation()->ticks_run(), 3u);
    std::vector<std::tuple<std::string, std::string, net::NodeId, net::NodeId,
                           std::uint64_t>>
        decisions;
    for (const AdaptDecision& d : system.adaptation()->decisions())
        decisions.emplace_back(adapt_action_name(d.action), d.cls, d.from, d.to,
                               d.t_us);
    // Node 1 dominates first; once its 40 calls are done node 2 is the
    // only caller left, and the singleton follows it.
    EXPECT_EQ(decisions,
              (std::vector<std::tuple<std::string, std::string, net::NodeId,
                                      net::NodeId, std::uint64_t>>{
                  {"migrate", "Counter", 0, 1, 600},
                  {"migrate", "Counter", 1, 2, 1200}}));
    EXPECT_EQ(system.find_singleton("Counter").first, 2);
    // Propagation does not hold the channel (1,240 us when it did).
    EXPECT_EQ(report.makespan_us, 1200u);
}

/// Four clients on 20/110/200/290 µs links bumping a Counter singleton
/// homed on node 0, with the AdaptationEngine on and 500 µs windows: the
/// clients' clocks drift apart, the controller moves the singleton, and
/// every task records the clock it completed at.
struct SkewedAdaptRun {
    static constexpr std::uint64_t kWindow = 500;
    static constexpr std::uint64_t kInterval = 600;
    std::vector<std::uint64_t> completions;
    System::RpcTotals before;
    System::RpcTotals after;
    WorkloadDriver::Report report;
    std::uint64_t ticks = 0;
    std::vector<AdaptDecision> decisions;

    SkewedAdaptRun() {
        model::ClassPool pool;
        vm::install_prelude(pool);
        model::assemble_into(pool, R"(
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
}
)");
        model::verify_pool(pool);
        System system(pool);
        system.add_node();  // Counter's first home
        const std::uint64_t latencies[] = {20, 110, 200, 290};
        for (int k = 1; k <= 4; ++k) {
            system.add_node();
            const auto client = static_cast<net::NodeId>(k);
            const net::LinkParams link{latencies[k - 1], 125.0, 0.0};
            system.network().set_link(client, 0, link);
            system.network().set_link(0, client, link);
        }
        system.policy().set_singleton_home("Counter", 0, "RMI");
        AdaptPolicy policy;
        policy.interval_us = kInterval;
        policy.migrate_threshold_bytes = 64;
        policy.min_window_calls = 4;
        system.enable_adaptation(policy);

        WorkloadDriver driver(system);
        driver.set_window_us(kWindow);
        for (int k = 1; k <= 4; ++k)
            driver.add_client(static_cast<net::NodeId>(k), 24,
                              [this](System& sys, net::NodeId node) {
                                  sys.call_static(node, "Counter", "bump", "(I)I",
                                                  {Value::of_int(1)});
                                  completions.push_back(sys.node(node).clock_us());
                              });
        before = system.rpc_totals();
        report = driver.run();
        after = system.rpc_totals();
        ticks = system.adaptation()->ticks_run();
        decisions = system.adaptation()->decisions();
    }
};

TEST(WorkloadDriver, WindowsHoldEachTaskAtItsCompletion) {
    // Oracle for the window series: the windows tile the run in fixed
    // slices of virtual time, and each holds exactly the tasks that
    // completed inside it, with the calls and bytes those tasks caused.
    const SkewedAdaptRun run;
    const WorkloadDriver::Report& r = run.report;
    ASSERT_EQ(r.tasks_run, 96u);
    ASSERT_EQ(run.completions.size(), 96u);
    ASSERT_FALSE(run.decisions.empty());  // the controller did move things
    ASSERT_FALSE(r.windows.empty());
    EXPECT_EQ(r.windows.front().start_us, r.start_us);
    EXPECT_EQ(r.windows.back().end_us, r.end_us);

    std::uint64_t tasks = 0, calls = 0, bytes = 0;
    for (std::size_t i = 0; i < r.windows.size(); ++i) {
        const WorkloadDriver::Window& w = r.windows[i];
        if (i) {
            EXPECT_EQ(w.start_us, r.windows[i - 1].end_us);
        }
        if (i + 1 < r.windows.size()) {
            EXPECT_EQ(w.end_us % SkewedAdaptRun::kWindow, 0u);
        }
        std::uint64_t inside = 0;
        for (std::uint64_t c : run.completions)
            if ((i == 0 ? c >= w.start_us : c > w.start_us) && c <= w.end_us) ++inside;
        EXPECT_EQ(w.tasks, inside) << "window " << i << " (" << w.start_us << ", "
                                   << w.end_us << "]";
        tasks += w.tasks;
        calls += w.rpc_calls;
        bytes += w.wire_bytes;
    }
    EXPECT_EQ(tasks, r.tasks_run);
    EXPECT_EQ(calls, run.after.calls - run.before.calls);
    EXPECT_EQ(bytes, run.after.bytes - run.before.bytes);
}

TEST(WorkloadDriver, EveryHeartbeatIsATickAtItsOwnTime) {
    // Oracle for the controller clock: the heartbeat is seeded one
    // interval after the run's start and re-posted every interval, and
    // each one ticks the engine at its own event time.
    const SkewedAdaptRun run;
    const WorkloadDriver::Report& r = run.report;
    const std::uint64_t heartbeats = r.events_dispatched - r.tasks_run;
    EXPECT_GT(heartbeats, 0u);
    EXPECT_EQ(run.ticks, heartbeats);
    ASSERT_FALSE(run.decisions.empty());
    for (const AdaptDecision& d : run.decisions) {
        ASSERT_GT(d.t_us, r.start_us) << "decision " << d.seq;
        EXPECT_EQ((d.t_us - r.start_us) % SkewedAdaptRun::kInterval, 0u)
            << "decision " << d.seq << " at " << d.t_us;
    }
}

TEST(WorkloadDriver, EventOrderDigestIsReproducible) {
    // Same seed, same workload ⇒ the popped event stream folds to the same
    // digest — the one-word determinism witness the scale bench gates on.
    // (Runs under any RAFDA_TRANSFORM_THREADS or ctest -j: host
    // parallelism only affects the transform pipeline, never the
    // virtual-time schedule.)
    model::ClassPool pool = make_pool();
    auto once = [&pool] {
        System system(pool);
        system.add_node();
        std::vector<net::NodeId> client_nodes;
        for (int k = 1; k <= 4; ++k) {
            system.add_node();
            client_nodes.push_back(static_cast<net::NodeId>(k));
        }
        system.policy().set_instance_home("Service", 0, "RMI");
        std::vector<Value> services(5);
        for (net::NodeId n : client_nodes)
            services[static_cast<std::size_t>(n)] =
                system.construct(n, "Service", "()V");
        WorkloadDriver driver(system);
        driver.add_fleet(client_nodes, 12, 3,
                         [&services](System& sys, net::NodeId node) {
                             sys.node(node).interp().call_virtual(
                                 services[static_cast<std::size_t>(node)], "work",
                                 "(J)J", {Value::of_long(1)});
                         });
        WorkloadDriver::Report r = driver.run();
        return std::tuple{r.event_order_digest, r.makespan_us, r.tasks_run,
                          system.network().total_stats().bytes};
    };
    EXPECT_EQ(once(), once());
}

TEST(WorkloadDriver, DispatchFollowsVirtualTime) {
    // Four clients on 20/110/200/290 µs links to one server: the fast
    // client finishes a call long before the slow ones, so round order
    // and virtual-time order differ.  Every task must start no earlier in
    // virtual time than the task dispatched before it, and the run must
    // do exactly the work of the clients run one after another.
    model::ClassPool pool = make_pool();
    constexpr int kCalls = 8;
    const std::uint64_t latencies[] = {20, 110, 200, 290};

    System system(pool);
    system.add_node();  // server
    for (int k = 1; k <= 4; ++k) {
        system.add_node();
        const auto client = static_cast<net::NodeId>(k);
        const net::LinkParams link{latencies[k - 1], 125.0, 0.0};
        system.network().set_link(client, 0, link);
        system.network().set_link(0, client, link);
    }
    system.policy().set_instance_home("Service", 0, "RMI");
    WorkloadDriver driver(system);
    std::vector<std::uint64_t> starts;
    for (int k = 1; k <= 4; ++k) {
        const auto client = static_cast<net::NodeId>(k);
        Value svc = system.construct(client, "Service", "()V");
        driver.add_client(client, kCalls,
                          [svc, &starts](System& sys, net::NodeId node) {
                              starts.push_back(sys.node(node).clock_us());
                              sys.node(node).interp().call_virtual(
                                  svc, "work", "(J)J", {Value::of_long(7)});
                          });
    }
    WorkloadDriver::Report r = driver.run();

    ASSERT_EQ(starts.size(), 4u * kCalls);
    for (std::size_t i = 1; i < starts.size(); ++i)
        EXPECT_LE(starts[i - 1], starts[i]) << "task " << i;

    // The clients run one after another would complete every task
    // without a fault; the interleaving must not change that.
    EXPECT_EQ(r.tasks_run, 4u * kCalls);
    EXPECT_EQ(r.faults, 0u);
}

TEST(WorkloadDriver, MatrixCapOverflowPreservesTotals) {
    // With a tiny class_matrix_cap the per-(class,src,dst) counters stop
    // materializing past the cap, but nothing is lost: the overflow
    // aggregates absorb the excess, so capped and uncapped runs agree on
    // the grand totals (and on the wire — the cap is accounting only).
    // Either way the typed traffic table matches the registry's
    // rpc.class_calls.* / rpc.class_bytes.* counters edge for edge.
    model::ClassPool pool = make_pool();
    auto run = [&pool](std::size_t cap) {
        SystemOptions options;
        options.class_matrix_cap = cap;
        auto system = std::make_unique<System>(pool, options);
        WorkloadDriver::Report r = drive(*system, 6, 4);
        const obs::Registry& reg = system->metrics();
        std::uint64_t named_calls = 0;
        std::uint64_t named_bytes = 0;
        std::size_t table_edges = 0;
        for (const auto& [cls, row] : system->traffic()) {
            for (const auto& [edge, ctr] : row.edges) {
                const std::string key = cls + "." + std::to_string(edge.first) + "." +
                                        std::to_string(edge.second);
                EXPECT_EQ(ctr.calls, reg.find_counter("rpc.class_calls." + key)) << key;
                EXPECT_EQ(ctr.bytes, reg.find_counter("rpc.class_bytes." + key)) << key;
                named_calls += ctr.calls->value();
                named_bytes += ctr.bytes->value();
                ++table_edges;
            }
        }
        std::size_t registry_edges = 0;
        reg.visit_counters([&](const std::string& name, std::uint64_t) {
            if (name.rfind("rpc.class_calls.", 0) == 0 && name != "rpc.class_calls.overflow")
                ++registry_edges;
        });
        EXPECT_EQ(table_edges, registry_edges);
        EXPECT_LE(table_edges, cap);
        const std::uint64_t overflow_calls =
            system->metrics().counter("rpc.class_calls.overflow").value();
        const std::uint64_t overflow_bytes =
            system->metrics().counter("rpc.class_bytes.overflow").value();
        const std::uint64_t redirected =
            system->metrics().counter("rpc.class_matrix.overflow_entries").value();
        return std::tuple{named_calls + overflow_calls, overflow_calls, redirected,
                          system->network().total_stats().bytes, r.tasks_run,
                          named_bytes + overflow_bytes};
    };
    const auto capped = run(2);
    const auto uncapped = run(1024);
    EXPECT_EQ(std::get<0>(capped), std::get<0>(uncapped));  // calls conserved
    EXPECT_EQ(std::get<5>(capped), std::get<5>(uncapped));  // bytes conserved
    EXPECT_GT(std::get<1>(capped), 0u);   // the cap actually bit
    EXPECT_GT(std::get<2>(capped), 0u);   // ...and counted its redirections
    EXPECT_EQ(std::get<1>(uncapped), 0u);
    EXPECT_EQ(std::get<3>(capped), std::get<3>(uncapped));  // same wire bytes
    EXPECT_EQ(std::get<4>(capped), std::get<4>(uncapped));
}

TEST(WorkloadDriver, RerunCarriesClocksForward) {
    model::ClassPool pool = make_pool();
    System system(pool);
    WorkloadDriver::Report first = drive(system, 2, 4);

    WorkloadDriver driver(system);
    driver.add_client(1, 2, [](System& sys, net::NodeId node) {
        // Top-level discover-style traffic: reuse the existing proxy by
        // constructing another instance on the server.
        sys.construct(node, "Service", "()V");
    });
    WorkloadDriver::Report second = driver.run();
    EXPECT_GE(second.start_us, first.start_us);
    EXPECT_GT(second.end_us, first.end_us);
    EXPECT_EQ(second.tasks_run, 2u);
}

TEST(WorkloadDriver, ClientWithoutTasksDoesNotAnchorTheRun) {
    // A rerun reports only the clients it ran: node 1 idles in the second
    // run, so its earlier clock must neither open the run nor its first
    // window.
    model::ClassPool pool = make_pool();
    System system(pool);
    for (int k = 0; k < 3; ++k) system.add_node();
    system.policy().set_instance_home("Service", 0, "RMI");
    Value svc1 = system.construct(1, "Service", "()V");
    Value svc2 = system.construct(2, "Service", "()V");
    auto work = [](Value svc) {
        return [svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(J)J",
                                                 {Value::of_long(7)});
        };
    };
    WorkloadDriver driver(system);
    driver.add_client(1, 2, work(svc1));
    driver.add_client(2, 12, work(svc2));
    driver.run();
    ASSERT_LT(system.node(1).clock_us(), system.node(2).clock_us());

    driver.set_window_us(500);
    driver.add_client(2, 4, work(svc2));
    const std::uint64_t entry = system.node(2).clock_us();
    WorkloadDriver::Report second = driver.run();
    EXPECT_EQ(second.tasks_run, 4u);
    EXPECT_EQ(second.start_us, entry);
    EXPECT_EQ(second.end_us, system.node(2).clock_us());
    ASSERT_FALSE(second.windows.empty());
    EXPECT_GT(second.windows.front().tasks, 0u);
}

TEST(WorkloadDriver, AddedClientIsAOneClientFleet) {
    // One client model: a queued client, a repeated task and a
    // one-client fleet are the same client, down to the event digest.
    model::ClassPool pool = make_pool();
    enum class Shape { Queue, Repeat, Fleet };
    auto once = [&pool](Shape shape) {
        System system(pool);
        system.add_node();
        system.add_node();
        system.policy().set_instance_home("Service", 0, "RMI");
        Value svc = system.construct(1, "Service", "()V");
        WorkloadDriver::Task task = [svc](System& sys, net::NodeId node) {
            sys.node(node).interp().call_virtual(svc, "work", "(J)J",
                                                 {Value::of_long(7)});
        };
        WorkloadDriver driver(system);
        driver.set_pipeline_depth(2);
        driver.set_window_us(300);
        switch (shape) {
            case Shape::Queue:
                driver.add_client(1, std::vector<WorkloadDriver::Task>(5, task));
                break;
            case Shape::Repeat: driver.add_client(1, 5, task); break;
            case Shape::Fleet: driver.add_fleet({1}, 1, 5, task); break;
        }
        const WorkloadDriver::Report r = driver.run();
        std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t>>
            windows;
        for (const WorkloadDriver::Window& w : r.windows)
            windows.emplace_back(w.start_us, w.end_us, w.tasks, w.rpc_calls,
                                 w.wire_bytes);
        return std::tuple{r.start_us,         r.end_us,
                          r.tasks_run,        r.latency_p50_us,
                          r.latency_p95_us,   r.latency_p99_us,
                          windows,            r.events_dispatched,
                          r.event_order_digest};
    };
    const auto queue = once(Shape::Queue);
    EXPECT_EQ(std::get<2>(queue), 5u);
    EXPECT_GT(std::get<6>(queue).size(), 1u);  // the windows split the run
    EXPECT_EQ(queue, once(Shape::Repeat));
    EXPECT_EQ(queue, once(Shape::Fleet));
}

}  // namespace
}  // namespace rafda::runtime
