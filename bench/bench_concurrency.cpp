// E9 — concurrent multi-client serving (RAFDA follow-ups: the runtime as
// a *server* mediating many clients).
//
// N client nodes each drive K Service.work calls against one server node
// over RMI.  Under the event-sequenced virtual-time model (per-node
// clocks + per-link channel occupancy, DESIGN.md §13) the clients overlap
// everywhere except where the model says they must contend: the server's
// clock (decode + dispatch + encode serialize there) and any shared
// links.  The headline number is the *overlap speedup*: N clients finish
// in far less than N× the single-client makespan.
//
// Everything is virtual time from the seeded simulation, so the summary
// is bit-for-bit reproducible; the bench itself verifies determinism by
// running the contended configuration twice.
#include <cstdio>

#include "bench_util.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;
using vm::Value;

struct RunResult {
    std::uint64_t makespan_us = 0;
    std::uint64_t server_in_busy_us = 0;   // occupancy of the client->server links
    std::int64_t utilization_ppm = 0;      // busiest inbound link utilization
    std::size_t tasks = 0;
    std::uint64_t latency_p50_us = 0;  // exact per-task virtual latency
    std::uint64_t latency_p95_us = 0;
    std::uint64_t latency_p99_us = 0;
    std::string traffic_matrix;  // per-(class, src, dst) calls + bytes
    std::string windows;         // time-windowed counter deltas
};

/// N clients (nodes 1..N) × `calls` work() invocations against the
/// server (node 0).  `window_us` > 0 turns on windowed delta collection.
RunResult run_clients(int n_clients, int calls, std::uint64_t window_us = 0) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    runtime::System system(pool);
    runtime::Node& server = system.add_node();
    (void)server;
    for (int k = 0; k < n_clients; ++k) system.add_node();
    system.policy().set_instance_home("Service", 0, "RMI");

    runtime::WorkloadDriver driver(system);
    driver.set_window_us(window_us);
    for (int k = 1; k <= n_clients; ++k) {
        const auto client = static_cast<net::NodeId>(k);
        Value svc = system.construct(client, "Service", "()V");
        driver.add_client(client, static_cast<std::size_t>(calls),
                          [svc](runtime::System& sys, net::NodeId node) {
                              sys.node(node).interp().call_virtual(
                                  svc, "work", "(J)J", {Value::of_long(1)});
                          });
    }
    runtime::WorkloadDriver::Report report = driver.run();

    RunResult r;
    r.makespan_us = report.makespan_us;
    r.tasks = report.tasks_run;
    r.latency_p50_us = report.latency_p50_us;
    r.latency_p95_us = report.latency_p95_us;
    r.latency_p99_us = report.latency_p99_us;
    r.traffic_matrix = bench::traffic_matrix_json(system);
    r.windows = bench::windows_json(report.windows);
    obs::Snapshot snap = system.metrics().snapshot();
    for (int k = 1; k <= n_clients; ++k) {
        const std::string prefix = "net.link." + std::to_string(k) + ".0.";
        r.server_in_busy_us += snap.counter_value(prefix + "busy_us");
        const obs::Sample* util = snap.find(prefix + "utilization_ppm");
        if (util && util->gauge > r.utilization_ppm) r.utilization_ppm = util->gauge;
    }
    return r;
}

/// Makespan as the client count grows, 32 calls each.
void print_client_sweep() {
    std::printf("%-10s %14s %14s\n", "clients", "makespan us", "us per call");
    for (int n : {1, 2, 4, 8}) {
        const RunResult r = run_clients(n, 32);
        std::printf("%-10d %14llu %14.1f\n", n,
                    static_cast<unsigned long long>(r.makespan_us),
                    static_cast<double>(r.makespan_us) /
                        static_cast<double>(r.tasks ? r.tasks : 1));
    }
    std::printf("\n");
}

void emit_summary() {
    constexpr int kClients = 8;
    constexpr int kCalls = 64;
    constexpr std::uint64_t kWindowUs = 10'000;
    const RunResult single = run_clients(1, kCalls);
    const RunResult many = run_clients(kClients, kCalls, kWindowUs);
    const RunResult again = run_clients(kClients, kCalls, kWindowUs);

    const double naive_serial =
        static_cast<double>(kClients) * static_cast<double>(single.makespan_us);
    bench::JsonSummary("E9")
        .add("clients", std::uint64_t{kClients})
        .add("calls_per_client", std::uint64_t{kCalls})
        .add("single_makespan_us", single.makespan_us)
        .add("concurrent_makespan_us", many.makespan_us)
        .add("naive_serial_us", naive_serial)
        .add("overlap_speedup",
             naive_serial / static_cast<double>(many.makespan_us ? many.makespan_us : 1))
        .add("server_inbound_busy_us", many.server_in_busy_us)
        .add("max_inbound_utilization_ppm",
             static_cast<std::uint64_t>(many.utilization_ppm))
        .add("latency_p50_us", many.latency_p50_us)
        .add("latency_p95_us", many.latency_p95_us)
        .add("latency_p99_us", many.latency_p99_us)
        .add_raw("traffic_matrix", many.traffic_matrix)
        .add_raw("windows", many.windows)
        .add("deterministic",
             std::uint64_t{many.makespan_us == again.makespan_us &&
                           many.server_in_busy_us == again.server_in_busy_us &&
                           many.latency_p99_us == again.latency_p99_us &&
                           many.traffic_matrix == again.traffic_matrix &&
                           many.windows == again.windows})
        .emit();
}

}  // namespace

namespace rafda::bench {

int e9() {
    std::printf("=== E9: concurrent multi-client serving ===\n");
    std::printf(
        "expected shape: N clients vs one server finish in much less than N x the\n"
        "single-client makespan (only server-side codec/dispatch work serializes);\n"
        "inbound link utilization nonzero; identical numbers on every run (seeded).\n\n");
    print_client_sweep();
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
