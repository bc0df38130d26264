// E10 — reliable RPC under a scheduled fault plan (DESIGN.md §15).
//
// Two client nodes drive Service.work calls against one server while the
// fault plan injects ~8% loss on every client<->server link plus a 20 ms
// partition of one client's request path.  The same schedule runs three
// ways: fault-free baseline, faults with the legacy at-most-once policy
// (losses surface as RemoteFaults), and faults with retries + exactly-once
// dedup (every loss absorbed, zero duplicate executions).  The headline
// numbers are the surfaced-fault counts and the price of reliability in
// virtual-time makespan.  Everything derives from the seeded simulation,
// so the summary is bit-for-bit reproducible; determinism is verified by
// running the reliable configuration twice.
#include <cstdio>

#include "bench_util.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr int kClients = 2;
constexpr int kCallsPerClient = 64;
constexpr double kDropRate = 0.08;
constexpr std::uint64_t kPartitionUs = 20'000;

struct RunResult {
    std::uint64_t makespan_us = 0;
    std::size_t tasks = 0;
    std::size_t faults = 0;
    std::size_t recovered = 0;
    std::uint64_t retries = 0;
    std::uint64_t reply_loss_retries = 0;
    std::uint64_t dedup_hits = 0;
    std::int64_t executions = 0;  // Service.work calls observed server-side
    std::uint64_t latency_p50_us = 0;  // exact per-task virtual latency
    std::uint64_t latency_p95_us = 0;
    std::uint64_t latency_p99_us = 0;
    std::string traffic_matrix;  // per-(class, src, dst) calls + bytes
};

RunResult run_workload(bool with_faults, bool reliable) {
    model::ClassPool pool = bench::assemble_app(bench::kCountingServiceApp);
    runtime::SystemOptions options;
    options.network_seed = 11;
    if (reliable) options.reliability = bench::reliable_retries();
    runtime::System system(pool, options);
    system.add_node();  // 0: server
    for (int k = 0; k < kClients; ++k) system.add_node();
    system.policy().set_instance_home("Service", 0, "RMI");

    runtime::WorkloadDriver driver(system);
    std::vector<Value> services;
    for (int k = 1; k <= kClients; ++k)
        services.push_back(
            system.construct(static_cast<net::NodeId>(k), "Service", "()V"));

    if (with_faults) {
        // Faults begin after the fault-free construction traffic.
        const std::uint64_t t0 = bench::clients_ready_us(system, kClients);
        bench::add_client_loss(system, kClients, kDropRate, t0, /*replies=*/true);
        net::FaultWindow partition;
        partition.kind = net::FaultKind::LinkDown;
        partition.src = 1;
        partition.dst = 0;
        partition.from_us = t0 + 10'000;
        partition.until_us = t0 + 10'000 + kPartitionUs;
        system.network().fault_plan().add(partition);
    }

    for (int k = 1; k <= kClients; ++k) {
        Value svc = services[static_cast<std::size_t>(k - 1)];
        driver.add_client(static_cast<net::NodeId>(k), kCallsPerClient,
                          [svc](runtime::System& sys, net::NodeId node) {
                              sys.node(node).interp().call_virtual(
                                  svc, "work", "(J)J", {Value::of_long(1)});
                          });
    }
    runtime::WorkloadDriver::Report report = driver.run();

    RunResult r;
    r.makespan_us = report.makespan_us;
    r.tasks = report.tasks_run;
    r.faults = report.faults;
    r.recovered = report.recovered;
    r.retries = system.metrics().counter("rpc.retries").value();
    r.reply_loss_retries = system.metrics().counter("rpc.retries_reply_loss").value();
    r.dedup_hits = system.metrics().counter("rpc.dedup_hits").value();
    r.latency_p50_us = report.latency_p50_us;
    r.latency_p95_us = report.latency_p95_us;
    r.latency_p99_us = report.latency_p99_us;
    r.traffic_matrix = bench::traffic_matrix_json(system);
    // Count executions straight off the instances' `calls` fields: with
    // exactly-once semantics this equals the task count.
    if (r.faults == 0) r.executions = bench::executions(system, services);
    return r;
}

void emit_summary() {
    const RunResult baseline = run_workload(false, false);
    const RunResult unreliable = run_workload(true, false);
    const RunResult reliable = run_workload(true, true);
    const RunResult again = run_workload(true, true);

    bench::JsonSummary("E10")
        .add("clients", std::uint64_t{kClients})
        .add("calls_per_client", std::uint64_t{kCallsPerClient})
        .add("drop_rate", kDropRate)
        .add("partition_us", kPartitionUs)
        .add("faultfree_makespan_us", baseline.makespan_us)
        .add("unreliable_makespan_us", unreliable.makespan_us)
        .add("unreliable_surfaced_faults", std::uint64_t{unreliable.faults})
        .add("reliable_makespan_us", reliable.makespan_us)
        .add("reliable_surfaced_faults", std::uint64_t{reliable.faults})
        .add("reliable_recovered_tasks", std::uint64_t{reliable.recovered})
        .add("reliable_retries", reliable.retries)
        .add("reply_loss_retries", reliable.reply_loss_retries)
        .add("dedup_hits", reliable.dedup_hits)
        .add("executions", static_cast<std::uint64_t>(reliable.executions))
        .add("exactly_once",
             std::uint64_t{reliable.faults == 0 &&
                           reliable.executions ==
                               static_cast<std::int64_t>(reliable.tasks) &&
                           reliable.dedup_hits == reliable.reply_loss_retries})
        .add("reliability_cost",
             static_cast<double>(reliable.makespan_us) /
                 static_cast<double>(baseline.makespan_us ? baseline.makespan_us : 1))
        .add("latency_p50_us", reliable.latency_p50_us)
        .add("latency_p95_us", reliable.latency_p95_us)
        .add("latency_p99_us", reliable.latency_p99_us)
        .add("faultfree_latency_p99_us", baseline.latency_p99_us)
        .add_raw("traffic_matrix", reliable.traffic_matrix)
        .add("deterministic",
             std::uint64_t{reliable.makespan_us == again.makespan_us &&
                           reliable.retries == again.retries &&
                           reliable.dedup_hits == again.dedup_hits &&
                           reliable.latency_p99_us == again.latency_p99_us &&
                           reliable.traffic_matrix == again.traffic_matrix})
        .emit();
}

}  // namespace

namespace rafda::bench {

int e10() {
    std::printf("=== E10: reliable RPC under scheduled faults ===\n");
    std::printf(
        "expected shape: with ~8%% loss plus a 20ms partition, the legacy policy\n"
        "surfaces RemoteFaults; retries+dedup complete every task with zero surfaced\n"
        "faults and zero duplicate executions (dedup hits == reply-loss retries),\n"
        "paying a modest virtual-time premium; identical numbers on every run.\n\n");
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
