// E15 — durable nodes: WAL replay vs soft state under a mid-run crash
// (DESIGN.md §20).
//
// One engineered incident: a client's call executes on the server but the
// reply path is down, so the client retries; before the retry lands the
// server crashes and restarts.  Soft state loses the reply cache with the
// node, so the post-restart retry re-executes — a duplicate the client
// cannot see.  A durable node replays its WAL (snapshot, log and reply
// stream) on restart and the recovered reply cache answers the retry:
// executions == tasks, exactly-once across the crash it used to die on.  The third arm rebuilds
// the crashed server's image on a *different* live node
// (migration-by-recovery) and checks per-call results against an uncrashed
// baseline.  Everything derives from the seeded simulation, so the summary
// is bit-for-bit reproducible; determinism is verified by running the
// durable configuration twice.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr int kCalls = 48;
constexpr std::uint64_t kReplyDownUs = 2'000;
constexpr std::uint64_t kCrashFromUs = 1'000;
constexpr std::uint64_t kCrashUntilUs = 4'000;
constexpr std::uint64_t kSnapshotIntervalUs = 1'000;

struct RunResult {
    std::uint64_t makespan_us = 0;
    std::size_t tasks = 0;
    std::size_t faults = 0;
    std::uint64_t retries = 0;
    std::uint64_t dedup_hits = 0;
    std::int64_t executions = 0;  // Service.work calls observed server-side
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t wal_snapshots = 0;
    std::uint64_t wal_recoveries = 0;
    std::uint64_t event_order_digest = 0;
    std::string traffic_matrix;
};

/// The crash-and-restart arm: server node 0, client node 1.  The client's
/// first in-driver call executes but its reply is dropped (reply-path
/// LinkDown); the server crashes before the surviving retry lands.
RunResult run_crash_workload(bool durable) {
    model::ClassPool pool = bench::assemble_app(bench::kCountingServiceApp);
    runtime::SystemOptions options;
    options.network_seed = 11;
    options.reliability = bench::reliable_retries();
    options.durability.enabled = durable;
    options.durability.snapshot_interval_us = kSnapshotIntervalUs;
    runtime::System system(pool, options);
    system.add_node();  // 0: server — crashes mid-incident
    system.add_node();  // 1: client
    system.policy().set_instance_home("Service", 0, "RMI");

    Value svc = system.construct(1, "Service", "()V");

    // Windows are anchored to the client's clock, i.e. to its first
    // in-driver call: the call executes (crash opens later), its reply is
    // dropped (reply path down), and the retry that outlives the crash
    // window meets a freshly restarted server.
    const std::uint64_t t0 = system.node(1).clock_us();
    net::FaultWindow reply_down;
    reply_down.kind = net::FaultKind::LinkDown;
    reply_down.src = 0;
    reply_down.dst = 1;
    reply_down.from_us = t0;
    reply_down.until_us = t0 + kReplyDownUs;
    system.network().fault_plan().add(reply_down);
    net::FaultWindow crash;
    crash.kind = net::FaultKind::NodeCrash;
    crash.node = 0;
    crash.from_us = t0 + kCrashFromUs;
    crash.until_us = t0 + kCrashUntilUs;
    system.network().fault_plan().add(crash);

    runtime::WorkloadDriver driver(system);
    driver.add_client(1, kCalls, [svc](runtime::System& sys, net::NodeId node) {
        sys.node(node).interp().call_virtual(svc, "work", "(J)J",
                                             {Value::of_long(1)});
    });
    runtime::WorkloadDriver::Report report = driver.run();

    RunResult r;
    r.makespan_us = report.makespan_us;
    r.tasks = report.tasks_run;
    r.faults = report.faults;
    r.event_order_digest = report.event_order_digest;
    r.retries = system.metrics().counter("rpc.retries").value();
    r.dedup_hits = system.metrics().counter("rpc.dedup_hits").value();
    r.traffic_matrix = bench::traffic_matrix_json(system);
    if (r.faults == 0)
        r.executions = system.node(1)
                           .interp()
                           .call_virtual(svc, "calls", "()I")
                           .as_int();
    if (durable) {
        const runtime::Wal* wal = system.node(0).wal();
        r.wal_records = wal->stats().records;
        r.wal_bytes = wal->log().size() + wal->snapshot().size() + wal->replies().size();
        r.wal_snapshots = wal->stats().snapshots;
        r.wal_recoveries = wal->stats().recoveries;
    }
    return r;
}

struct RelocationResult {
    std::vector<std::int64_t> results;
    std::size_t faults = 0;
    std::size_t restored = 0;
};

/// The migration-by-recovery arm: half the calls land on the original
/// server, then it dies for good and its image is rebuilt on node 2; the
/// remaining calls ride the repointed proxies.  Per-call results must
/// match an uncrashed run exactly.
RelocationResult run_relocation_workload(bool crash) {
    model::ClassPool pool = bench::assemble_app(bench::kCountingServiceApp);
    runtime::SystemOptions options;
    options.network_seed = 11;
    options.durability.enabled = true;
    options.durability.snapshot_interval_us = kSnapshotIntervalUs;
    runtime::System system(pool, options);
    system.add_node();  // 0: client
    system.add_node();  // 1: server — dies for good in the crash arm
    system.add_node();  // 2: recovery target
    system.policy().set_instance_home("Service", 1, "RMI");

    Value svc = system.construct(0, "Service", "()V");
    RelocationResult r;
    for (int k = 0; k < kCalls; ++k) {
        if (crash && k == kCalls / 2) {
            net::FaultWindow w;
            w.kind = net::FaultKind::NodeCrash;
            w.node = 1;
            w.from_us = system.node(0).clock_us();
            w.until_us = ~0ULL;
            system.network().fault_plan().add(w);
            r.restored = system.recover_node_onto(1, 2);
        }
        try {
            r.results.push_back(
                system.node(0)
                    .interp()
                    .call_virtual(svc, "work", "(J)J", {Value::of_long(k)})
                    .as_long());
        } catch (const vm::GuestException&) {
            ++r.faults;
        }
    }
    return r;
}

void emit_summary() {
    const RunResult soft = run_crash_workload(/*durable=*/false);
    const RunResult durable = run_crash_workload(/*durable=*/true);
    const RunResult again = run_crash_workload(/*durable=*/true);
    const RelocationResult baseline = run_relocation_workload(/*crash=*/false);
    const RelocationResult relocated = run_relocation_workload(/*crash=*/true);

    const std::int64_t tasks = static_cast<std::int64_t>(durable.tasks);
    bench::JsonSummary("E15")
        .add("calls", std::uint64_t{kCalls})
        .add("reply_down_us", kReplyDownUs)
        .add("crash_from_us", kCrashFromUs)
        .add("crash_until_us", kCrashUntilUs)
        .add("snapshot_interval_us", kSnapshotIntervalUs)
        .add("soft_makespan_us", soft.makespan_us)
        .add("soft_surfaced_faults", std::uint64_t{soft.faults})
        .add("soft_executions", static_cast<std::uint64_t>(soft.executions))
        .add("soft_duplicates",
             static_cast<std::uint64_t>(soft.executions - tasks))
        .add("durable_makespan_us", durable.makespan_us)
        .add("durable_surfaced_faults", std::uint64_t{durable.faults})
        .add("durable_executions", static_cast<std::uint64_t>(durable.executions))
        .add("durable_dedup_hits", durable.dedup_hits)
        .add("durable_retries", durable.retries)
        .add("exactly_once", std::uint64_t{durable.faults == 0 &&
                                           durable.executions == tasks})
        .add("wal_records", durable.wal_records)
        .add("wal_bytes", durable.wal_bytes)
        .add("wal_snapshots", durable.wal_snapshots)
        .add("wal_recoveries", durable.wal_recoveries)
        .add("relocated_objects", std::uint64_t{relocated.restored})
        .add("relocation_surfaced_faults", std::uint64_t{relocated.faults})
        .add("relocation_match",
             std::uint64_t{relocated.faults == 0 && baseline.faults == 0 &&
                           relocated.results == baseline.results})
        .add("event_order_digest", durable.event_order_digest)
        .add_raw("traffic_matrix", durable.traffic_matrix)
        .add("deterministic",
             std::uint64_t{durable.makespan_us == again.makespan_us &&
                           durable.executions == again.executions &&
                           durable.dedup_hits == again.dedup_hits &&
                           durable.event_order_digest ==
                               again.event_order_digest &&
                           durable.traffic_matrix == again.traffic_matrix})
        .emit();
}

}  // namespace

namespace rafda::bench {

int e15() {
    std::printf("=== E15: durable nodes — WAL replay vs soft state ===\n");
    std::printf(
        "expected shape: a reply-loss retry that outlives a server crash\n"
        "re-executes on a soft-state node (executions = tasks + duplicates) but\n"
        "dedup-hits the WAL-recovered reply cache on a durable one (executions ==\n"
        "tasks); migration-by-recovery rebuilds the dead server on another node\n"
        "with per-call results identical to an uncrashed run; identical numbers\n"
        "on every run.\n\n");
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
