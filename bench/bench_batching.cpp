// E12 — per-link call batching + pipelining on a skewed workload
// (DESIGN.md §17).
//
// Two pipelined clients drive a skewed call mix (one issues 3x the other's
// volume) against one server over slow, thin links.  The same seeded
// schedule runs twice: per-call framing, then with batching on, so
// pipelined requests that catch the link still serializing an earlier
// frame coalesce into it.  The headline number is wire bytes per call
// (entries drop the per-frame header, the src field and most of the
// request id), with *identical* per-call results, verified value by
// value; busy time and makespan are reported alongside, and shrink only
// by the bytes' serialization time, since an entry pays the same
// propagation as a frame.  A third run stacks the E10
// fault plan (8% loss both ways, retries + dedup) on top of batching to
// show exactly-once semantics survive coalescing, and the batched
// configuration runs twice to pin bit-for-bit determinism from the seed.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr int kHeavyCalls = 96;  // client 1: the hot talker
constexpr int kLightCalls = 32;  // client 2: background traffic
constexpr std::size_t kPipelineDepth = 8;
constexpr double kDropRate = 0.08;

struct RunResult {
    std::uint64_t makespan_us = 0;
    std::size_t tasks = 0;
    std::size_t faults = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t messages = 0;           // full frames
    std::uint64_t coalesced = 0;          // batch-entry continuations
    std::uint64_t inbound_busy_us = 0;    // client->server links
    std::uint64_t batch_frames = 0;
    std::uint64_t batch_coalesced = 0;
    std::uint64_t batch_entry_bytes = 0;
    std::uint64_t retries = 0;
    std::uint64_t reply_loss_retries = 0;
    std::uint64_t dedup_hits = 0;
    std::int64_t executions = 0;
    std::vector<std::int64_t> results;    // per-call return values, in order
    std::string traffic_matrix;
};

RunResult run_workload(bool batched, bool with_faults) {
    model::ClassPool pool = bench::assemble_app(bench::kCountingServiceApp);
    runtime::SystemOptions options;
    options.network_seed = 11;
    // Slow WAN-ish links: 400us propagation, 25 bytes/us.  Pipelined
    // requests overlap on the wire, which is the shape batching coalesces.
    options.default_link = net::LinkParams{400, 25.0, 0.0};
    options.batching.enabled = batched;
    if (with_faults) options.reliability = bench::reliable_retries();
    runtime::System system(pool, options);
    system.add_node();  // 0: server
    system.add_node();  // 1: heavy client
    system.add_node();  // 2: light client
    system.policy().set_instance_home("Service", 0, "RMI");

    std::vector<Value> services;
    for (int k = 1; k <= 2; ++k)
        services.push_back(
            system.construct(static_cast<net::NodeId>(k), "Service", "()V"));

    if (with_faults)
        bench::add_client_loss(system, 2, kDropRate, bench::clients_ready_us(system, 2),
                               /*replies=*/true);

    RunResult r;
    runtime::WorkloadDriver driver(system);
    driver.set_pipeline_depth(kPipelineDepth);
    for (int k = 1; k <= 2; ++k) {
        Value svc = services[static_cast<std::size_t>(k - 1)];
        std::vector<runtime::WorkloadDriver::Task> tasks;
        const int calls = k == 1 ? kHeavyCalls : kLightCalls;
        for (int c = 0; c < calls; ++c)
            tasks.push_back([svc, c, &r](runtime::System& sys, net::NodeId node) {
                Value v = sys.node(node).interp().call_virtual(
                    svc, "work", "(J)J", {Value::of_long(c + 1)});
                r.results.push_back(v.as_long());
            });
        driver.add_client(static_cast<net::NodeId>(k), std::move(tasks));
    }
    runtime::WorkloadDriver::Report report = driver.run();

    r.makespan_us = report.makespan_us;
    r.tasks = report.tasks_run;
    r.faults = report.faults;
    net::LinkStats total = system.network().total_stats();
    r.wire_bytes = total.bytes;
    r.messages = total.messages;
    r.coalesced = total.coalesced;
    for (int k = 1; k <= 2; ++k)
        r.inbound_busy_us +=
            system.network().stats(static_cast<net::NodeId>(k), 0).busy_us;
    r.batch_frames = system.metrics().counter("rpc.batch.frames").value();
    r.batch_coalesced = system.metrics().counter("rpc.batch.coalesced").value();
    r.batch_entry_bytes = system.metrics().counter("rpc.batch.entry_bytes").value();
    r.retries = system.metrics().counter("rpc.retries").value();
    r.reply_loss_retries =
        system.metrics().counter("rpc.retries_reply_loss").value();
    r.dedup_hits = system.metrics().counter("rpc.dedup_hits").value();
    r.traffic_matrix = bench::traffic_matrix_json(system);
    if (r.faults == 0) r.executions = bench::executions(system, services);
    return r;
}

void emit_summary() {
    const RunResult plain = run_workload(false, false);
    const RunResult batched = run_workload(true, false);
    const RunResult again = run_workload(true, false);
    const RunResult faulty = run_workload(true, true);

    const std::size_t calls = plain.tasks;
    auto per_call = [calls](std::uint64_t bytes) {
        return static_cast<double>(bytes) /
               static_cast<double>(calls ? calls : 1);
    };

    bench::JsonSummary("E12")
        .add("tasks", std::uint64_t{calls})
        .add("pipeline_depth", std::uint64_t{kPipelineDepth})
        .add("unbatched_makespan_us", plain.makespan_us)
        .add("batched_makespan_us", batched.makespan_us)
        .add("unbatched_wire_bytes", plain.wire_bytes)
        .add("batched_wire_bytes", batched.wire_bytes)
        .add("unbatched_wire_bytes_per_call", per_call(plain.wire_bytes))
        .add("batched_wire_bytes_per_call", per_call(batched.wire_bytes))
        .add("unbatched_inbound_busy_us", plain.inbound_busy_us)
        .add("batched_inbound_busy_us", batched.inbound_busy_us)
        .add("unbatched_messages", plain.messages)
        .add("batched_messages", batched.messages)
        .add("batch_frames", batched.batch_frames)
        .add("batch_coalesced", batched.batch_coalesced)
        .add("batch_entry_bytes", batched.batch_entry_bytes)
        .add("identical_results",
             std::uint64_t{plain.results == batched.results &&
                           batched.executions ==
                               static_cast<std::int64_t>(calls)})
        .add("deterministic",
             std::uint64_t{batched.makespan_us == again.makespan_us &&
                           batched.wire_bytes == again.wire_bytes &&
                           batched.batch_coalesced == again.batch_coalesced &&
                           batched.results == again.results &&
                           batched.traffic_matrix == again.traffic_matrix})
        .add("faulty_surfaced_faults", std::uint64_t{faulty.faults})
        .add("faulty_retries", faulty.retries)
        .add("faulty_exactly_once",
             std::uint64_t{faulty.faults == 0 &&
                           faulty.executions ==
                               static_cast<std::int64_t>(faulty.tasks) &&
                           faulty.dedup_hits == faulty.reply_loss_retries})
        .add_raw("traffic_matrix", batched.traffic_matrix)
        .emit();
}

}  // namespace

namespace rafda::bench {

int e12() {
    std::printf("=== E12: per-link batching on a skewed pipelined workload ===\n");
    std::printf(
        "expected shape: with batching on, pipelined calls that catch a busy link\n"
        "coalesce into the in-flight frame — fewer wire bytes per call and\n"
        "byte-identical per-call results; exactly-once still holds under the E10\n"
        "fault plan.\n\n");
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
