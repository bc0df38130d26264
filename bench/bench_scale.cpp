// E13 — million-client scale-out on the event-heap scheduler
// (DESIGN.md §18, EXPERIMENTS.md E13).
//
// A fleet of RAFDA_SCALE_CLIENTS lightweight clients (default 10⁵) spread
// over RAFDA_SCALE_NODES nodes (default 104: 4 server nodes + 100 client
// nodes) each drives RAFDA_SCALE_TASKS Service.work calls against the
// server tier.  The event heap always runs the client earliest in virtual
// time, and SimNetwork completions fold into the same order digest.  The
// sharded object directory (RAFDA_SCALE_SHARDS shards, default 8) serves a
// resolution per client node, so lookup traffic spreads over the ring
// instead of serializing through one registry node.
//
// What the summary has to witness:
//   * determinism — two full runs produce identical makespan, wire bytes
//     and event-order digest (no wall-clock, no host-order dependence);
//   * bounded memory — peak_pending_events × sizeof(Event) is the
//     scheduler's actual footprint: clients cost bytes per *pending
//     event*, not a stack each (peak RSS is printed as a host row);
//   * the latency distribution (p50/p99 of per-task virtual latency) and
//     per-link utilization of the server tier.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr int kServers = 4;

std::uint64_t env_or(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    if (!v || !*v) return fallback;
    return std::strtoull(v, nullptr, 10);
}

std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;  // bytes there
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // kilobytes
#endif
#else
    return 0;
#endif
}

struct ScaleResult {
    std::uint64_t makespan_us = 0;
    std::uint64_t tasks = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t wire_messages = 0;
    std::uint64_t latency_p50_us = 0;
    std::uint64_t latency_p99_us = 0;
    std::uint64_t events_dispatched = 0;
    std::uint64_t peak_pending_events = 0;
    std::uint64_t event_order_digest = 0;
    std::uint64_t dir_lookups = 0;
    std::uint64_t dir_remote = 0;
    std::uint64_t max_link_util_ppm = 0;
    std::string top_links;  // JSON array, hottest first
};

/// One full fleet run in a fresh System (seed fixed, so two invocations
/// must agree bit for bit).
ScaleResult run_fleet(std::uint64_t clients, std::uint64_t total_nodes,
                      std::uint32_t tasks_each, std::uint32_t shards) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    runtime::System system(pool);
    const std::size_t nodes =
        std::max<std::size_t>(static_cast<std::size_t>(total_nodes), kServers + 1);
    for (std::size_t k = 0; k < nodes; ++k) system.add_node();

    runtime::DirectoryPolicy dp;
    dp.shards = shards;
    system.enable_directory(dp);

    // One Service per client node, homed round-robin on the server tier;
    // fleet clients on that node share its proxy (the service object is
    // the node's connection to its assigned server).
    std::vector<net::NodeId> client_nodes;
    std::vector<Value> services(nodes);
    for (std::size_t k = kServers; k < nodes; ++k) {
        const auto nid = static_cast<net::NodeId>(k);
        system.policy().set_instance_home(
            "Service", static_cast<net::NodeId>(k % kServers), "RMI");
        services[k] = system.construct(nid, "Service", "()V");
        client_nodes.push_back(nid);
        // Exercise the directory ring: each client node resolves its
        // server-side service once through the owning shard.
        system.directory_resolve(nid, static_cast<net::NodeId>(k % kServers),
                                 static_cast<vm::ObjId>(k));
    }

    runtime::WorkloadDriver driver(system);
    driver.add_fleet(client_nodes, clients, tasks_each,
                     [&services](runtime::System& sys, net::NodeId node) {
                         sys.node(node).interp().call_virtual(
                             services[static_cast<std::size_t>(node)], "work",
                             "(J)J", {Value::of_long(1)});
                     });
    runtime::WorkloadDriver::Report report = driver.run();

    ScaleResult r;
    r.makespan_us = report.makespan_us;
    r.tasks = report.tasks_run;
    r.latency_p50_us = report.latency_p50_us;
    r.latency_p99_us = report.latency_p99_us;
    r.events_dispatched = report.events_dispatched;
    r.peak_pending_events = report.peak_pending_events;
    r.event_order_digest = report.event_order_digest;
    const net::LinkStats total = system.network().total_stats();
    r.wire_bytes = total.bytes;
    r.wire_messages = total.messages + total.coalesced;
    r.dir_lookups = system.metrics().counter("directory.lookups").value();
    r.dir_remote = system.metrics().counter("directory.remote").value();

    // Per-link utilization, hottest links first (stable: visit order is
    // (src, dst), ties keep it).
    struct Row {
        net::NodeId src, dst;
        std::uint64_t bytes, util_ppm;
    };
    const std::uint64_t horizon =
        std::max<std::uint64_t>(1, system.network().now_us());
    std::vector<Row> rows;
    system.network().visit_links(
        [&](net::NodeId src, net::NodeId dst, const net::LinkStats& s) {
            rows.push_back(Row{src, dst, s.bytes, s.busy_us * 1'000'000 / horizon});
        });
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) { return a.bytes > b.bytes; });
    r.top_links = "[";
    for (std::size_t k = 0; k < rows.size(); ++k) {
        if (r.max_link_util_ppm < rows[k].util_ppm)
            r.max_link_util_ppm = rows[k].util_ppm;
        if (k >= 5) continue;  // the JSON lists the head, the max covers the rest
        if (k) r.top_links += ",";
        r.top_links += "{\"src\":" + std::to_string(rows[k].src) +
                       ",\"dst\":" + std::to_string(rows[k].dst) +
                       ",\"bytes\":" + std::to_string(rows[k].bytes) +
                       ",\"utilization_ppm\":" + std::to_string(rows[k].util_ppm) +
                       "}";
    }
    r.top_links += "]";
    return r;
}

void emit_summary() {
    const std::uint64_t clients = env_or("RAFDA_SCALE_CLIENTS", 100'000);
    const std::uint64_t nodes = env_or("RAFDA_SCALE_NODES", 104);
    const auto tasks_each =
        static_cast<std::uint32_t>(env_or("RAFDA_SCALE_TASKS", 2));
    const auto shards = static_cast<std::uint32_t>(env_or("RAFDA_SCALE_SHARDS", 8));

    ScaleResult a;
    const double run_us = bench::best_wall_us(
        1, [&] { a = run_fleet(clients, nodes, tasks_each, shards); });
    const ScaleResult b = run_fleet(clients, nodes, tasks_each, shards);
    const bool deterministic = a.makespan_us == b.makespan_us &&
                               a.wire_bytes == b.wire_bytes &&
                               a.event_order_digest == b.event_order_digest &&
                               a.latency_p99_us == b.latency_p99_us;

    // Peak RSS is the whole process's high-water mark, so it also counts
    // any experiment that ran before this one in the same runner.
    std::printf("host (advisory): %.0f ms per fleet run, peak RSS %llu KB\n\n",
                run_us / 1000.0, static_cast<unsigned long long>(peak_rss_kb()));
    bench::JsonSummary("E13")
        .add("clients", clients)
        .add("nodes", nodes)
        .add("tasks_per_client", static_cast<std::uint64_t>(tasks_each))
        .add("directory_shards", static_cast<std::uint64_t>(shards))
        .add("makespan_us", a.makespan_us)
        .add("tasks", a.tasks)
        .add("wire_bytes", a.wire_bytes)
        .add("wire_messages", a.wire_messages)
        .add("latency_p50_us", a.latency_p50_us)
        .add("latency_p99_us", a.latency_p99_us)
        .add("events_dispatched", a.events_dispatched)
        .add("peak_pending_events", a.peak_pending_events)
        .add("event_order_digest", a.event_order_digest)
        .add("directory_lookups", a.dir_lookups)
        .add("directory_remote", a.dir_remote)
        .add("max_link_utilization_ppm", a.max_link_util_ppm)
        .add_raw("top_links", a.top_links)
        .add("deterministic", std::uint64_t{deterministic})
        .emit();
}

}  // namespace

namespace rafda::bench {

int e13() {
    std::printf("=== E13: event-heap scheduler at scale ===\n");
    std::printf(
        "expected shape: the fleet completes with makespan, wire bytes and event\n"
        "order digest identical across two runs (seeded virtual time); pending\n"
        "events -- not client count -- bound scheduler memory; peak RSS printed.\n\n");
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
