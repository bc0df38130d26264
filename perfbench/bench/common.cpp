// Helpers shared by the workloads: the guest program, node and link
// readings, and the round loop with its reporting.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <tuple>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "support/thread_pool.hpp"
#include "vm/prelude.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rafda;

namespace {

constexpr const char* kServiceApp = R"RIR(
class Service {
  field acc J
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
    load 0
    load 0
    getfield Service.acc J
    const 3L
    mul
    load 1
    add
    putfield Service.acc J
    load 0
    getfield Service.acc J
    returnvalue
  }
  method echo (S)S {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    returnvalue
  }
  method count ()I {
    load 0
    getfield Service.calls I
    returnvalue
  }
  method total ()J {
    load 0
    getfield Service.acc J
    returnvalue
  }
}
)RIR";

}  // namespace

model::ClassPool service_pool() {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kServiceApp);
    model::verify_pool(pool);
    return pool;
}

std::size_t transform_threads() {
    return std::min<std::size_t>(2, support::ThreadPool::hardware_threads());
}

VmTotals vm_totals(runtime::System& system) {
    VmTotals t;
    for (std::size_t k = 0; k < system.node_count(); ++k) {
        const vm::Counters& c = system.node(static_cast<net::NodeId>(k)).interp().counters();
        t.instructions += c.instructions;
        t.ic_hits += c.ic_hits();
        t.ic_misses += c.ic_misses();
    }
    return t;
}

std::uint64_t max_link_util_ppm(runtime::System& system) {
    const std::uint64_t horizon = std::max<std::uint64_t>(1, system.network().now_us());
    std::uint64_t best = 0;
    system.network().visit_links([&](net::NodeId, net::NodeId, const net::LinkStats& s) {
        best = std::max(best, s.busy_us * 1'000'000 / horizon);
    });
    return best;
}

std::uint64_t proto_counter(const runtime::System& system, const std::string& leaf) {
    std::uint64_t n = 0;
    for (const char* p : {"RMI", "CORBA", "SOAP"})
        if (const obs::Counter* c =
                system.metrics().find_counter(std::string("rpc.proto.") + p + "." + leaf))
            n += c->value();
    return n;
}

SystemMarks mark_system(runtime::System& system) {
    auto counter = [&](const char* name) {
        const obs::Counter* c = system.metrics().find_counter(name);
        return c ? c->value() : 0;
    };
    SystemMarks m;
    m.vm = vm_totals(system);
    m.pool_acquires = system.buffer_pool().acquires();
    m.pool_reuses = system.buffer_pool().reuses();
    m.attempts = proto_counter(system, "calls") + counter("rpc.retries");
    m.wire_bytes = proto_counter(system, "request_bytes") + proto_counter(system, "reply_bytes");
    m.dedup_hits = counter("rpc.dedup_hits");
    m.wal_records = counter("wal.records");
    m.wal_bytes = counter("wal.bytes");
    m.journal_events = system.journal().total_recorded();
    m.net = system.network().total_stats();
    return m;
}

void report_system_layers(runtime::System& system, const SystemMarks& before,
                          std::uint64_t calls, MetricMap& out) {
    const SystemMarks after = mark_system(system);
    const auto per_call = [calls](std::uint64_t n) {
        return calls ? static_cast<double>(n) / static_cast<double>(calls) : 0.0;
    };
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
    };
    const std::uint64_t attempts = after.attempts - before.attempts;
    const std::uint64_t ic_hits = after.vm.ic_hits - before.vm.ic_hits;
    const std::uint64_t ic_all = ic_hits + after.vm.ic_misses - before.vm.ic_misses;
    const std::uint64_t frames = after.net.messages - before.net.messages;
    const std::uint64_t coalesced = after.net.coalesced - before.net.coalesced;
    out["rpc.attempts_per_call"] = {per_call(attempts), "ratio"};
    out["rpc.useful_attempt_ratio"] = {ratio(calls, attempts), "ratio"};
    out["rpc.dedup_hits"] = {static_cast<double>(after.dedup_hits - before.dedup_hits), "count"};
    out["rpc.pool_reuse_ratio"] = {ratio(after.pool_reuses - before.pool_reuses,
                                         after.pool_acquires - before.pool_acquires),
                                   "ratio"};
    out["vm.instr_per_call"] = {per_call(after.vm.instructions - before.vm.instructions),
                                "count"};
    out["vm.ic_hit_ratio"] = {ratio(ic_hits, ic_all), "ratio"};
    out["net.max_link_util_ppm"] = {static_cast<double>(max_link_util_ppm(system)), "ppm"};
    out["net.coalesced_ratio"] = {ratio(coalesced, frames + coalesced), "ratio"};
    out["net.drop_ratio"] = {ratio(after.net.drops - before.net.drops, frames + coalesced),
                             "ratio"};
    out["wal.records_per_call"] = {per_call(after.wal_records - before.wal_records), "count"};
    out["wal.bytes_per_call"] = {per_call(after.wal_bytes - before.wal_bytes), "B"};
    out["journal.events_per_call"] = {per_call(after.journal_events - before.journal_events),
                                      "count"};
    out["wire_bytes_per_call"] = {per_call(after.wire_bytes - before.wire_bytes), "B"};
}

std::uint64_t nearest_rank(std::vector<std::uint64_t> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::vector<std::uint64_t> idle_latencies(const LayerShapes& shapes) {
    struct Idle {
        model::ClassPool pool = service_pool();
        std::unique_ptr<runtime::System> system;
        vm::Value service;
    };
    const auto params = [&](net::NodeId a, net::NodeId b) {
        const auto it = shapes.link_params.find({a, b});
        return it == shapes.link_params.end() ? net::LinkParams{} : it->second;
    };
    std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, std::unique_ptr<Idle>> idle;
    std::vector<std::uint64_t> out;
    for (const CallShape& c : shapes.calls) {
        const net::LinkParams up = params(c.client, c.server);
        const net::LinkParams down = params(c.server, c.client);
        auto& slot = idle[{c.protocol, up.latency_us, down.latency_us}];
        if (!slot) {
            slot = std::make_unique<Idle>();
            runtime::SystemOptions options;
            options.pipeline.generator.protocols = {"RMI", "SOAP", "CORBA"};
            options.pipeline.threads = 1;
            slot->system = std::make_unique<runtime::System>(slot->pool, options);
            slot->system->add_node();
            slot->system->add_node();
            slot->system->network().set_link(0, 1, up);
            slot->system->network().set_link(1, 0, down);
            slot->system->policy().set_instance_home("Service", 1, c.protocol);
            slot->service = slot->system->construct(0, "Service", "()V");
        }
        runtime::Node& caller = slot->system->node(0);
        const std::uint64_t t0 = caller.clock_us();
        if (c.echo)
            caller.interp().call_virtual(slot->service, "echo", "(S)S",
                                         {vm::Value::of_str(c.payload)});
        else
            caller.interp().call_virtual(slot->service, "work", "(J)J",
                                         {vm::Value::of_long(c.x)});
        out.push_back(caller.clock_us() - t0);
    }
    return out;
}

namespace {

/// Pins the calling thread to CPUs of the mask it started with, and
/// restores that mask when destroyed.
class CpuRotation {
public:
    CpuRotation() {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
    ~CpuRotation() {
        if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /// Pins to `width` consecutive allowed CPUs starting at turn `turn`.
    void pin(std::size_t turn, std::size_t width) {
        if (cpus_.empty()) return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (std::size_t k = 0; k < std::min(width, cpus_.size()); ++k)
            CPU_SET(cpus_[(turn + k) % cpus_.size()], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

}  // namespace

RoundStats run_rounds(const Args& args, double budget_s, std::size_t min_rounds,
                      std::size_t window_ops, std::size_t cpus_per_round, SpanLog& spans,
                      const RoundFn& round) {
    RoundStats stats(window_ops);
    CpuRotation cpus;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    while (stats.rounds < min_rounds || now_ns() < deadline) {
        if (cpus_per_round) cpus.pin(stats.rounds / 2, cpus_per_round);
        const bool traced = args.trace && stats.rounds % 2 == 1;
        spans.set_enabled(traced);
        stats.ops.set_enabled(!traced);
        const RoundTimes t = round(traced, stats.ops);
        stats.ops.end_round();
        spans.set_enabled(false);
        stats.setup_s.push_back(t.setup_s);
        const double rate = t.work_s > 0 ? static_cast<double>(t.ops) / t.work_s : 0.0;
        (traced ? stats.traced_rate : stats.rate).push_back(rate);
        ++stats.rounds;
    }
    return stats;
}

void report_end_to_end(Report& report, const RoundStats& stats) {
    report.end_to_end["setup_s"] = {median(stats.setup_s), "s"};
    report.end_to_end["ops_per_s"] = {quantile(stats.ops.window_rates(), 0.99), "1/s"};
    report.end_to_end["op_us_p50"] = {quantile(stats.ops.window_p50_us(), 0.01), "us"};
    report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    report.per_layer["op_us_p99"] = {stats.ops.all().quantile_ns(0.99) / 1e3, "us"};
}

void report_span_metrics(Report& report, const SpanLog& spans, const RoundStats& stats) {
    struct Map {
        const char* span;
        const char* metric;
        double scale;  // ns -> unit
        const char* unit;
    };
    static constexpr Map kMaps[] = {
        {"corpus.generate", "corpus.generate_ms", 1e-6, "ms"},
        {"setup.system_ctor", "setup.system_ctor_ms", 1e-6, "ms"},
        {"setup.add_node", "setup.add_node_us", 1e-3, "us"},
        {"setup.construct", "setup.construct_us", 1e-3, "us"},
        {"directory.resolve", "directory.resolve_us", 1e-3, "us"},
        {"rpc.call", "rpc.call_ns", 1.0, "ns"},
        {"driver.run", "driver.run_ms", 1e-6, "ms"},
    };
    for (const Map& m : kMaps) {
        const SpanLog::Aggregate a = spans.aggregate(m.span);
        if (a.count) report.per_layer[m.metric] = {a.mean_ns() * m.scale, m.unit};
    }
    report.spans = spans.aggregates();
    if (!stats.rate.empty() && !stats.traced_rate.empty())
        report.per_layer["trace.overhead_pct"] = {
            (median(stats.rate) / median(stats.traced_rate) - 1.0) * 100.0, "%"};
}

void report_virtual(Report& report) {
    for (const char* name :
         {"virtual_makespan_us", "virtual_latency_p50_us", "virtual_latency_p99_us"}) {
        const double v = static_cast<double>(report.virtual_results.at(name));
        report.per_layer[name] = {v, "virtual_us"};
        report.line(name, v, "virtual_us");
    }
}

double events_per_s(const SpanLog& spans, std::uint64_t events) {
    const SpanLog::Aggregate run = spans.aggregate("driver.run");
    if (!run.count || run.total_ns <= 0) return 0.0;
    return static_cast<double>(events) * static_cast<double>(run.count) /
           (static_cast<double>(run.total_ns) / 1e9);
}

void finish_traced_run(const Args& args, Report& report, const SpanLog& spans,
                       LayerShapes shapes, const obs::Registry& transform_metrics) {
    const auto& v = report.virtual_results;
    if (const auto events = v.find("events_dispatched"); events != v.end())
        report.per_layer["sched.events_per_s"] = {events_per_s(spans, events->second), "1/s"};
    if (!shapes.calls.empty()) {
        const std::vector<std::uint64_t> idle = idle_latencies(shapes);
        report.per_layer["net.virtual_queue_us_p99"] = {
            static_cast<double>(v.at("virtual_latency_p99_us")) -
                static_cast<double>(nearest_rank(idle, 0.99)),
            "virtual_us"};
    }
    const obs::Counter* runs = transform_metrics.find_counter("transform.runs");
    const obs::Counter* steals = transform_metrics.find_counter("transform.pool.steals");
    report.per_layer["transform.pool_steals"] = {
        runs && steals && runs->value()
            ? static_cast<double>(steals->value()) / static_cast<double>(runs->value())
            : 0.0,
        "count"};
    const std::size_t probe_depth = probe_layers(report);
    if (!shapes.heap_depth) shapes.heap_depth = probe_depth;
    replay_layers(std::move(shapes), report.per_layer, args.tiny ? 0.002 : 0.04);
    if (!args.trace_out.empty() && !spans.write_json(args.trace_out))
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.trace_out.c_str());
}

void check_repeatable(Report& report, std::size_t round,
                      const std::map<std::string, std::uint64_t>& results) {
    if (round == 0) {
        report.virtual_results = results;
        return;
    }
    report.oracle.check(results == report.virtual_results,
                        "round " + std::to_string(round) +
                            ": virtual results differ from round 0 on the same seed");
}

}  // namespace perfbench
