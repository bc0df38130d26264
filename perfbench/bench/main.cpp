// perfbench — host-performance benchmark of the RAFDA runtime.
//
//   perfbench --workload <rpc_small|rpc_reliable|fleet|transform_jdk>
//             --seed N --seconds S --trace 0|1 [--tiny] [--break-oracle]
//             [--trace-out FILE]
//
// Prints the workload's metrics one per line with their units, then, as the
// last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when an output check failed, 2 on a usage error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric with its unit, in the order BENCHMARK.json
/// lists them.  Count-like metrics of a layer a workload never enters
/// read 0; host-time metrics always come from a measurement.
struct Declared {
    const char* name;
    const char* unit;
};
constexpr Declared kPerLayer[] = {
    {"setup.system_ctor_ms", "ms"},       {"setup.add_node_us", "us"},
    {"setup.construct_us", "us"},         {"rpc.call_ns", "ns"},
    {"rpc.self_ns_est", "ns"},            {"rpc.pool_reuse_ratio", "ratio"},
    {"rpc.attempts_per_call", "ratio"},   {"rpc.useful_attempt_ratio", "ratio"},
    {"rpc.dedup_hits", "count"},          {"vm.local_call_ns", "ns"},
    {"vm.instr_per_call", "count"},       {"vm.ic_hit_ratio", "ratio"},
    {"codec.rmi.encode_request_ns", "ns"}, {"codec.rmi.decode_request_ns", "ns"},
    {"codec.rmi.encode_reply_ns", "ns"},  {"codec.rmi.decode_reply_ns", "ns"},
    {"codec.corba.encode_request_ns", "ns"}, {"codec.corba.decode_request_ns", "ns"},
    {"codec.corba.encode_reply_ns", "ns"}, {"codec.corba.decode_reply_ns", "ns"},
    {"codec.soap.encode_request_ns", "ns"}, {"codec.soap.decode_request_ns", "ns"},
    {"codec.soap.encode_reply_ns", "ns"}, {"codec.soap.decode_reply_ns", "ns"},
    {"net.transfer_at_ns", "ns"},         {"net.max_link_util_ppm", "ppm"},
    {"net.coalesced_ratio", "ratio"},     {"net.drop_ratio", "ratio"},
    {"net.virtual_queue_us_p99", "virtual_us"},
    {"sched.post_pop_ns", "ns"},          {"sched.events_per_task", "count"},
    {"sched.peak_pending", "count"},      {"sched.events_per_s", "1/s"},
    {"driver.run_ms", "ms"},              {"directory.resolve_us", "us"},
    {"wal.append_ns", "ns"},              {"wal.records_per_call", "count"},
    {"wal.bytes_per_call", "B"},          {"journal.record_ns", "ns"},
    {"journal.events_per_call", "count"}, {"trace.overhead_pct", "%"},
    {"corpus.generate_ms", "ms"},         {"transform.analyze_ms", "ms"},
    {"transform.generate_ms", "ms"},      {"model.verify_ms", "ms"},
    {"transform.out_classes", "count"},   {"transform.pool_steals", "count"},
    {"virtual_makespan_us", "virtual_us"}, {"virtual_latency_p50_us", "virtual_us"},
    {"virtual_latency_p99_us", "virtual_us"}, {"wire_bytes_per_call", "B"},
    {"failed_call_ratio", "ratio"},       {"op_us_p99", "us"},
};
constexpr const char* kEndToEnd[] = {"setup_s", "ops_per_s", "op_us_p50", "peak_rss_mb"};

bool is_host_time(const std::string& unit) {
    return unit == "ns" || unit == "us" || unit == "ms" || unit == "s" || unit == "1/s" ||
           unit == "%";
}

/// Shortest decimal that reads back as the same double.
std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<rpc_small|rpc_reliable|fleet|transform_jdk> --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--break-oracle] [--trace-out FILE]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            args.trace = std::string(argv[++i]) == "1";
        } else if (a == "--trace-out" && has_value) {
            args.trace_out = argv[++i];
        } else if (a == "--tiny") {
            args.tiny = true;
        } else if (a == "--break-oracle") {
            args.break_oracle = true;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!(args.seconds > 0)) return usage("--seconds must be positive");

    Report report;
    try {
        if (args.workload == "rpc_small")
            report = run_rpc_small(args);
        else if (args.workload == "rpc_reliable")
            report = run_rpc_reliable(args);
        else if (args.workload == "fleet")
            report = run_fleet(args);
        else if (args.workload == "transform_jdk")
            report = run_transform_jdk(args);
        else
            return usage(("unknown workload '" + args.workload + "'").c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
        return 1;
    }

    const Oracle& oracle = report.oracle;
    const double failed_ratio = static_cast<double>(oracle.failed()) /
                                static_cast<double>(std::max<std::uint64_t>(1, oracle.attempted()));
    report.per_layer["failed_call_ratio"] = {failed_ratio, "ratio"};
    report.line("failed_call_ratio", failed_ratio, "ratio");
    for (const Declared& d : kPerLayer)
        if (!report.per_layer.count(d.name) && !is_host_time(d.unit))
            report.per_layer[d.name] = {0.0, d.unit};

    std::printf("perfbench %s seed=%llu trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
    for (const auto& [name, m] : report.lines)
        std::printf("metric %s = %s %s\n", name.c_str(), number(m.value).c_str(), m.unit.c_str());
    std::string virt = "{";
    for (const auto& [name, v] : report.virtual_results)
        virt += (virt.size() > 1 ? ",\"" : "\"") + name + "\":" + std::to_string(v);
    std::printf("virtual_results %s}\n", virt.c_str());
    for (const auto& [name, a] : report.spans)
        std::printf("span %s count=%llu total_ms=%s self_ms=%s\n", name.c_str(),
                    static_cast<unsigned long long>(a.count),
                    number(static_cast<double>(a.total_ns) / 1e6).c_str(),
                    number(static_cast<double>(a.self_ns) / 1e6).c_str());
    for (const std::string& note : oracle.notes()) std::printf("oracle failure: %s\n", note.c_str());

    std::string metrics;
    auto add = [&](const std::string& name, const Metric& m) {
        if (!metrics.empty()) metrics += ",";
        metrics += "\"" + name + "\":{\"value\":" + number(m.value) + ",\"unit\":\"" + m.unit +
                   "\"}";
    };
    if (args.trace) {
        for (const Declared& d : kPerLayer) {
            const auto it = report.per_layer.find(d.name);
            if (it == report.per_layer.end()) {
                std::fprintf(stderr, "perfbench: per-layer metric %s was not measured\n", d.name);
                return 1;
            }
            add(d.name, it->second);
        }
    } else {
        for (const char* name : kEndToEnd) add(name, report.end_to_end.at(name));
    }
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
                oracle.ok() ? "true" : "false",
                static_cast<unsigned long long>(oracle.attempted()),
                static_cast<unsigned long long>(oracle.failed()), metrics.c_str());
    return oracle.ok() ? 0 : 1;
}
