// E5 — interchangeability cost matrix (Sec 2: "various proxies ... provide
// alternative remote versions, e.g. SOAP-based, RMI-based").
//
// The same Service.work call measured across the four implementations a
// reference can be bound to:
//
//   untransformed        — original program, plain virtual dispatch
//   O_Local              — transformed, local implementation
//   O_Proxy_RMI          — remote over the compact binary protocol
//   O_Proxy_CORBA        — remote over the CDR/GIOP-flavoured protocol
//   O_Proxy_SOAP         — remote over the verbose text protocol
//
// Host wall time captures middleware CPU cost (advisory); virtual time
// and wire bytes per call capture the simulated network, where the
// RMI-vs-SOAP asymmetry shows.  A payload sweep (echo of N-byte strings)
// shows SOAP's size amplification growing with payload.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "runtime/system.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"

namespace {

using namespace rafda;
using vm::Value;

/// Calls per host-timing sample; wall time per call is sample / kTimedCalls.
constexpr int kTimedCalls = 1000;

/// Host nanoseconds per work() call on `svc` through `interp` (advisory).
double host_ns_per_call(vm::Interpreter& interp, const Value& svc) {
    std::int64_t k = 0;
    return bench::best_wall_us(bench::kHostReps,
                               [&] {
                                   for (int c = 0; c < kTimedCalls; ++c)
                                       interp.call_virtual(svc, "work", "(J)J",
                                                           {Value::of_long(++k)});
                               }) *
           1000.0 / kTimedCalls;
}

/// The ablation: Service excluded from substitution by policy keeps raw
/// dispatch (no interface indirection, no factory), proving the overhead
/// is opt-in per class.
double kept_in_place_ns_per_call() {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    transform::PipelineOptions options;
    options.substitutable = std::vector<std::string>{};  // substitute nothing
    transform::PipelineResult result = transform::run_pipeline(pool, options);
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, result.report);
    return host_ns_per_call(interp, interp.construct("Service", "()V", {}));
}

struct RemoteRow {
    double virtual_us_per_call = 0;
    double wire_bytes_per_call = 0;
    double host_ns_per_call = 0;
};

/// 100 remote work() calls over `protocol`, measured via snapshot/diff;
/// host time is sampled afterwards, from further calls on the same
/// system, so it never reaches the virtual-time figures.
RemoteRow measure_remote(const std::string& protocol) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    runtime::SystemOptions options;
    options.pipeline.generator.protocols = {"RMI", "SOAP", "CORBA"};
    runtime::System system(pool, options);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("Service", 1, protocol);
    Value svc = system.construct(0, "Service", "()V");
    vm::Interpreter& n0 = system.node(0).interp();
    obs::Snapshot before = system.metrics().snapshot();
    const std::uint64_t t0 = system.network().now_us();
    for (std::int64_t k = 1; k <= 100; ++k)
        n0.call_virtual(svc, "work", "(J)J", {Value::of_long(k)});
    obs::Snapshot window = obs::diff(before, system.metrics().snapshot());
    const std::string prefix = "rpc.proto." + protocol + ".";
    const double calls = static_cast<double>(window.counter_value(prefix + "calls"));
    RemoteRow row;
    row.virtual_us_per_call = static_cast<double>(system.network().now_us() - t0) / calls;
    row.wire_bytes_per_call =
        static_cast<double>(window.counter_value(prefix + "request_bytes") +
                            window.counter_value(prefix + "reply_bytes")) /
        calls;
    row.host_ns_per_call = host_ns_per_call(n0, svc);
    return row;
}

/// Payload sweep: wire bytes of one echo(S) call with an N-byte string.
void print_payload_sweep() {
    std::printf("%-24s %10s %10s\n", "echo(S) payload sweep", "RMI B/call",
                "SOAP B/call");
    for (std::size_t size : {16, 256, 4096}) {
        std::printf("  %-22zu", size);
        for (const std::string protocol : {"RMI", "SOAP"}) {
            model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
            runtime::System system(pool);
            system.add_node();
            system.add_node();
            system.policy().set_instance_home("Service", 1, protocol);
            Value svc = system.construct(0, "Service", "()V");
            system.reset_stats();
            system.node(0).interp().call_virtual(svc, "echo", "(S)S",
                                                 {Value::of_str(std::string(size, 'x'))});
            const obs::Snapshot snap = system.metrics().snapshot();
            const std::string p = "rpc.proto." + protocol + ".";
            std::printf(" %10llu", static_cast<unsigned long long>(
                                       snap.counter_value(p + "request_bytes") +
                                       snap.counter_value(p + "reply_bytes")));
        }
        std::printf("\n");
    }
    std::printf("\n");
}

void emit_summary(const std::vector<std::pair<std::string, RemoteRow>>& remote) {
    bench::JsonSummary summary("E5");
    for (const auto& [protocol, row] : remote) {
        summary.add(protocol + "_virtual_us_per_call", row.virtual_us_per_call);
        summary.add(protocol + "_wire_bytes_per_call", row.wire_bytes_per_call);
    }
    summary.emit();
}

}  // namespace

namespace rafda::bench {

int e5() {
    std::printf("=== E5: dispatch matrix — who pays what per call ===\n");
    std::printf(
        "expected shape: untransformed ~= O_Local (small constant factor)\n"
        "<< RMI < CORBA < SOAP, remote cost dominated by latency + codec; SOAP's\n"
        "wire_bytes several times RMI's, growing with payload.  Host ns/call is\n"
        "advisory (best of %d samples of %d calls).\n\n",
        kHostReps, kTimedCalls);
    std::vector<std::pair<std::string, RemoteRow>> remote;
    for (const std::string protocol : {"RMI", "CORBA", "SOAP"})
        remote.emplace_back(protocol, measure_remote(protocol));

    std::printf("%-36s %14s %14s %12s\n", "binding (work(J)J)", "host ns/call",
                "virt us/call", "wire B/call");
    auto local = [](const char* name, double ns) {
        std::printf("%-36s %14.0f %14d %12d\n", name, ns, 0, 0);
    };
    Variants v(assemble_app(kServiceApp));
    Value o_local =
        v.rafda_vm.call_static("Service_O_Factory", "make", "()LService_O_Int;");
    v.rafda_vm.call_static("Service_O_Factory", "init", "(LService_O_Int;)V", {o_local});
    local("untransformed",
          host_ns_per_call(v.original_vm, v.original_vm.construct("Service", "()V", {})));
    local("O_Local", host_ns_per_call(v.rafda_vm, o_local));
    for (const auto& [protocol, row] : remote)
        std::printf("%-36s %14.0f %14.1f %12.1f\n", ("O_Proxy_" + protocol).c_str(),
                    row.host_ns_per_call, row.virtual_us_per_call,
                    row.wire_bytes_per_call);
    local("kept in place (excluded by policy)", kept_in_place_ns_per_call());
    std::printf("\n");
    print_payload_sweep();
    emit_summary(remote);
    return 0;
}

}  // namespace rafda::bench
