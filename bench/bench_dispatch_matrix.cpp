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
// Wall time captures middleware CPU cost; the `virtual_us_per_call` and
// `wire_bytes_per_call` counters capture the simulated network, where the
// RMI-vs-SOAP asymmetry shows.  A payload sweep (echo of N-byte strings)
// shows SOAP's size amplification growing with payload.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "runtime/system.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"

namespace {

using namespace rafda;
using vm::Value;

void BM_Untransformed(benchmark::State& state) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    vm::Interpreter interp(pool);
    vm::bind_prelude_natives(interp);
    Value svc = interp.construct("Service", "()V", {});
    std::int64_t k = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            interp.call_virtual(svc, "work", "(J)J", {Value::of_long(++k)}));
    state.counters["virtual_us_per_call"] = 0;
    state.counters["wire_bytes_per_call"] = 0;
}
BENCHMARK(BM_Untransformed);

void BM_TransformedLocal(benchmark::State& state) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    transform::PipelineResult result = transform::run_pipeline(pool);
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, result.report);
    Value svc = interp.call_static("Service_O_Factory", "make", "()LService_O_Int;");
    interp.call_static("Service_O_Factory", "init", "(LService_O_Int;)V", {svc});
    std::int64_t k = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            interp.call_virtual(svc, "work", "(J)J", {Value::of_long(++k)}));
    state.counters["virtual_us_per_call"] = 0;
    state.counters["wire_bytes_per_call"] = 0;
}
BENCHMARK(BM_TransformedLocal);

void run_remote(benchmark::State& state, const std::string& protocol) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    runtime::SystemOptions options;
    options.pipeline.generator.protocols = {"RMI", "SOAP", "CORBA"};
    runtime::System system(pool, options);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("Service", 1, protocol);
    Value svc = system.construct(0, "Service", "()V");
    vm::Interpreter& n0 = system.node(0).interp();
    system.reset_stats();
    std::uint64_t t0 = system.network().now_us();
    std::int64_t k = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            n0.call_virtual(svc, "work", "(J)J", {Value::of_long(++k)}));
    const obs::Snapshot snap = system.metrics().snapshot();
    const std::string p = "rpc.proto." + protocol + ".";
    const std::uint64_t n = snap.counter_value(p + "calls");
    double calls = static_cast<double>(n ? n : 1);
    state.counters["virtual_us_per_call"] =
        static_cast<double>(system.network().now_us() - t0) / calls;
    state.counters["wire_bytes_per_call"] =
        static_cast<double>(snap.counter_value(p + "request_bytes") +
                            snap.counter_value(p + "reply_bytes")) /
        calls;
}

void BM_RemoteRMI(benchmark::State& state) { run_remote(state, "RMI"); }
BENCHMARK(BM_RemoteRMI);

void BM_RemoteSOAP(benchmark::State& state) { run_remote(state, "SOAP"); }
BENCHMARK(BM_RemoteSOAP);

void BM_RemoteCORBA(benchmark::State& state) { run_remote(state, "CORBA"); }
BENCHMARK(BM_RemoteCORBA);

// Ablation: Service excluded from substitution by policy — it keeps raw
// dispatch (no interface indirection, no factory), proving the overhead is
// opt-in per class.
void BM_KeptInPlace(benchmark::State& state) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    transform::PipelineOptions options;
    options.substitutable = std::vector<std::string>{};  // substitute nothing
    transform::PipelineResult result = transform::run_pipeline(pool, options);
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, result.report);
    Value svc = interp.construct("Service", "()V", {});
    std::int64_t k = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            interp.call_virtual(svc, "work", "(J)J", {Value::of_long(++k)}));
    state.counters["virtual_us_per_call"] = 0;
    state.counters["wire_bytes_per_call"] = 0;
}
BENCHMARK(BM_KeptInPlace);

// Payload sweep: echo(S) with growing strings.
void run_payload(benchmark::State& state, const std::string& protocol) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    runtime::System system(pool);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("Service", 1, protocol);
    Value svc = system.construct(0, "Service", "()V");
    vm::Interpreter& n0 = system.node(0).interp();
    std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
    system.reset_stats();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            n0.call_virtual(svc, "echo", "(S)S", {Value::of_str(payload)}));
    const obs::Snapshot snap = system.metrics().snapshot();
    const std::string p = "rpc.proto." + protocol + ".";
    const std::uint64_t calls = snap.counter_value(p + "calls");
    state.counters["wire_bytes_per_call"] =
        static_cast<double>(snap.counter_value(p + "request_bytes") +
                            snap.counter_value(p + "reply_bytes")) /
        static_cast<double>(calls ? calls : 1);
}

void BM_PayloadRMI(benchmark::State& state) { run_payload(state, "RMI"); }
BENCHMARK(BM_PayloadRMI)->Arg(16)->Arg(256)->Arg(4096);

void BM_PayloadSOAP(benchmark::State& state) { run_payload(state, "SOAP"); }
BENCHMARK(BM_PayloadSOAP)->Arg(16)->Arg(256)->Arg(4096);

/// 100 remote work() calls per protocol, measured via snapshot/diff.
void emit_summary() {
    bench::JsonSummary summary("E5");
    for (const std::string protocol : {"RMI", "CORBA", "SOAP"}) {
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
        const double calls =
            static_cast<double>(window.counter_value(prefix + "calls"));
        summary.add(protocol + "_virtual_us_per_call",
                    static_cast<double>(system.network().now_us() - t0) / calls);
        summary.add(protocol + "_wire_bytes_per_call",
                    static_cast<double>(window.counter_value(prefix + "request_bytes") +
                                        window.counter_value(prefix + "reply_bytes")) /
                        calls);
    }
    summary.emit();
}

}  // namespace

int main(int argc, char** argv) {
    std::printf("=== E5: dispatch matrix — who pays what per call ===\n");
    std::printf(
        "expected shape: untransformed ~= O_Local (small constant factor)\n"
        "<< RMI < CORBA < SOAP, remote cost dominated by latency + codec; SOAP's\n"
        "wire_bytes several times RMI's, growing with payload.\n\n");
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    emit_summary();
    return 0;
}
