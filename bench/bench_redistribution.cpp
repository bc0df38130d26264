// E2 — Figure 1 as a measurement: what does moving a shared object cost,
// and what do calls cost before/after?
//
// Reported:
//   * migration wire bytes as the object's state grows (string blob
//     sweep);
//   * per-call virtual time before migration (local), after migration
//     (remote), and after migrating back (chained through two proxies) —
//     making the forwarding-chain cost visible.
#include <cstdio>

#include "bench_util.hpp"
#include "runtime/system.hpp"
#include "vm/interp.hpp"

namespace {

using namespace rafda;
using vm::Value;

/// Wire bytes of one migration as the object's state grows (string blob
/// sweep): the state ships whole, so the cost is linear in its size.
void print_migration_bytes_table() {
    std::printf("%-44s %14s\n", "migration of C (RMI)", "wire bytes");
    for (std::size_t blob_size : {0, 512, 8192, 65536}) {
        model::ClassPool pool = bench::assemble_app(bench::kFig1App);
        runtime::System system(pool);
        system.add_node();
        system.add_node();
        Value c = system.construct(0, "C", "()V");
        system.node(0).interp().call_virtual(
            c, "setBlob", "(S)V", {Value::of_str(std::string(blob_size, 'b'))});
        const std::uint64_t wire0 = system.network().total_stats().bytes;
        system.migrate_instance(0, c.as_ref(), 1, "RMI");
        std::printf("  state blob %-32zu %14llu\n", blob_size,
                    static_cast<unsigned long long>(system.network().total_stats().bytes -
                                                    wire0));
    }
    std::printf("\n");
}

/// Ablation: single-object vs closure migration for a chatty cluster
/// (engine + collaborator): remote calls per query afterwards.
void print_closure_table() {
    constexpr const char* kCluster = R"RIR(
class Eng {
  field buf LBuf;
  ctor ()V {
    load 0
    new Buf
    dup
    invokespecial Buf.<init> ()V
    putfield Eng.buf LBuf;
    return
  }
  method query (I)I {
    locals 2
    const 0
    store 2
  Top:
    load 2
    const 4
    cmpge
    iftrue Done
    load 0
    getfield Eng.buf LBuf;
    load 1
    invokevirtual Buf.touch (I)I
    pop
    load 2
    const 1
    add
    store 2
    goto Top
  Done:
    load 1
    returnvalue
  }
}
class Buf {
  field n I
  ctor ()V {
    return
  }
  method touch (I)I {
    load 0
    load 0
    getfield Buf.n I
    load 1
    add
    putfield Buf.n I
    load 0
    getfield Buf.n I
    returnvalue
  }
}
)RIR";
    auto run = [&](bool closure) {
        model::ClassPool pool = bench::assemble_app(kCluster);
        runtime::System system(pool);
        system.add_node();
        system.add_node();
        Value eng = system.construct(0, "Eng", "()V");
        if (closure) system.migrate_closure(0, eng.as_ref(), 1, "RMI");
        else system.migrate_instance(0, eng.as_ref(), 1, "RMI");
        system.reset_stats();
        system.node(0).interp().call_virtual(eng, "query", "(I)I", {Value::of_int(1)});
        return system.metrics().snapshot().counter_value("rpc.proto.RMI.calls");
    };
    std::printf("%-46s %12s\n", "migrating a chatty 2-object cluster", "calls/query");
    std::printf("%-46s %12llu\n", "migrate_instance (engine only)",
                static_cast<unsigned long long>(run(false)));
    std::printf("%-46s %12llu\n", "migrate_closure (engine + buffer)",
                static_cast<unsigned long long>(run(true)));
    std::printf("\n");
}

/// Per-call virtual time at each stage of the Figure 1 lifecycle, printed
/// as a table and recorded through the metrics registry's snapshot/diff
/// window around the first migration.
void emit_summary() {
    model::ClassPool pool = bench::assemble_app(bench::kFig1App);
    runtime::System system(pool);
    system.add_node();
    system.add_node();
    Value c = system.construct(0, "C", "()V");
    Value a = system.construct(0, "A", "(LC;)V", {c});
    vm::Interpreter& n0 = system.node(0).interp();
    auto per_call_us = [&](const char* stage) {
        constexpr int kCalls = 100;
        const std::uint64_t t0 = system.network().now_us();
        for (int k = 0; k < kCalls; ++k) n0.call_virtual(a, "act", "()I");
        const double us = static_cast<double>(system.network().now_us() - t0) / kCalls;
        std::printf("%-44s %14.1f\n", stage, us);
        return us;
    };

    std::printf("%-44s %14s\n", "stage (100 act() calls each)", "virt us/call");
    const double local_us = per_call_us("1. C local on node 0");
    obs::Snapshot before = system.metrics().snapshot();
    vm::ObjId on1 = system.migrate_instance(0, c.as_ref(), 1, "RMI");
    const double remote_us = per_call_us("2. C migrated to node 1 (Figure 1)");
    obs::Snapshot window = obs::diff(before, system.metrics().snapshot());
    system.migrate_instance(1, on1, 0, "RMI");
    const double chained_us = per_call_us("3. C migrated back (2-proxy chain)");
    // Ablation: collapsing the forwarding chain restores locality — the
    // slot A references on node 0 re-points at the terminal local object.
    const int hops = system.shorten_chain(0, c.as_ref());
    const double shortened_us = per_call_us("4. after shorten_chain (local loopback)");
    std::printf("\n");

    bench::JsonSummary("E2")
        .add("local_us_per_call", local_us)
        .add("remote_us_per_call", remote_us)
        .add("chained_us_per_call", chained_us)
        .add("shortened_us_per_call", shortened_us)
        .add("chain_hops_removed", static_cast<std::uint64_t>(hops))
        .add("remote_calls_after_migration",
             window.counter_value("rpc.proto.RMI.calls"))
        .add("migration_bytes", window.counter_value("runtime.migration_bytes"))
        .emit();
}

}  // namespace

namespace rafda::bench {

int e2() {
    std::printf("=== E2: Figure 1 redistribution — migration and call costs ===\n");
    std::printf(
        "expected shape: migration wire bytes grow linearly with object state;\n"
        "remote calls pay ~2x link latency; a 2-proxy chain pays ~2x a single\n"
        "hop.\n\n");
    print_migration_bytes_table();
    print_closure_table();
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
