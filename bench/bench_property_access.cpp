// E8 — property-ization cost (Sec 2.1: "the first step of the
// transformation is therefore to turn every attribute into a property").
//
// A tight loop incrementing a field of another object, under three
// regimes: raw getfield/putfield (original), interface get_v/set_v calls
// (RAFDA local) and wrapper get_v/set_v with the extra target hop.
//
// Expected shape: original < rafda < wrapper; rafda pays one interface
// dispatch per access, the wrapper pays the dispatch plus the target
// indirection.  The summary carries exact guest instruction counts; host
// wall time per iteration is printed as an advisory column.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr int kSpin = 500;

/// Exact instruction counts for one spin(500) per regime.
void emit_summary(std::uint64_t raw, std::uint64_t interface, std::uint64_t wrapper) {
    bench::JsonSummary("E8")
        .add("raw_instructions", raw)
        .add("interface_instructions", interface)
        .add("wrapper_instructions", wrapper)
        .emit();
}

/// One counted spin(500) per regime, then the host wall time of further
/// spins on the same interpreters (advisory; the counters are read before
/// the timed repetitions).
void run_regimes() {
    bench::Variants v(bench::assemble_app(bench::kHotFieldApp));
    Value cell = v.original_vm.construct("Cell", "()V", {});
    Value prop = v.rafda_vm.call_static("Cell_O_Factory", "make", "()LCell_O_Int;");
    v.rafda_vm.call_static("Cell_O_Factory", "init", "(LCell_O_Int;)V", {prop});
    Value wcell = v.wrapper_vm.call_static("Cell_Wrapper", "make", "()LCell_Wrapper;");
    v.wrapper_vm.call_static("Cell_Wrapper", "init", "(LCell_Wrapper;)V", {wcell});
    auto spin_raw = [&] {
        v.original_vm.call_static("Driver", "spin", "(LCell;I)J",
                                  {cell, Value::of_int(kSpin)});
    };
    auto spin_rafda = [&] {
        v.rafda_static("Driver", "spin", "(LCell;I)J", {prop, Value::of_int(kSpin)});
    };
    auto spin_wrapper = [&] {
        v.wrapper_vm.call_static("Driver", "spin", "(LCell;I)J",
                                 {wcell, Value::of_int(kSpin)});
    };

    spin_raw();
    spin_rafda();
    spin_wrapper();
    const std::uint64_t raw_insns = v.original_vm.counters().instructions;
    const std::uint64_t interface_insns = v.rafda_vm.counters().instructions;
    const std::uint64_t wrapper_insns = v.wrapper_vm.counters().instructions;

    std::printf("%-24s %20s %16s\n", "regime (spin 500)", "guest instructions",
                "host us/iter");
    auto row = [](const char* name, std::uint64_t insns, auto spin) {
        std::printf("%-24s %20llu %16.2f\n", name, static_cast<unsigned long long>(insns),
                    bench::best_wall_us(bench::kHostReps, spin));
    };
    row("raw field", raw_insns, spin_raw);
    row("interface property", interface_insns, spin_rafda);
    row("wrapper property", wrapper_insns, spin_wrapper);
    std::printf("(host column: advisory, best of %d)\n\n", bench::kHostReps);
    emit_summary(raw_insns, interface_insns, wrapper_insns);
}

}  // namespace

namespace rafda::bench {

int e8() {
    std::printf("=== E8: field access — raw vs interface properties vs wrapper ===\n");
    std::printf("expected shape: raw < interface (RAFDA) < wrapper.\n\n");
    run_regimes();
    return 0;
}

}  // namespace rafda::bench
