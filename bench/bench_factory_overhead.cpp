// E7 — factory path cost (Sec 2.3).
//
// Object creation: direct `new A(...)` in the original program vs the
// transformed `A_O_Factory.make()` + `init(...)` pair.
// Static access: direct getstatic/invokestatic vs the
// `A_C_Factory.discover()` + interface-call path.
//
// Expected shape: small constant factors — the factory seam is a few extra
// dispatches per creation/access, not an asymptotic change.  (This is the
// price the paper pays for making every implementation choice late-bound.)
// The summary pins the factor with exact instruction counts; host wall
// times are printed as advisory rows.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr const char* kStaticApp = R"RIR(
class Store {
  static field v J
  static method spin (I)J {
    locals 2
  Top:
    load 0
    const 0
    cmple
    iftrue Done
    getstatic Store.v J
    const 1L
    add
    putstatic Store.v J
    load 0
    const 1
    sub
    store 0
    goto Top
  Done:
    getstatic Store.v J
    returnvalue
  }
}
)RIR";

/// Instruction counts for one burst(100) per creation path — exact, so
/// the seam's constant factor is pinned by a number, not a timing.
void emit_summary(const vm::Counters& direct, const vm::Counters& seamed) {
    bench::JsonSummary("E7")
        .add("direct_instructions", direct.instructions)
        .add("factory_instructions", seamed.instructions)
        .add("direct_allocations", direct.allocations)
        .add("factory_allocations", seamed.allocations)
        .add("instruction_factor", static_cast<double>(seamed.instructions) /
                                       static_cast<double>(direct.instructions))
        .emit();
}

void host_pair(const char* what, double direct_us, double seamed_us) {
    std::printf("  %-38s %10.2f %10.2f %8.2fx\n", what, direct_us, seamed_us,
                seamed_us / direct_us);
}

}  // namespace

namespace rafda::bench {

int e7() {
    std::printf("=== E7: factory seams — make/init vs new, discover vs getstatic ===\n");
    std::printf("expected shape: constant-factor overhead (a few extra dispatches).\n\n");

    // The seamed path is the transformed program bound to its local
    // implementations; the wrapper build goes unused here.
    Variants alloc(assemble_app(kAllocApp));
    auto burst_direct = [&] {
        alloc.original_vm.call_static("Alloc", "burst", "(I)I", {Value::of_int(100)});
    };
    auto burst_seamed = [&] {
        alloc.rafda_static("Alloc", "burst", "(I)I", {Value::of_int(100)});
    };
    burst_direct();
    burst_seamed();
    const vm::Counters direct = alloc.original_vm.counters();
    const vm::Counters seamed = alloc.rafda_vm.counters();

    Variants statics(assemble_app(kStaticApp));
    auto spin_direct = [&] {
        statics.original_vm.call_static("Store", "spin", "(I)J", {Value::of_int(200)});
    };
    auto spin_seamed = [&] {
        statics.rafda_static("Store", "spin", "(I)J", {Value::of_int(200)});
    };
    std::printf("host wall time (advisory, best of %d):\n", kHostReps);
    std::printf("  %-38s %10s %10s %9s\n", "path", "direct us", "seamed us", "factor");
    host_pair("Alloc.burst(100): new vs make+init", best_wall_us(kHostReps, burst_direct),
              best_wall_us(kHostReps, burst_seamed));
    host_pair("Store.spin(200): statics vs discover", best_wall_us(kHostReps, spin_direct),
              best_wall_us(kHostReps, spin_seamed));
    // discover() itself: the first call runs clinit, later calls hit the
    // cached singleton — the steady-state lookup.
    constexpr int kLookups = 1000;
    auto discover = [&] {
        statics.rafda_vm.call_static("Store_C_Factory", "discover", "()LStore_C_Int;");
    };
    discover();
    std::printf("  %-38s %10.3f us per cached call\n\n", "Store_C_Factory.discover()",
                best_wall_us(kHostReps,
                             [&] {
                                 for (int k = 0; k < kLookups; ++k) discover();
                             }) /
                    kLookups);
    emit_summary(direct, seamed);
    return 0;
}

}  // namespace rafda::bench
