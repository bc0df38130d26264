// E4 — Related Work (Sec 3): the wrapper alternative "introduces
// significantly greater overhead" than the paper's direct code
// transformation.
//
// Three executions of identical guest workloads: the untransformed
// original, the RAFDA-transformed program (local binding) and the
// wrapper-generated program.  Reported per variant: the VM's
// dispatch/work counters (which are noise-free) plus host wall time
// (advisory).  Expected shape: original < transformed < wrapper, with the
// wrapper clearly separated (extra forwarding call per method call, extra
// hop per field access, and 2x allocation).
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "corpus/program_gen.hpp"

namespace {

using namespace rafda;

corpus::ProgramParams workload_params() {
    corpus::ProgramParams p;
    p.classes = 8;
    p.iterations = 60;
    p.seed = 9;
    return p;
}

void run_main(vm::Interpreter& interp) {
    interp.clear_output();
    interp.call_static(corpus::kProgramMain, "main", "()V");
}

/// The VM counters of `run`'s first execution on `interp`, then the
/// best-of-N host wall time of further executions.  The counters come
/// from that single counted run; the timed repetitions never touch them.
template <typename Run>
std::pair<vm::Counters, double> count_then_time(vm::Interpreter& interp, Run run) {
    run();
    const vm::Counters counted = interp.counters();
    return {counted, bench::best_wall_us(bench::kHostReps, run)};
}

void print_preamble() {
    std::printf("=== E4: wrapper generation vs direct transformation (Sec 3) ===\n");
    std::printf(
        "expected shape: original < rafda-transformed < wrapper, wrapper clearly\n"
        "separated (forwarding call per method, extra hop per field access, 2x\n"
        "allocations).  guest counters are deterministic; wall time is host\n"
        "(advisory, best of %d).\n\n",
        bench::kHostReps);
}

/// One run of the identical workload per variant; the VM work counters
/// are exact, so the overhead factors are deterministic.
void emit_summary(const vm::Counters& original, const vm::Counters& rafda,
                  const vm::Counters& wrapper) {
    const double base = static_cast<double>(original.instructions);
    bench::JsonSummary("E4")
        .add("original_instructions", original.instructions)
        .add("rafda_instructions", rafda.instructions)
        .add("wrapper_instructions", wrapper.instructions)
        .add("rafda_overhead_factor", static_cast<double>(rafda.instructions) / base)
        .add("wrapper_overhead_factor", static_cast<double>(wrapper.instructions) / base)
        .emit();
}

/// Allocations of one Alloc.burst(200) per variant, from one counted run.
void print_allocation_table() {
    bench::Variants v(bench::assemble_app(bench::kAllocApp));
    const std::vector<vm::Value> args{vm::Value::of_int(200)};
    v.original_vm.call_static("Alloc", "burst", "(I)I", args);
    v.rafda_static("Alloc", "burst", "(I)I", args);
    v.wrapper_vm.call_static("Alloc", "burst", "(I)I", args);
    std::printf("%-28s %14s\n", "Alloc.burst(200)", "allocations");
    for (const auto& [name, interp] :
         {std::pair<const char*, vm::Interpreter*>{"original", &v.original_vm},
          {"rafda-transformed (local)", &v.rafda_vm},
          {"wrapper", &v.wrapper_vm}})
        std::printf("%-28s %14llu\n", name,
                    static_cast<unsigned long long>(interp->counters().allocations));
    std::printf("\n");
}

}  // namespace

namespace rafda::bench {

int e4() {
    print_preamble();
    bench::Variants v(corpus::generate_program(workload_params()));
    const auto [o, o_us] =
        count_then_time(v.original_vm, [&] { run_main(v.original_vm); });
    const auto [r, r_us] = count_then_time(v.rafda_vm, [&] {
        v.rafda_vm.clear_output();
        v.rafda_static(corpus::kProgramMain, "main", "()V");
    });
    const auto [w, w_us] = count_then_time(v.wrapper_vm, [&] { run_main(v.wrapper_vm); });

    std::printf("%-28s %14s %14s %18s\n", "variant", "host us/run", "guest invokes",
                "guest instructions");
    auto row = [](const char* name, const vm::Counters& c, double us) {
        std::printf("%-28s %14.1f %14llu %18llu\n", name, us,
                    static_cast<unsigned long long>(c.total_invokes()),
                    static_cast<unsigned long long>(c.instructions));
    };
    row("original", o, o_us);
    row("rafda-transformed (local)", r, r_us);
    row("wrapper", w, w_us);
    std::printf("\n");
    print_allocation_table();
    emit_summary(o, r, w);
    return 0;
}

}  // namespace rafda::bench
