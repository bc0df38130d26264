// E1 — the transformation pipeline itself (Figures 2-5 at scale).
//
// Reports the artefact expansion factor (a class becomes interfaces +
// local + proxies + factories) with a breakdown table for the Figure 2
// example, plus the pipeline's host throughput at 1-8 worker threads.
#include <cstdio>

#include "bench_util.hpp"
#include "corpus/program_gen.hpp"
#include "transform/pipeline.hpp"

namespace {

using namespace rafda;

/// Host wall time of the pipeline over a 64-class program at 1/2/4/8
/// worker threads.  The output is byte-identical at any count, so wall
/// time is the only thing the thread axis can change.
void print_host_scaling() {
    corpus::ProgramParams params;
    params.classes = 64;
    params.seed = 5;
    model::ClassPool pool = corpus::generate_program(params);
    std::printf("host wall time (advisory, best of %d): pipeline over %zu classes\n",
                bench::kHostReps, pool.size());
    std::printf("  %-8s %12s %14s\n", "threads", "ms/run", "classes/s");
    for (std::size_t threads : {1, 2, 4, 8}) {
        transform::PipelineOptions options;
        options.threads = threads;
        const double us = bench::best_wall_us(
            bench::kHostReps, [&] { (void)transform::run_pipeline(pool, options); });
        std::printf("  %-8zu %12.2f %14.0f\n",
                    transform::resolve_transform_threads(threads), us / 1000.0,
                    static_cast<double>(pool.size()) * 1e6 / us);
    }
    std::printf("\n");
}

/// The artefact breakdown of a 10-class program, printed as a table and
/// recorded in the summary.
void emit_summary() {
    corpus::ProgramParams params;
    params.classes = 10;
    params.seed = 3;
    model::ClassPool pool = corpus::generate_program(params);
    const std::size_t before = pool.size();
    transform::PipelineResult result = transform::run_pipeline(pool);
    const std::size_t protocols = result.report.protocols().size();
    std::printf("artefact expansion (10-class program + prelude):\n");
    std::printf("  classes before: %zu   after: %zu   substituted: %zu\n", before,
                result.pool.size(), result.report.substituted_classes().size());
    std::printf(
        "  per substituted class: O_Int, O_Local, %zu O-proxies, C_Int, C_Local,\n"
        "  %zu C-proxies, O_Factory, C_Factory = %zu artefacts\n\n",
        protocols, protocols, 6 + 2 * protocols);
    bench::JsonSummary("E1")
        .add("classes_before", static_cast<std::uint64_t>(before))
        .add("classes_after", static_cast<std::uint64_t>(result.pool.size()))
        .add("substituted",
             static_cast<std::uint64_t>(result.report.substituted_classes().size()))
        .add("expansion_factor",
             static_cast<double>(result.pool.size()) / static_cast<double>(before))
        .emit();
}

}  // namespace

namespace rafda::bench {

int e1() {
    std::printf("=== E1: transformation pipeline throughput and expansion ===\n\n");
    print_host_scaling();
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
