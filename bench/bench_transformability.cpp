// E3 — Section 2.4: "About 40% of the 8,200 classes and interfaces in JDK
// 1.4.1 cannot be transformed.  This percentage would increase if the user
// code contains native methods which refer to a JDK class."
//
// Regenerates that measurement on the synthetic JDK-like corpus: the
// headline row at calibrated defaults, a reason breakdown, and the native-
// density sweep backing the paper's "would increase" remark.  The host
// wall time of the analysis itself (closure over 8,200 types) is printed,
// serial and pooled, as an advisory row.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "corpus/jdk_corpus.hpp"
#include "support/thread_pool.hpp"
#include "transform/analysis.hpp"
#include "transform/pipeline.hpp"

namespace {

using namespace rafda;

/// `pool` is the corpus at calibrated defaults.
void print_experiment_tables(const model::ClassPool& pool) {
    std::printf("=== E3: transformability of a JDK-1.4.1-like corpus ===\n");
    std::printf("(paper: ~40%% of 8,200 classes and interfaces non-transformable)\n\n");

    transform::Analysis analysis = transform::analyze(pool);

    std::printf("%-34s %8s %8s %7s\n", "corpus", "types", "non-tr.", "%");
    std::printf("%-34s %8zu %8zu %6.1f%%\n", "jdk-like (calibrated defaults)",
                analysis.total(), analysis.non_transformable_count(),
                100.0 * analysis.non_transformable_fraction());

    std::printf("\nreason breakdown (Sec 2.4 rules):\n");
    for (const auto& [reason, count] : analysis.reason_histogram())
        std::printf("  %-34s %8zu\n", std::string(transform::reason_name(reason)).c_str(),
                    count);

    std::printf("\nnative-density sweep (the paper's 'would increase' remark):\n");
    std::printf("%-14s %-14s %7s\n", "p(native|low)", "p(native|rest)", "non-tr.");
    for (double lo : {0.15, 0.25, 0.35, 0.45, 0.60}) {
        corpus::JdkCorpusParams p;
        p.native_in_lowlevel = lo;
        p.native_elsewhere = lo / 40.0;
        transform::Analysis a = transform::analyze(corpus::generate_jdk_corpus(p));
        std::printf("%-14.2f %-14.4f %6.1f%%\n", lo, lo / 40.0,
                    100.0 * a.non_transformable_fraction());
    }

    std::printf("\nseed stability (5 corpus seeds at defaults):\n  ");
    for (std::uint64_t seed = 41; seed < 46; ++seed) {
        corpus::JdkCorpusParams p;
        p.seed = seed;
        transform::Analysis a = transform::analyze(corpus::generate_jdk_corpus(p));
        std::printf("%.1f%%  ", 100.0 * a.non_transformable_fraction());
    }
    std::printf("\n\n");
}

/// Host wall time of the closure analysis over the calibrated corpus,
/// serial and on the transform thread pool.  The first run fills the
/// per-class reference caches; best-of-N keeps the warm runs.
void print_host_analysis(const model::ClassPool& pool) {
    const std::size_t threads = transform::resolve_transform_threads(0);
    support::ThreadPool workers(threads);
    const double serial_us = bench::best_wall_us(
        bench::kHostReps, [&] { (void)transform::analyze(pool, nullptr); });
    const double pooled_us = bench::best_wall_us(
        bench::kHostReps, [&] { (void)transform::analyze(pool, &workers); });
    std::printf("host wall time (advisory, best of %d): analysis of %zu types\n",
                bench::kHostReps, pool.size());
    std::printf("  %-34s %8.2f ms\n", "serial", serial_us / 1000.0);
    std::printf("  %-34s %8.2f ms\n",
                ("pooled (" + std::to_string(threads) + " threads)").c_str(),
                pooled_us / 1000.0);
    std::printf("\n");
}

void emit_summary(const model::ClassPool& pool) {
    transform::Analysis analysis = transform::analyze(pool);
    bench::JsonSummary("E3")
        .add("types", static_cast<std::uint64_t>(analysis.total()))
        .add("non_transformable",
             static_cast<std::uint64_t>(analysis.non_transformable_count()))
        .add("non_transformable_fraction", analysis.non_transformable_fraction())
        .emit();
}

}  // namespace

namespace rafda::bench {

int e3() {
    const model::ClassPool pool = corpus::generate_jdk_corpus(corpus::JdkCorpusParams{});
    print_experiment_tables(pool);
    print_host_analysis(pool);
    emit_summary(pool);
    return 0;
}

}  // namespace rafda::bench
