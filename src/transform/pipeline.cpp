#include "transform/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"
#include "transform/naming.hpp"
#include "transform/rewriter.hpp"

namespace rafda::transform {

TransformReport::TransformReport(Analysis analysis, std::vector<std::string> substituted,
                                 std::vector<std::string> protocols)
    : analysis_(std::move(analysis)),
      substituted_(std::move(substituted)),
      protocols_(std::move(protocols)) {
    std::sort(substituted_.begin(), substituted_.end());
}

bool TransformReport::substituted(const std::string& cls) const {
    return std::binary_search(substituted_.begin(), substituted_.end(), cls);
}

std::string TransformReport::map_method_desc(const model::ClassPool& original_pool,
                                             const std::string& desc) const {
    Substitutables subst(original_pool, analysis_, substituted_);
    return map_sig(subst, model::MethodSig::parse(desc)).descriptor();
}

std::size_t resolve_transform_threads(std::size_t requested) {
    if (requested != 0) return requested;
    if (const char* env = std::getenv("RAFDA_TRANSFORM_THREADS")) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1) return static_cast<std::size_t>(v);
    }
    return support::ThreadPool::hardware_threads();
}

namespace {

/// Microseconds elapsed since `since` on the wall clock (the transform
/// side runs outside the simulation, so real time is the honest metric).
std::uint64_t us_since(std::chrono::steady_clock::time_point since) {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                          std::chrono::steady_clock::now() - since)
                                          .count());
}

}  // namespace

PipelineResult run_pipeline(const model::ClassPool& original,
                            const PipelineOptions& options) {
    const std::size_t nthreads = resolve_transform_threads(options.threads);
    // A one-thread pool spawns nothing and runs every job inline, so thread
    // count 1 is the plain serial program.
    support::ThreadPool workers(nthreads);

    auto phase_start = std::chrono::steady_clock::now();
    Analysis analysis = analyze(original, &workers);
    const std::uint64_t analyze_us = us_since(phase_start);

    Substitutables subst =
        options.substitutable
            ? Substitutables(original, analysis, *options.substitutable)
            : Substitutables(original, analysis);

    // Fan the per-class artefact production out across the pool.  Each
    // slot is written by exactly one worker; the merge below is the only
    // consumer and runs after the barrier.
    phase_start = std::chrono::steady_clock::now();
    const std::vector<const model::ClassFile*> inputs = original.all();
    struct PerClass {
        std::vector<model::ClassFile> artefacts;
        bool substituted = false;
    };
    std::vector<PerClass> produced(inputs.size());
    auto produce = [&](std::size_t i) {
        const model::ClassFile& cf = *inputs[i];
        PerClass& slot = produced[i];
        if (!analysis.transformable(cf.name)) {
            slot.artefacts.push_back(cf);  // non-transformable: original form
        } else if (!subst.contains(cf.name)) {
            // A user interface, or a class that policy keeps: same name,
            // references redirected at the substituted families.
            slot.artefacts.push_back(rewrite_in_place(subst, cf));
        } else {
            slot.substituted = true;
            slot.artefacts = generate_family(subst, cf, options.generator);
        }
    };
    workers.for_each_index(inputs.size(), produce);

    // Deterministic merge: input name order, artefacts in generation
    // order — the exact add sequence of the serial loop.
    model::ClassPool out;
    std::vector<std::string> substituted;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (produced[i].substituted) substituted.push_back(inputs[i]->name);
        for (model::ClassFile& gen : produced[i].artefacts) out.add(std::move(gen));
    }
    const std::uint64_t generate_us = us_since(phase_start);

    log_info("transform", "substituted ", substituted.size(), " of ", original.size(),
             " classes (", analysis.non_transformable_count(), " non-transformable, ",
             nthreads, " threads)");

    phase_start = std::chrono::steady_clock::now();
    if (options.verify_output) model::verify_pool(out, &workers);
    const std::uint64_t verify_us = us_since(phase_start);

    if (options.metrics) {
        obs::Registry& reg = *options.metrics;
        reg.counter("transform.runs").add(1);
        reg.counter("transform.analyze_us").add(analyze_us);
        reg.counter("transform.generate_us").add(generate_us);
        reg.counter("transform.verify_us").add(verify_us);
        reg.gauge("transform.pool.threads").set(static_cast<std::int64_t>(nthreads));
        if (nthreads > 1)
            reg.counter("transform.pool.tasks").add(workers.items_executed());
    }

    return PipelineResult{std::move(out),
                          TransformReport(std::move(analysis), std::move(substituted),
                                          options.generator.protocols)};
}

}  // namespace rafda::transform
