// The transformation pipeline: original pool -> componentised pool.
//
// Runs the Section 2.4 analysis, generates the artefact family for every
// transformable class, rewrites transformable user interfaces in place,
// copies non-transformable classes unchanged, and (optionally) verifies
// the output.  The result plus the returned report is everything a runtime
// needs to execute the program locally (transform::bind_local_factories)
// or distributed (runtime::Node).
//
// The per-class work (family generation, in-place rewrites, verification)
// fans out over a shared-index thread pool; results are merged into the
// output pool in input name order, so the produced ClassPool — and its
// RIRB serialisation — is byte-identical at every thread count, including
// the fully serial RAFDA_TRANSFORM_THREADS=1.  Scheduling never decides
// output; it only decides wall time.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/classpool.hpp"
#include "transform/analysis.hpp"
#include "transform/generator.hpp"

namespace rafda::obs {
class Registry;
}

namespace rafda::transform {

struct PipelineOptions {
    GeneratorOptions generator;
    /// Verify the transformed pool (recommended; disable only in benches
    /// that time the pipeline itself).
    bool verify_output = true;
    /// Policy: which classes get substitutable families.  Empty optional =
    /// every transformable class (the default).  Transformable classes not
    /// selected keep their identity but are rewritten in place so both
    /// worlds compose.
    std::optional<std::vector<std::string>> substitutable;
    /// Worker threads for analysis graph construction, artefact generation
    /// and output verification.  0 = the RAFDA_TRANSFORM_THREADS
    /// environment variable when set, otherwise all hardware threads;
    /// 1 = fully serial (the pool spawns no thread).  The output is
    /// identical at any value.
    std::size_t threads = 0;
    /// Optional measurement sink: per-phase wall times
    /// (transform.analyze_us / generate_us / verify_us counters) and pool
    /// occupancy (transform.pool.threads gauge; the transform.pool.tasks
    /// counter when more than one thread ran) are recorded here per run.
    obs::Registry* metrics = nullptr;
};

/// Thread count `run_pipeline` actually uses for a requested value:
/// `requested` when non-zero, else RAFDA_TRANSFORM_THREADS when set to a
/// positive integer, else the hardware thread count.
std::size_t resolve_transform_threads(std::size_t requested);

/// What the pipeline did; consumed by binders, the distributed runtime and
/// the experiment harnesses.
class TransformReport {
public:
    TransformReport(Analysis analysis, std::vector<std::string> substituted,
                    std::vector<std::string> protocols);

    const Analysis& analysis() const noexcept { return analysis_; }
    /// Original names of classes replaced by families, sorted.
    const std::vector<std::string>& substituted_classes() const noexcept {
        return substituted_;
    }
    const std::vector<std::string>& protocols() const noexcept { return protocols_; }

    bool substituted(const std::string& cls) const;

    /// Maps an original method descriptor to the transformed one (reference
    /// parameters/results of substituted classes become _O_Int references).
    std::string map_method_desc(const model::ClassPool& original_pool,
                                const std::string& desc) const;

private:
    Analysis analysis_;
    std::vector<std::string> substituted_;
    std::vector<std::string> protocols_;
};

struct PipelineResult {
    model::ClassPool pool;  // the transformed program
    TransformReport report;
};

/// Transforms `original`.  The input pool must verify; the output pool is
/// verified when options.verify_output is set.
PipelineResult run_pipeline(const model::ClassPool& original,
                            const PipelineOptions& options = {});

}  // namespace rafda::transform
