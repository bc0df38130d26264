// The pipeline's central parallel-correctness contract: the transformed
// pool is byte-identical (via save_pool) at every thread count, because
// per-class artefacts are produced independently and merged in input name
// order.  These tests pin that contract on both corpus generators and on
// the environment-variable thread knob, and pin the bytes themselves: the
// golden digests below are what the transformer and the wrapper baseline
// emit, so a refactor of either that changes one output byte fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "corpus/jdk_corpus.hpp"
#include "corpus/program_gen.hpp"
#include "model/binio.hpp"
#include "obs/metrics.hpp"
#include "transform/pipeline.hpp"
#include "wrapper/wrapper_pipeline.hpp"

namespace rafda::transform {
namespace {

Bytes transformed_bytes(const model::ClassPool& pool, std::size_t threads) {
    PipelineOptions opts;
    opts.threads = threads;
    PipelineResult result = run_pipeline(pool, opts);
    return model::save_pool(result.pool);
}

void check_identical_across_threads(const model::ClassPool& pool) {
    Bytes serial = transformed_bytes(pool, 1);
    for (std::size_t threads : {2u, 8u}) {
        Bytes par = transformed_bytes(pool, threads);
        ASSERT_EQ(par, serial) << "output differs at " << threads << " threads";
    }
}

TEST(PipelineDeterminism, JdkCorpusIdenticalAcrossThreadCounts) {
    corpus::JdkCorpusParams params;
    params.total_types = 420;  // small enough to keep the test quick
    check_identical_across_threads(corpus::generate_jdk_corpus(params));
}

TEST(PipelineDeterminism, ProgramSeedsIdenticalAcrossThreadCounts) {
    for (std::uint64_t seed : {3u, 5u, 7u}) {
        corpus::ProgramParams params;
        params.classes = 24;
        params.seed = seed;
        check_identical_across_threads(corpus::generate_program(params));
    }
}

/// FNV-1a-64 over a saved pool.
std::uint64_t fnv1a64(const Bytes& bytes) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint8_t c : bytes) h = (h ^ c) * 1099511628211ull;
    return h;
}

struct Golden {
    std::size_t size;
    std::uint64_t digest;
};

void expect_golden(const Bytes& bytes, Golden golden, const char* what) {
    EXPECT_EQ(bytes.size(), golden.size) << what;
    EXPECT_EQ(fnv1a64(bytes), golden.digest) << what;
}

TEST(PipelineDeterminism, JdkCorpusMatchesGoldenBytes) {
    corpus::JdkCorpusParams params;
    params.total_types = 420;
    model::ClassPool pool = corpus::generate_jdk_corpus(params);
    const Golden golden{593981, 2957250036290576629ull};
    expect_golden(transformed_bytes(pool, 1), golden, "1 thread");
    expect_golden(transformed_bytes(pool, 2), golden, "2 threads");
}

TEST(PipelineDeterminism, ProgramSeedsMatchGoldenBytes) {
    struct Row {
        std::uint64_t seed;
        Golden transformed;
        Golden wrapped;
    };
    const Row rows[] = {
        {3, {107492, 8339046572112865710ull}, {93007, 17886903616554436278ull}},
        {5, {114227, 16030466138561587258ull}, {99973, 13675166937115202808ull}},
        {7, {112151, 14425394293176164808ull}, {97057, 14808966361606102484ull}},
    };
    for (const Row& row : rows) {
        corpus::ProgramParams params;
        params.classes = 24;
        params.seed = row.seed;
        model::ClassPool pool = corpus::generate_program(params);
        SCOPED_TRACE(row.seed);
        expect_golden(transformed_bytes(pool, 1), row.transformed, "transformed");
        expect_golden(model::save_pool(wrapper::run_wrapper_pipeline(pool).pool), row.wrapped,
                      "wrapped");
    }
}

TEST(PipelineDeterminism, SubstitutionReportIdenticalAcrossThreadCounts) {
    corpus::JdkCorpusParams params;
    params.total_types = 420;
    model::ClassPool pool = corpus::generate_jdk_corpus(params);

    PipelineOptions serial_opts;
    serial_opts.threads = 1;
    PipelineResult serial = run_pipeline(pool, serial_opts);

    PipelineOptions par_opts;
    par_opts.threads = 8;
    PipelineResult par = run_pipeline(pool, par_opts);

    EXPECT_EQ(par.report.substituted_classes(), serial.report.substituted_classes());
    EXPECT_EQ(par.report.protocols(), serial.report.protocols());
}

TEST(PipelineDeterminism, EnvKnobControlsDefaultThreadCount) {
    ASSERT_EQ(::setenv("RAFDA_TRANSFORM_THREADS", "3", 1), 0);
    EXPECT_EQ(resolve_transform_threads(0), 3u);
    // An explicit request always wins over the environment.
    EXPECT_EQ(resolve_transform_threads(2), 2u);

    ASSERT_EQ(::setenv("RAFDA_TRANSFORM_THREADS", "0", 1), 0);
    EXPECT_GE(resolve_transform_threads(0), 1u);  // invalid -> hardware default
    ASSERT_EQ(::setenv("RAFDA_TRANSFORM_THREADS", "junk", 1), 0);
    EXPECT_GE(resolve_transform_threads(0), 1u);

    ASSERT_EQ(::unsetenv("RAFDA_TRANSFORM_THREADS"), 0);
    EXPECT_GE(resolve_transform_threads(0), 1u);

    // The env-selected count feeds the pipeline and the output is still the
    // serial bytes.
    corpus::ProgramParams params;
    params.classes = 12;
    model::ClassPool pool = corpus::generate_program(params);
    Bytes serial = transformed_bytes(pool, 1);
    ASSERT_EQ(::setenv("RAFDA_TRANSFORM_THREADS", "4", 1), 0);
    Bytes via_env = transformed_bytes(pool, 0);
    ASSERT_EQ(::unsetenv("RAFDA_TRANSFORM_THREADS"), 0);
    EXPECT_EQ(via_env, serial);
}

TEST(PipelineDeterminism, MetricsRecordPhaseTimesAndPoolShape) {
    corpus::ProgramParams params;
    params.classes = 12;
    model::ClassPool pool = corpus::generate_program(params);

    obs::Registry reg;
    PipelineOptions opts;
    opts.threads = 2;
    opts.metrics = &reg;
    (void)run_pipeline(pool, opts);

    const obs::Counter* runs = reg.find_counter("transform.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->value(), 1u);
    EXPECT_NE(reg.find_counter("transform.analyze_us"), nullptr);
    EXPECT_NE(reg.find_counter("transform.generate_us"), nullptr);
    EXPECT_NE(reg.find_counter("transform.verify_us"), nullptr);
    const obs::Gauge* threads = reg.find_gauge("transform.pool.threads");
    ASSERT_NE(threads, nullptr);
    EXPECT_EQ(threads->value(), 2);
    const obs::Counter* tasks = reg.find_counter("transform.pool.tasks");
    ASSERT_NE(tasks, nullptr);
    EXPECT_GT(tasks->value(), 0u);
}

}  // namespace
}  // namespace rafda::transform
