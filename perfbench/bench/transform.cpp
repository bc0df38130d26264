// transform_jdk — transform::run_pipeline, output verification included,
// over the 8,200-type corpus::generate_jdk_corpus library: the paper's core
// transformation at JDK scale.  The corpus seed comes from --seed; each
// round generates the corpus (its set-up) and transforms it once.
#include <exception>
#include <optional>

#include "corpus/jdk_corpus.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "transform/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rafda;

Report run_transform_jdk(const Args& args) {
    Report report;
    SpanLog spans;
    const std::uint32_t sp_round = spans.name("round");
    const std::uint32_t sp_corpus = spans.name("corpus.generate");
    const std::uint32_t sp_pipeline = spans.name("transform.pipeline");

    corpus::JdkCorpusParams params;
    params.seed = Rng::mix(args.seed, 0x7d4c);
    if (args.tiny) {
        params.total_types = 300;
        params.packages = 8;
    }
    transform::PipelineOptions options;
    options.threads = transform_threads();
    options.verify_output = true;
    obs::Registry metrics;
    options.metrics = &metrics;

    std::optional<model::ClassPool> corpus;
    std::size_t round_no = 0, out_classes = 0;

    auto round = [&](bool, OpRecorder& ops) {
        RoundTimes t;
        Span whole(spans, sp_round, round_no);
        const std::int64_t s0 = now_ns();
        {
            Span s(spans, sp_corpus);
            corpus.reset();
            corpus.emplace(corpus::generate_jdk_corpus(params));
        }
        t.setup_s = static_cast<double>(now_ns() - s0) / 1e9;
        report.oracle.attempt();
        const std::int64_t t0 = now_ns();
        std::optional<transform::PipelineResult> result;
        try {
            Span s(spans, sp_pipeline, round_no);
            result.emplace(transform::run_pipeline(*corpus, options));
        } catch (const std::exception& e) {
            report.oracle.fail(std::string("run_pipeline failed: ") + e.what());
            ++round_no;
            return t;
        }
        const std::int64_t t1 = now_ns();
        ops.record(t0, t1);
        t.work_s = static_cast<double>(t1 - t0) / 1e9;
        t.ops = 1;
        // run_pipeline has verified the output with model::verify_pool; the
        // class count must match the artefact family arithmetic.
        const std::size_t substituted = result->report.substituted_classes().size();
        const std::size_t family = 6 + 2 * result->report.protocols().size();
        std::size_t expected = substituted * family + (corpus->size() - substituted);
        if (args.break_oracle && round_no == 0) ++expected;
        out_classes = result->pool.size();
        report.oracle.check(out_classes == expected,
                            "transformed pool has " + std::to_string(out_classes) +
                                " classes, expected " + std::to_string(expected));
        check_repeatable(
            report, round_no,
            {{"in_classes", corpus->size()},
             {"out_classes", out_classes},
             {"substituted", substituted},
             {"non_transformable", result->report.analysis().non_transformable_count()}});
        ++round_no;
        return t;
    };

    const double budget = args.trace ? 0.6 * args.seconds : args.seconds;
    const RoundStats stats = run_rounds(args, budget, 2, 1, transform_threads(), spans, round);
    report_end_to_end(report, stats);
    report_span_metrics(report, spans, stats);
    report.line("transform_ms", report.end_to_end["op_us_p50"].value / 1e3, "ms");
    report.line("transform_samples", static_cast<double>(stats.ops.all().count()), "count");
    report.line("corpus_types", static_cast<double>(corpus->size()), "count");

    report.per_layer["transform.out_classes"] = {static_cast<double>(out_classes), "count"};
    if (args.trace) {
        LayerShapes shapes;
        shapes.input = &*corpus;
        finish_traced_run(args, report, spans, std::move(shapes), metrics);
    }
    return report;
}

}  // namespace perfbench
