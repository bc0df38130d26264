// fleet — the E13 shape: 10⁵ fleet clients x 2 tasks over 104 nodes (4
// servers), 8 directory shards, VirtualClock mode, one task outstanding
// per client.  The scheduler's event heap and SimNetwork sequencing over
// ~10⁴ directed links dominate; the codec moves only small RMI frames.
//
// The same code, shrunk, is the probe that gives every traced run its
// set-up, rpc, driver and directory span metrics when its own workload
// never enters those layers.
#include <memory>
#include <optional>

#include "runtime/driver.hpp"
#include "support/rng.hpp"
#include "vm/interp.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rafda;

namespace {

struct FleetShape {
    std::uint64_t clients = 100'000;
    std::size_t nodes = 104;
    std::size_t servers = 4;
    std::uint32_t tasks_each = 2;
    std::uint32_t shards = 8;
};

/// One fleet round per call of round(): a fresh System, the fleet run,
/// and every output check.
class Fleet {
public:
    Fleet(const Args& args, FleetShape shape, Report& report, SpanLog& spans)
        : args_(args), shape_(shape), report_(report), spans_(spans) {
        sp_round_ = spans.name("round");
        sp_input_ = spans.name("corpus.generate");
        sp_ctor_ = spans.name("setup.system_ctor");
        sp_node_ = spans.name("setup.add_node");
        sp_construct_ = spans.name("setup.construct");
        sp_resolve_ = spans.name("directory.resolve");
        sp_driver_ = spans.name("driver.run");
        sp_call_ = spans.name("rpc.call");
        sp_oracle_ = spans.name("oracle.check");
    }

    RoundTimes round(OpRecorder& ops);

    const runtime::WorkloadDriver::Report& last() const noexcept { return last_; }
    LayerShapes& shapes() noexcept { return shapes_; }
    obs::Registry& transform_metrics() noexcept { return transform_metrics_; }
    std::uint64_t tasks() const noexcept { return shape_.clients * shape_.tasks_each; }

private:
    const Args& args_;
    FleetShape shape_;
    Report& report_;
    SpanLog& spans_;
    std::uint32_t sp_round_, sp_input_, sp_ctor_, sp_node_, sp_construct_, sp_resolve_,
        sp_driver_, sp_call_, sp_oracle_;
    runtime::WorkloadDriver::Report last_;
    LayerShapes shapes_;
    obs::Registry transform_metrics_;
    std::size_t round_no_ = 0;
};

RoundTimes Fleet::round(OpRecorder& ops) {
    RoundTimes t;
    Span whole(spans_, sp_round_, round_no_);
    const std::int64_t s0 = now_ns();
    std::optional<model::ClassPool> pool;
    {
        Span s(spans_, sp_input_);
        pool.emplace(service_pool());
    }
    runtime::SystemOptions options;
    options.pipeline.threads = transform_threads();
    options.pipeline.metrics = &transform_metrics_;
    options.network_seed = args_.seed;
    std::unique_ptr<runtime::System> system;
    {
        Span s(spans_, sp_ctor_);
        system = std::make_unique<runtime::System>(*pool, options);
    }
    for (std::size_t k = 0; k < shape_.nodes; ++k) {
        Span s(spans_, sp_node_);
        system->add_node();
    }
    runtime::DirectoryPolicy dp;
    dp.shards = shape_.shards;
    system->enable_directory(dp);
    // One Service per client node, homed round-robin on the server tier;
    // the fleet clients of a node share its proxy.
    std::vector<net::NodeId> client_nodes;
    std::vector<vm::Value> services(shape_.nodes);
    for (std::size_t k = shape_.servers; k < shape_.nodes; ++k) {
        const auto nid = static_cast<net::NodeId>(k);
        const auto server = static_cast<net::NodeId>(k % shape_.servers);
        system->policy().set_instance_home("Service", server, "RMI");
        {
            Span s(spans_, sp_construct_);
            services[k] = system->construct(nid, "Service", "()V");
        }
        {
            Span s(spans_, sp_resolve_);
            system->directory_resolve(nid, server, static_cast<vm::ObjId>(k));
        }
        client_nodes.push_back(nid);
    }
    t.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

    // Seeded arguments, drawn in dispatch order (itself deterministic);
    // the expected accumulator per Service mirrors every call.
    Rng rng(Rng::mix(args_.seed, 0xf1ee7));
    std::vector<std::int64_t> acc(shape_.nodes, 0);
    std::uint64_t wrong = 0, call_id = 0;
    const bool record_shapes = round_no_ == 0;
    runtime::WorkloadDriver driver(*system);
    driver.set_fairness(runtime::WorkloadDriver::Fairness::VirtualClock);
    driver.add_fleet(client_nodes, shape_.clients, shape_.tasks_each,
                     [&](runtime::System& sys, net::NodeId node) {
                         const auto k = static_cast<std::size_t>(node);
                         const std::int64_t x = rng.range(-1'000'000'000, 1'000'000'000);
                         const std::int64_t t0 = now_ns();
                         vm::Value v;
                         {
                             Span s(spans_, sp_call_, call_id);
                             v = sys.node(node).interp().call_virtual(
                                 services[k], "work", "(J)J", {vm::Value::of_long(x)});
                         }
                         ops.record(t0, now_ns());
                         acc[k] = service_work(acc[k], x);
                         std::int64_t expected = acc[k];
                         if (args_.break_oracle && call_id == 0) ++expected;
                         if (v.as_long() != expected) ++wrong;
                         if (record_shapes && shapes_.calls.size() < 4096)
                             shapes_.calls.push_back(CallShape{
                                 "RMI", false, x, {}, node,
                                 static_cast<net::NodeId>(k % shape_.servers)});
                         ++call_id;
                     });
    const SystemMarks before = mark_system(*system);
    const std::int64_t w0 = now_ns();
    {
        Span s(spans_, sp_driver_);
        last_ = driver.run();
    }
    t.work_s = static_cast<double>(now_ns() - w0) / 1e9;
    t.ops = last_.tasks_run;
    const std::uint64_t wire = mark_system(*system).wire_bytes - before.wire_bytes;
    report_system_layers(*system, before, tasks(), report_.per_layer);

    Span check(spans_, sp_oracle_);
    Oracle& oracle = report_.oracle;
    oracle.attempt(tasks());
    if (wrong) oracle.fail(std::to_string(wrong) + " fleet calls returned a wrong value");
    oracle.check(last_.tasks_run == tasks(), "driver ran " + std::to_string(last_.tasks_run) +
                                                 " of " + std::to_string(tasks()) + " tasks");
    oracle.check(last_.faults == 0, std::to_string(last_.faults) + " tasks surfaced a fault");
    std::int64_t executed = 0;
    bool totals_ok = true;
    for (const net::NodeId node : client_nodes) {
        const auto k = static_cast<std::size_t>(node);
        vm::Interpreter& interp = system->node(node).interp();
        executed += interp.call_virtual(services[k], "count", "()I").as_int();
        totals_ok = totals_ok &&
                    interp.call_virtual(services[k], "total", "()J").as_long() == acc[k];
    }
    oracle.check(executed == static_cast<std::int64_t>(tasks()),
                 "Service.calls sum to " + std::to_string(executed) + " for " +
                     std::to_string(tasks()) + " tasks");
    oracle.check(totals_ok, "a Service accumulator differs from its mirror");

    if (record_shapes) shapes_.heap_depth = last_.peak_pending_events;
    report_.per_layer["sched.events_per_task"] = {
        static_cast<double>(last_.events_dispatched) / static_cast<double>(tasks()), "count"};
    report_.per_layer["sched.peak_pending"] = {static_cast<double>(last_.peak_pending_events),
                                               "count"};
    report_.per_layer["transform.out_classes"] = {
        static_cast<double>(system->transformed_pool().size()), "count"};
    check_repeatable(report_, round_no_,
                     {{"virtual_makespan_us", last_.makespan_us},
                      {"virtual_latency_p50_us", last_.latency_p50_us},
                      {"virtual_latency_p99_us", last_.latency_p99_us},
                      {"wire_bytes", wire},
                      {"events_dispatched", last_.events_dispatched},
                      {"event_order_digest", last_.event_order_digest}});
    ++round_no_;
    return t;
}

}  // namespace

Report run_fleet(const Args& args) {
    Report report;
    SpanLog spans;
    FleetShape shape;
    if (args.tiny) shape = FleetShape{400, 12, 4, 2, 4};
    Fleet fleet(args, shape, report, spans);
    const double budget = args.trace ? 0.6 * args.seconds : args.seconds;
    const RoundStats stats =
        run_rounds(args, budget, 2, std::min<std::uint64_t>(10'000, fleet.tasks() / 4), 1, spans,
                   [&](bool, OpRecorder& ops) { return fleet.round(ops); });
    report_end_to_end(report, stats);
    report_span_metrics(report, spans, stats);

    report_virtual(report);
    report.line("tasks_per_s", report.end_to_end["ops_per_s"].value, "1/s");
    report.line("task_us_p50", report.end_to_end["op_us_p50"].value, "us");
    report.line("task_us_p99", report.per_layer["op_us_p99"].value, "us");
    report.line("task_samples", static_cast<double>(stats.ops.all().count()), "count");
    report.line("wire_bytes_per_call", report.per_layer["wire_bytes_per_call"].value, "B");

    if (args.trace)
        finish_traced_run(args, report, spans, fleet.shapes(), fleet.transform_metrics());
    return report;
}

std::size_t probe_layers(Report& report) {
    Args args;
    args.tiny = true;
    args.trace = true;
    Report probe;
    SpanLog spans;
    OpRecorder ops(64);
    Fleet fleet(args, FleetShape{64, 6, 2, 2, 2}, probe, spans);
    spans.set_enabled(true);
    for (int k = 0; k < 5; ++k) fleet.round(ops);
    spans.set_enabled(false);
    report_span_metrics(probe, spans, RoundStats(1));
    probe.per_layer["sched.events_per_s"] = {
        events_per_s(spans, fleet.last().events_dispatched), "1/s"};
    for (const char* name : {"setup.system_ctor_ms", "setup.add_node_us", "setup.construct_us",
                             "directory.resolve_us", "rpc.call_ns", "driver.run_ms",
                             "sched.events_per_s"})
        report.per_layer.emplace(name, probe.per_layer.at(name));
    for (const std::string& note : probe.oracle.notes()) report.oracle.fail("probe: " + note);
    return fleet.last().peak_pending_events;
}

}  // namespace perfbench
