// rpc_small and rpc_reliable: the same System::rpc path used two ways.
//
// rpc_small — two nodes, Service homed on node 1 over RMI, node 0's
// interpreter calling work(J)J straight from the benchmark loop with every
// runtime default (at-most-once; batching, journal and WAL off).  A closed
// loop with one call outstanding: the fixed per-call overhead dominates.
//
// rpc_reliable — one server and eight clients on links of 20/110/200/290
// µs (two clients each), RMI x4, CORBA x2 and SOAP x2, driven by the
// WorkloadDriver in VirtualClock mode with pipeline depth 4; batching,
// retries with dedup, WAL and journal on, and seeded drops both ways.  A
// closed loop with up to four calls outstanding per client.
#include <cmath>
#include <memory>
#include <optional>

#include "net/faults.hpp"
#include "runtime/driver.hpp"
#include "support/rng.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rafda;

namespace {

/// Calls recorded as replay shapes (an even sample of the workload).
constexpr std::size_t kShapeSample = 4096;

std::vector<CallShape> sample(const std::vector<CallShape>& all) {
    if (all.size() <= kShapeSample) return all;
    std::vector<CallShape> out;
    for (std::size_t k = 0; k < kShapeSample; ++k)
        out.push_back(all[k * all.size() / kShapeSample]);
    return out;
}

}  // namespace

Report run_rpc_small(const Args& args) {
    Report report;
    SpanLog spans;
    const std::uint32_t sp_round = spans.name("round");
    const std::uint32_t sp_input = spans.name("corpus.generate");
    const std::uint32_t sp_ctor = spans.name("setup.system_ctor");
    const std::uint32_t sp_node = spans.name("setup.add_node");
    const std::uint32_t sp_construct = spans.name("setup.construct");
    const std::uint32_t sp_call = spans.name("rpc.call");
    const std::uint32_t sp_oracle = spans.name("oracle.reference");

    const std::size_t calls = args.tiny ? 500 : 20'000;
    // Calls run in chunks, each checked against the reference before the
    // next; one chunk is one measurement window.
    const std::size_t chunk = std::min<std::size_t>(1024, calls);
    Rng rng(Rng::mix(args.seed, 0x5e11));
    std::vector<std::int64_t> xs(calls);
    for (std::int64_t& x : xs) x = rng.range(-1'000'000'000, 1'000'000'000);

    LayerShapes shapes;
    for (std::size_t i = 0; i < std::min(calls, kShapeSample); ++i)
        shapes.calls.push_back(CallShape{"RMI", false, xs[i], {}, 0, 1});
    std::vector<std::uint64_t> vlat(calls);
    std::vector<std::int64_t> got(chunk);
    obs::Registry transform_metrics;
    std::size_t round_no = 0;

    auto round = [&](bool, OpRecorder& ops) {
        RoundTimes t;
        Span whole(spans, sp_round, round_no);
        const std::int64_t s0 = now_ns();
        std::optional<model::ClassPool> pool;
        {
            Span s(spans, sp_input);
            pool.emplace(service_pool());
        }
        runtime::SystemOptions options;
        options.pipeline.threads = transform_threads();
        options.pipeline.metrics = &transform_metrics;
        std::unique_ptr<runtime::System> system;
        {
            Span s(spans, sp_ctor);
            system = std::make_unique<runtime::System>(*pool, options);
        }
        for (int k = 0; k < 2; ++k) {
            Span s(spans, sp_node);
            system->add_node();
        }
        system->policy().set_instance_home("Service", 1, "RMI");
        vm::Value svc;
        {
            Span s(spans, sp_construct);
            svc = system->construct(0, "Service", "()V");
        }
        t.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

        // The oracle: the same call sequence on the plain, untransformed
        // program in one interpreter.
        vm::Interpreter reference(*pool);
        vm::bind_prelude_natives(reference);
        const vm::Value ref_svc = reference.construct("Service", "()V", {});

        runtime::Node& caller = system->node(0);
        vm::Interpreter& n0 = caller.interp();
        const SystemMarks before = mark_system(*system);
        const std::uint64_t v0 = caller.clock_us();
        std::int64_t work_ns = 0;
        for (std::size_t start = 0; start < calls; start += chunk) {
            const std::size_t end = std::min(calls, start + chunk);
            for (std::size_t i = start; i < end; ++i) {
                const std::uint64_t c0 = caller.clock_us();
                const std::int64_t t0 = now_ns();
                vm::Value v;
                {
                    Span s(spans, sp_call, i);
                    v = n0.call_virtual(svc, "work", "(J)J", {vm::Value::of_long(xs[i])});
                }
                const std::int64_t t1 = now_ns();
                work_ns += t1 - t0;
                ops.record(t0, t1);
                vlat[i] = caller.clock_us() - c0;
                got[i - start] = v.as_long();
            }
            Span s(spans, sp_oracle);
            for (std::size_t i = start; i < end; ++i) {
                std::int64_t expected =
                    reference.call_virtual(ref_svc, "work", "(J)J", {vm::Value::of_long(xs[i])})
                        .as_long();
                if (args.break_oracle && i == 0) ++expected;
                report.oracle.attempt();
                if (got[i - start] != expected)
                    report.oracle.fail("work(" + std::to_string(xs[i]) + ") returned " +
                                       std::to_string(got[i - start]) + ", expected " +
                                       std::to_string(expected));
            }
        }
        t.work_s = static_cast<double>(work_ns) / 1e9;
        t.ops = calls;
        const std::uint64_t makespan = caller.clock_us() - v0;
        const std::uint64_t wire = mark_system(*system).wire_bytes - before.wire_bytes;
        report_system_layers(*system, before, calls, report.per_layer);

        // Final state, read back through the proxy, equals the reference's.
        report.oracle.check(
            n0.call_virtual(svc, "count", "()I").as_int() ==
                    reference.call_virtual(ref_svc, "count", "()I").as_int() &&
                n0.call_virtual(svc, "total", "()J").as_long() ==
                    reference.call_virtual(ref_svc, "total", "()J").as_long(),
            "final Service state differs from the untransformed run");

        std::uint64_t digest = kFnvBasis;
        for (std::uint64_t v : vlat) digest = fnv_fold(digest, v);
        check_repeatable(report, round_no,
                         {{"virtual_makespan_us", makespan},
                          {"virtual_latency_p50_us", nearest_rank(vlat, 0.50)},
                          {"virtual_latency_p99_us", nearest_rank(vlat, 0.99)},
                          {"wire_bytes", wire},
                          {"event_order_digest", digest}});
        report.per_layer["transform.out_classes"] = {
            static_cast<double>(system->transformed_pool().size()), "count"};
        ++round_no;
        return t;
    };

    const double budget = args.trace ? 0.6 * args.seconds : args.seconds;
    const RoundStats stats = run_rounds(args, budget, 2, chunk, 1, spans, round);
    report_end_to_end(report, stats);
    report_span_metrics(report, spans, stats);

    report_virtual(report);
    report.line("calls_per_s", report.end_to_end["ops_per_s"].value, "1/s");
    report.line("call_us_p50", report.end_to_end["op_us_p50"].value, "us");
    report.line("call_us_p99", report.per_layer["op_us_p99"].value, "us");
    report.line("call_samples", static_cast<double>(stats.ops.all().count()), "count");
    report.line("wire_bytes_per_call", report.per_layer["wire_bytes_per_call"].value, "B");

    if (args.trace) finish_traced_run(args, report, spans, std::move(shapes), transform_metrics);
    return report;
}

Report run_rpc_reliable(const Args& args) {
    Report report;
    SpanLog spans;
    const std::uint32_t sp_round = spans.name("round");
    const std::uint32_t sp_input = spans.name("corpus.generate");
    const std::uint32_t sp_ctor = spans.name("setup.system_ctor");
    const std::uint32_t sp_node = spans.name("setup.add_node");
    const std::uint32_t sp_construct = spans.name("setup.construct");
    const std::uint32_t sp_driver = spans.name("driver.run");
    const std::uint32_t sp_call = spans.name("rpc.call");
    const std::uint32_t sp_oracle = spans.name("oracle.check");

    constexpr int kClients = 8;
    constexpr std::uint64_t kLatency[4] = {20, 110, 200, 290};
    const char* const kProtocol[kClients] = {"RMI", "CORBA", "RMI", "SOAP",
                                             "RMI", "CORBA", "RMI", "SOAP"};
    constexpr double kDrop = 0.03;
    const std::size_t per_client = args.tiny ? 24 : 512;

    // Seeded task mix: each client alternates work and echo (the phase is
    // seeded); echo payloads cover 16 B .. 4 KB log-uniformly, one draw per
    // stratum, in a seeded order.
    Rng rng(Rng::mix(args.seed, 0x4e11));
    std::vector<std::vector<CallShape>> tasks(kClients);
    for (int k = 0; k < kClients; ++k) {
        const std::size_t phase = rng.below(2);
        const std::size_t echoes = (per_client + 1 - phase) / 2;
        std::vector<std::size_t> sizes;
        for (std::size_t j = 0; j < echoes; ++j) {
            const double u = (static_cast<double>(j) + rng.uniform()) / static_cast<double>(echoes);
            sizes.push_back(static_cast<std::size_t>(16.0 * std::pow(256.0, u)));
        }
        for (std::size_t j = sizes.size(); j > 1; --j) std::swap(sizes[j - 1], sizes[rng.below(j)]);
        for (std::size_t j = 0, e = 0; j < per_client; ++j) {
            CallShape c;
            c.protocol = kProtocol[k];
            c.client = k + 1;
            c.server = 0;
            c.echo = (j + phase) % 2 == 0;
            if (c.echo) {
                c.payload.resize(sizes[e++]);
                for (char& ch : c.payload) ch = static_cast<char>('a' + rng.below(26));
            } else {
                c.x = rng.range(-1'000'000'000, 1'000'000'000);
            }
            tasks[static_cast<std::size_t>(k)].push_back(std::move(c));
        }
    }
    const std::uint64_t total_calls = static_cast<std::uint64_t>(kClients) * per_client;

    LayerShapes shapes;
    {
        std::vector<CallShape> all;
        for (const auto& t : tasks) all.insert(all.end(), t.begin(), t.end());
        shapes.calls = sample(all);
    }
    obs::Registry transform_metrics;
    std::size_t round_no = 0;
    runtime::WorkloadDriver::Report last;

    auto round = [&](bool, OpRecorder& ops) {
        RoundTimes t;
        Span whole(spans, sp_round, round_no);
        const std::int64_t s0 = now_ns();
        std::optional<model::ClassPool> pool;
        {
            Span s(spans, sp_input);
            pool.emplace(service_pool());
        }
        runtime::SystemOptions options;
        options.pipeline.threads = transform_threads();
        options.pipeline.metrics = &transform_metrics;
        options.pipeline.generator.protocols = {"RMI", "SOAP", "CORBA"};
        options.network_seed = args.seed;
        options.reliability.attempts = 12;
        options.reliability.backoff_base_us = 200;
        options.reliability.backoff_multiplier = 2.0;
        options.reliability.backoff_cap_us = 20'000;
        options.reliability.jitter_us = 50;
        options.reliability.dedup = true;
        options.batching.enabled = true;
        std::unique_ptr<runtime::System> system;
        {
            Span s(spans, sp_ctor);
            system = std::make_unique<runtime::System>(*pool, options);
        }
        for (int k = 0; k <= kClients; ++k) {
            Span s(spans, sp_node);
            system->add_node();
        }
        for (int k = 1; k <= kClients; ++k) {
            net::LinkParams p;
            p.latency_us = kLatency[(k - 1) / 2];
            system->network().set_link(k, 0, p);
            system->network().set_link(0, k, p);
            shapes.link_params[{k, 0}] = p;
            shapes.link_params[{0, k}] = p;
        }
        system->enable_durability();
        system->journal().set_enabled(true);
        std::vector<vm::Value> services(kClients + 1);
        for (int k = 1; k <= kClients; ++k) {
            Span s(spans, sp_construct);
            system->policy().set_instance_home("Service", 0, kProtocol[k - 1]);
            services[static_cast<std::size_t>(k)] =
                system->construct(static_cast<net::NodeId>(k), "Service", "()V");
        }
        std::uint64_t t_start = 0;
        for (int k = 1; k <= kClients; ++k)
            t_start = std::max(t_start, system->node(static_cast<net::NodeId>(k)).clock_us());
        for (int k = 1; k <= kClients; ++k)
            for (const bool inbound : {false, true}) {
                net::FaultWindow w;
                w.kind = net::FaultKind::DropRate;
                w.src = inbound ? 0 : static_cast<net::NodeId>(k);
                w.dst = inbound ? static_cast<net::NodeId>(k) : 0;
                w.from_us = t_start;
                w.until_us = ~0ULL;
                w.drop_probability = kDrop;
                system->network().fault_plan().add(w);
            }
        t.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

        // Per-call results, checked after the run.
        std::vector<std::vector<std::optional<std::int64_t>>> work(kClients + 1);
        std::vector<std::vector<char>> echoed(kClients + 1);
        runtime::WorkloadDriver driver(*system);
        driver.set_fairness(runtime::WorkloadDriver::Fairness::VirtualClock);
        driver.set_pipeline_depth(4);
        for (int k = 1; k <= kClients; ++k) {
            const auto ks = static_cast<std::size_t>(k);
            work[ks].assign(per_client, std::nullopt);
            echoed[ks].assign(per_client, 0);
            std::vector<runtime::WorkloadDriver::Task> queue;
            for (std::size_t j = 0; j < per_client; ++j)
                queue.push_back([&, ks, j](runtime::System& sys, net::NodeId node) {
                    const CallShape& c = tasks[ks - 1][j];
                    vm::Interpreter& interp = sys.node(node).interp();
                    const std::int64_t t0 = now_ns();
                    vm::Value v;
                    {
                        Span s(spans, sp_call, ks * per_client + j);
                        v = c.echo ? interp.call_virtual(services[ks], "echo", "(S)S",
                                                         {vm::Value::of_str(c.payload)})
                                   : interp.call_virtual(services[ks], "work", "(J)J",
                                                         {vm::Value::of_long(c.x)});
                    }
                    ops.record(t0, now_ns());
                    if (c.echo)
                        echoed[ks][j] = v.as_str() == c.payload;
                    else
                        work[ks][j] = v.as_long();
                });
            driver.add_client(static_cast<net::NodeId>(k), std::move(queue));
        }
        const SystemMarks before = mark_system(*system);
        const std::int64_t w0 = now_ns();
        {
            Span s(spans, sp_driver);
            last = driver.run();
        }
        t.work_s = static_cast<double>(now_ns() - w0) / 1e9;
        t.ops = last.tasks_run;
        const std::uint64_t wire = mark_system(*system).wire_bytes - before.wire_bytes;
        report_system_layers(*system, before, total_calls, report.per_layer);

        Span check(spans, sp_oracle);
        report.oracle.attempt(total_calls);
        report.oracle.check(last.tasks_run == total_calls,
                            "driver ran " + std::to_string(last.tasks_run) + " of " +
                                std::to_string(total_calls) + " tasks");
        report.oracle.check(last.faults == 0, std::to_string(last.faults) +
                                                  " calls surfaced a guest fault");
        // The drop plan ends with the run, so the read-back is reliable.
        system->network().fault_plan().clear();
        for (int k = 1; k <= kClients; ++k) {
            const auto ks = static_cast<std::size_t>(k);
            std::int64_t acc = 0;
            std::size_t works = 0;
            for (std::size_t j = 0; j < per_client; ++j) {
                const CallShape& c = tasks[ks - 1][j];
                bool ok = c.echo ? echoed[ks][j] != 0 : false;
                if (!c.echo) {
                    acc = service_work(acc, c.x);
                    std::int64_t expected = acc;
                    if (args.break_oracle && k == 1 && works++ == 0) ++expected;
                    ok = work[ks][j] == expected;
                }
                if (!ok)
                    report.oracle.fail("client " + std::to_string(k) + " call " +
                                       std::to_string(j) + " returned a wrong value");
            }
            vm::Interpreter& interp = system->node(static_cast<net::NodeId>(k)).interp();
            const std::int64_t executed = interp.call_virtual(services[ks], "count", "()I").as_int();
            report.oracle.check(executed == static_cast<std::int64_t>(per_client),
                                "client " + std::to_string(k) + ": " +
                                    std::to_string(executed) + " executions for " +
                                    std::to_string(per_client) + " logical calls");
            report.oracle.check(
                interp.call_virtual(services[ks], "total", "()J").as_long() == acc,
                "client " + std::to_string(k) + ": final accumulator differs");
        }

        if (round_no == 0) {
            system->journal().visit(
                [&](const obs::JournalEvent& e) { shapes.journal.push_back(e); });
            shapes.journal_capacity = system->journal().capacity();
            if (const runtime::Wal* wal = system->node(0).wal()) {
                collect_wal_records(wal->log(), shapes.wal);
                if (shapes.wal.size() < 256) collect_wal_records(wal->snapshot(), shapes.wal);
            }
            shapes.heap_depth = last.peak_pending_events;
        }
        report.per_layer["sched.events_per_task"] = {
            static_cast<double>(last.events_dispatched) / static_cast<double>(total_calls),
            "count"};
        report.per_layer["sched.peak_pending"] = {
            static_cast<double>(last.peak_pending_events), "count"};
        report.per_layer["transform.out_classes"] = {
            static_cast<double>(system->transformed_pool().size()), "count"};
        check_repeatable(report, round_no,
                         {{"virtual_makespan_us", last.makespan_us},
                          {"virtual_latency_p50_us", last.latency_p50_us},
                          {"virtual_latency_p99_us", last.latency_p99_us},
                          {"wire_bytes", wire},
                          {"retries", system->metrics().counter("rpc.retries").value()},
                          {"events_dispatched", last.events_dispatched},
                          {"event_order_digest", last.event_order_digest}});
        ++round_no;
        return t;
    };

    const double budget = args.trace ? 0.6 * args.seconds : args.seconds;
    const RoundStats stats =
        run_rounds(args, budget, 2, total_calls, 1, spans, round);
    report_end_to_end(report, stats);
    report_span_metrics(report, spans, stats);

    report_virtual(report);
    report.line("calls_per_s", report.end_to_end["ops_per_s"].value, "1/s");
    report.line("call_us_p50", report.end_to_end["op_us_p50"].value, "us");
    report.line("call_us_p99", report.per_layer["op_us_p99"].value, "us");
    report.line("call_samples", static_cast<double>(stats.ops.all().count()), "count");
    report.line("wire_bytes_per_call", report.per_layer["wire_bytes_per_call"].value, "B");

    if (args.trace) finish_traced_run(args, report, spans, std::move(shapes), transform_metrics);
    return report;
}

}  // namespace perfbench
