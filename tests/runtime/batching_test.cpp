// Per-link call batching + client pipelining (DESIGN.md §17), end to end.
//
// The invariants under test, in rough order of importance:
//   - off by default, and *inert* when off: no batch frames, no coalesced
//     link traffic, bit-identical reruns;
//   - pipelining alone reorders nothing observable: same per-call results,
//     same wire traffic, smaller makespan;
//   - batching on a busy link coalesces entries, saves wire bytes and
//     propagation delay, and still executes every call exactly once;
//   - determinism from the network seed survives batching, including under
//     a scheduled fault plan with retries + dedup.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Service {
  field calls I
  ctor ()V {
    return
  }
  method work (J)J {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    const 2L
    mul
    returnvalue
  }
  method calls ()I {
    load 0
    getfield Service.calls I
    returnvalue
  }
}
)";

struct RunOutcome {
    std::vector<std::int64_t> results;   // per-call return values, in order
    std::size_t faults = 0;
    std::uint64_t makespan_us = 0;
    std::uint64_t messages = 0;          // full frames on the wire
    std::uint64_t coalesced = 0;         // batch-entry continuations
    std::uint64_t wire_bytes = 0;
    std::uint64_t batch_frames = 0;
    std::uint64_t batch_coalesced = 0;
    std::int32_t executions = 0;         // server-side Service.work runs
    std::uint64_t retries = 0;
    std::uint64_t dedup_hits = 0;
};

struct BatchingRunConfig {
    bool batching = false;
    std::uint32_t max_frame_calls = 32;
    std::size_t pipeline_depth = 1;
    std::string protocol = "RMI";
    bool faults = false;
    bool reliable = false;
    int calls = 24;
};

RunOutcome run_workload(const BatchingRunConfig& cfg) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);

    SystemOptions options;
    options.network_seed = 7;
    // A slow, thin link so pipelined requests genuinely overlap in
    // virtual time: 500us propagation, 10 bytes/us.
    options.default_link = net::LinkParams{500, 10.0, 0.0};
    options.batching.enabled = cfg.batching;
    options.batching.max_frame_calls = cfg.max_frame_calls;
    if (cfg.reliable) {
        options.reliability.attempts = 12;
        options.reliability.backoff_base_us = 200;
        options.reliability.backoff_multiplier = 2.0;
        options.reliability.backoff_cap_us = 30'000;
        options.reliability.dedup = true;
    }
    System system(pool, options);
    system.add_node();  // 0: client
    system.add_node();  // 1: server
    system.policy().set_instance_home("Service", 1, cfg.protocol);

    Value svc = system.construct(0, "Service", "()V");
    if (cfg.faults) {
        const std::uint64_t t0 = system.node(0).clock_us();
        for (bool inbound : {false, true}) {
            net::FaultWindow w;
            w.kind = net::FaultKind::DropRate;
            w.src = inbound ? 1 : 0;
            w.dst = inbound ? 0 : 1;
            w.from_us = t0;
            w.until_us = ~0ULL;
            w.drop_probability = 0.08;
            system.network().fault_plan().add(w);
        }
    }

    RunOutcome out;
    WorkloadDriver driver(system);
    driver.set_pipeline_depth(cfg.pipeline_depth);
    std::vector<WorkloadDriver::Task> tasks;
    for (int k = 0; k < cfg.calls; ++k)
        tasks.push_back([svc, k, &out](System& sys, net::NodeId node) {
            Value v = sys.node(node).interp().call_virtual(
                svc, "work", "(J)J", {Value::of_long(k + 1)});
            out.results.push_back(v.as_long());
        });
    driver.add_client(0, std::move(tasks));
    WorkloadDriver::Report report = driver.run();

    out.faults = report.faults;
    out.makespan_us = report.makespan_us;
    net::LinkStats net_total = system.network().total_stats();
    out.messages = net_total.messages;
    out.coalesced = net_total.coalesced;
    out.wire_bytes = net_total.bytes;
    out.batch_frames = system.metrics().counter("rpc.batch.frames").value();
    out.batch_coalesced = system.metrics().counter("rpc.batch.coalesced").value();
    out.retries = system.metrics().counter("rpc.retries").value();
    out.dedup_hits = system.metrics().counter("rpc.dedup_hits").value();
    if (out.faults == 0)
        out.executions =
            system.node(0).interp().call_virtual(svc, "calls", "()I").as_int();
    return out;
}

std::vector<std::int64_t> expected_results(int calls) {
    std::vector<std::int64_t> v;
    for (int k = 0; k < calls; ++k) v.push_back(2 * (k + 1));
    return v;
}

TEST(Batching, OffByDefaultAndInert) {
    BatchingRunConfig cfg;
    cfg.pipeline_depth = 8;  // even with requests overlapping on the link
    RunOutcome out = run_workload(cfg);
    EXPECT_EQ(out.results, expected_results(cfg.calls));
    EXPECT_EQ(out.executions, cfg.calls);
    EXPECT_EQ(out.batch_frames, 0u);
    EXPECT_EQ(out.batch_coalesced, 0u);
    EXPECT_EQ(out.coalesced, 0u);

    // Bit-identical rerun: the off-state leaves the wire schedule fully
    // determined by the seed.
    RunOutcome again = run_workload(cfg);
    EXPECT_EQ(out.makespan_us, again.makespan_us);
    EXPECT_EQ(out.wire_bytes, again.wire_bytes);
    EXPECT_EQ(out.messages, again.messages);
}

TEST(Batching, PipeliningAloneChangesOnlyVirtualTime) {
    BatchingRunConfig sequential;
    RunOutcome seq = run_workload(sequential);

    BatchingRunConfig pipelined;
    pipelined.pipeline_depth = 8;
    RunOutcome pipe = run_workload(pipelined);

    // Host execution order is unchanged, so per-call results and wire
    // traffic are identical; only the reply-wait joins move, so the
    // pipelined client finishes sooner.
    EXPECT_EQ(pipe.results, seq.results);
    EXPECT_EQ(pipe.executions, seq.executions);
    EXPECT_EQ(pipe.messages, seq.messages);
    EXPECT_EQ(pipe.wire_bytes, seq.wire_bytes);
    EXPECT_LT(pipe.makespan_us, seq.makespan_us);
}

TEST(Batching, CoalescesPipelinedCallsOnABusyLink) {
    BatchingRunConfig cfg;
    cfg.pipeline_depth = 8;
    RunOutcome plain = run_workload(cfg);
    cfg.batching = true;
    RunOutcome batched = run_workload(cfg);

    // Same per-call results, every call executed exactly once server-side.
    EXPECT_EQ(batched.results, expected_results(cfg.calls));
    EXPECT_EQ(batched.executions, cfg.calls);

    // But the wire saw it differently: continuation entries joined open
    // frames, each saving the per-frame header.
    EXPECT_GT(batched.batch_frames, 0u);
    EXPECT_GT(batched.batch_coalesced, 0u);
    EXPECT_EQ(batched.coalesced, batched.batch_coalesced);
    EXPECT_LT(batched.messages, plain.messages);
    EXPECT_LT(batched.wire_bytes, plain.wire_bytes);
    EXPECT_LT(batched.makespan_us, plain.makespan_us);
}

TEST(Batching, MaxFrameCallsBoundsEntriesPerFrame) {
    BatchingRunConfig cfg;
    cfg.batching = true;
    cfg.pipeline_depth = 8;
    cfg.max_frame_calls = 2;  // opener + at most one continuation
    RunOutcome out = run_workload(cfg);
    EXPECT_GT(out.batch_coalesced, 0u);
    EXPECT_LE(out.batch_coalesced, out.batch_frames);  // <= 1 entry per frame
    EXPECT_EQ(out.results, expected_results(cfg.calls));
    EXPECT_EQ(out.executions, cfg.calls);
}

TEST(Batching, ProtocolsWithoutBatchFramingFallBackPerCall) {
    // SOAPX has no batch-entry framing; with batching globally on, its
    // traffic must stay per-call framed (and still correct) rather than
    // emit frames the decoder cannot parse.
    BatchingRunConfig cfg;
    cfg.batching = true;
    cfg.pipeline_depth = 8;
    cfg.protocol = "SOAP";
    RunOutcome out = run_workload(cfg);
    EXPECT_EQ(out.results, expected_results(cfg.calls));
    EXPECT_EQ(out.executions, cfg.calls);
    EXPECT_EQ(out.batch_frames, 0u);
    EXPECT_EQ(out.coalesced, 0u);
}

TEST(Batching, DeterministicFromSeedWhenEnabled) {
    BatchingRunConfig cfg;
    cfg.batching = true;
    cfg.pipeline_depth = 8;
    RunOutcome a = run_workload(cfg);
    RunOutcome b = run_workload(cfg);
    EXPECT_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.batch_coalesced, b.batch_coalesced);
    EXPECT_EQ(a.results, b.results);
}

TEST(Batching, MigrationMidBurstInvalidatesOpenLanes) {
    // A migration is a time barrier: every clock reconciles to the
    // hand-off.  Any batch frame opened before the barrier belongs to the
    // pre-migration schedule — coalescing a post-migration call onto it
    // would deliver that call into the past, addressed to the old home.
    // migrate_instance must therefore cut every open lane; the calls
    // after the move open fresh frames (and still execute exactly once,
    // through the forwarding chain).
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);

    SystemOptions options;
    options.network_seed = 7;
    options.default_link = net::LinkParams{500, 10.0, 0.0};
    options.batching.enabled = true;
    System system(pool, options);
    system.add_node();  // 0: client
    system.add_node();  // 1: first home
    system.add_node();  // 2: home after the mid-burst migration

    Value svc = system.construct(0, "Service", "()V");
    vm::ObjId on1 = system.migrate_instance(0, svc.as_ref(), 1, "RMI");

    constexpr int kCalls = 12;
    RunOutcome out;
    WorkloadDriver driver(system);
    std::vector<WorkloadDriver::Task> tasks;
    for (int k = 0; k < kCalls; ++k) {
        if (k == kCalls / 2)
            tasks.push_back([on1](System& sys, net::NodeId) {
                sys.migrate_instance(1, on1, 2, "RMI");
            });
        tasks.push_back([svc, k, &out](System& sys, net::NodeId node) {
            Value v = sys.node(node).interp().call_virtual(
                svc, "work", "(J)J", {Value::of_long(k + 1)});
            out.results.push_back(v.as_long());
        });
    }
    driver.set_pipeline_depth(tasks.size());  // the whole queue is one burst
    driver.add_client(0, std::move(tasks));
    WorkloadDriver::Report report = driver.run();

    EXPECT_EQ(report.faults, 0u);
    EXPECT_EQ(out.results, expected_results(kCalls));
    EXPECT_EQ(system.node(0).interp().call_virtual(svc, "calls", "()I").as_int(),
              kCalls);

    // The burst was split at the barrier: at least two frames on the
    // wire, and strictly fewer coalesced entries than one uncut frame
    // (kCalls - 1) would have carried.
    const std::uint64_t frames = system.metrics().counter("rpc.batch.frames").value();
    const std::uint64_t coalesced =
        system.metrics().counter("rpc.batch.coalesced").value();
    EXPECT_GE(frames, 2u);
    EXPECT_GT(coalesced, 0u);
    EXPECT_LE(coalesced, static_cast<std::uint64_t>(kCalls) - 2);
}

TEST(Batching, ExactlyOnceSurvivesBatchingUnderFaults) {
    // The E10 invariant with the new machinery stacked on top: scheduled
    // drops on both directions, retries + dedup, pipelining + batching.
    // Every task completes, the server executed each logical call once,
    // and the whole run replays bit-identically from the seed.
    BatchingRunConfig cfg;
    cfg.batching = true;
    cfg.pipeline_depth = 8;
    cfg.faults = true;
    cfg.reliable = true;
    RunOutcome out = run_workload(cfg);
    EXPECT_EQ(out.faults, 0u);
    EXPECT_GT(out.retries, 0u);  // the plan really did bite
    EXPECT_EQ(out.executions, cfg.calls);
    EXPECT_EQ(out.results, expected_results(cfg.calls));

    RunOutcome again = run_workload(cfg);
    EXPECT_EQ(out.makespan_us, again.makespan_us);
    EXPECT_EQ(out.retries, again.retries);
    EXPECT_EQ(out.dedup_hits, again.dedup_hits);
    EXPECT_EQ(out.batch_coalesced, again.batch_coalesced);
}

}  // namespace
}  // namespace rafda::runtime
