// E6 — dynamic boundary adaptation under a changing environment (Sec 1:
// "the resulting distributed program can adapt to its environment by
// dynamically altering its distribution boundaries"; Sec 4 future work).
//
// A Worker chats with a Source whose node changes over time (the
// environment).  Three strategies over identical workloads:
//
//   pinned-0   — worker stays on node 0 (never adapts)
//   pinned-1   — worker stays on node 1
//   adaptive   — the harness migrates the worker next to the source
//                whenever a phase cost fails to improve on the previous one
//
// The table prints per-phase virtual time per strategy; adaptive should
// track the cheaper placement after each environment change, at the price
// of one migration per change.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "runtime/system.hpp"
#include "vm/interp.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr const char* kApp = R"RIR(
class Source {
  field reading I
  ctor ()V {
    return
  }
  method sample ()I {
    load 0
    load 0
    getfield Source.reading I
    const 3
    add
    putfield Source.reading I
    load 0
    getfield Source.reading I
    returnvalue
  }
}
class Worker {
  field src LSource;
  field total J
  ctor (LSource;)V {
    load 0
    load 1
    putfield Worker.src LSource;
    return
  }
  method process ()J {
    locals 2
    const 0
    store 1
  Top:
    load 1
    const 6
    cmpge
    iftrue Done
    load 0
    load 0
    getfield Worker.total J
    load 0
    getfield Worker.src LSource;
    invokevirtual Source.sample ()I
    conv J
    add
    putfield Worker.total J
    load 1
    const 1
    add
    store 1
    goto Top
  Done:
    load 0
    getfield Worker.total J
    returnvalue
  }
}
)RIR";

struct RunResult {
    std::vector<std::uint64_t> phase_us;
    std::uint64_t total_us = 0;
    std::uint64_t migrations = 0;
    std::int64_t outcome = 0;
};

constexpr int kPhases = 8;
constexpr int kCallsPerPhase = 12;

/// strategy: -1 = adaptive, otherwise the node the worker is pinned to.
RunResult run(int strategy) {
    model::ClassPool pool = bench::assemble_app(kApp);
    runtime::System system(pool);
    system.add_node();
    system.add_node();

    Value src = system.construct(0, "Source", "()V");
    Value worker = system.construct(0, "Worker", "(LSource;)V", {src});
    net::NodeId src_node = 0, worker_node = 0;
    vm::ObjId src_oid = src.as_ref(), worker_oid = worker.as_ref();

    if (strategy == 1) {
        worker_oid = system.migrate_instance(0, worker_oid, 1, "RMI");
        worker_node = 1;
    }

    RunResult result;
    std::uint64_t prev_cost = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
        net::NodeId want = (phase / 2) % 2 == 0 ? 1 : 0;  // environment change
        if (want != src_node) {
            src_oid = system.migrate_instance(src_node, src_oid, want, "RMI");
            src_node = want;
        }
        std::uint64_t migrations_before = system.migrations();

        std::uint64_t start = system.network().now_us();
        for (int k = 0; k < kCallsPerPhase; ++k)
            result.outcome =
                system.node(0).interp().call_virtual(worker, "process", "()J").as_long();
        std::uint64_t cost = system.network().now_us() - start;
        result.phase_us.push_back(cost);
        result.total_us += cost;

        // Phase-cost rule: staying put is only justified while phase costs
        // still fall; otherwise move the worker next to the source.
        if (strategy < 0 && phase > 0 && cost >= prev_cost && worker_node != src_node) {
            worker_oid = system.migrate_instance(worker_node, worker_oid, src_node, "RMI");
            worker_node = src_node;
        }
        prev_cost = cost;
        result.migrations += system.migrations() - migrations_before;
    }
    return result;
}

void print_series(const RunResult& pinned0, const RunResult& pinned1,
                  const RunResult& adaptive) {
    std::printf("per-phase virtual time (us); source hops nodes every 2 phases\n\n");
    std::printf("%-10s", "phase");
    for (int p = 0; p < kPhases; ++p) std::printf("%9d", p);
    std::printf("%12s\n", "total");
    auto row = [&](const char* name, const RunResult& r) {
        std::printf("%-10s", name);
        for (std::uint64_t us : r.phase_us) std::printf("%9llu",
                                                        static_cast<unsigned long long>(us));
        std::printf("%12llu\n", static_cast<unsigned long long>(r.total_us));
    };
    row("pinned-0", pinned0);
    row("pinned-1", pinned1);
    row("adaptive", adaptive);
    std::printf("\nadaptive used %llu worker migrations; identical results: %s\n\n",
                static_cast<unsigned long long>(adaptive.migrations),
                (pinned0.outcome == adaptive.outcome && pinned1.outcome == adaptive.outcome)
                    ? "yes"
                    : "NO");
}

void emit_summary(const RunResult& pinned0, const RunResult& pinned1,
                  const RunResult& adaptive) {
    bench::JsonSummary("E6")
        .add("pinned0_total_us", pinned0.total_us)
        .add("pinned1_total_us", pinned1.total_us)
        .add("adaptive_total_us", adaptive.total_us)
        .add("adaptive_migrations", adaptive.migrations)
        .add("identical_results",
             std::string(pinned0.outcome == adaptive.outcome &&
                                 pinned1.outcome == adaptive.outcome
                             ? "yes"
                             : "no"))
        .emit();
}

}  // namespace

namespace rafda::bench {

int e6() {
    std::printf("=== E6: adapting distribution boundaries to the environment ===\n");
    std::printf(
        "expected shape: adaptive tracks the cheaper placement within one phase\n"
        "of each environment change; pinned placements pay full remote chatter\n"
        "half the time.\n\n");
    const RunResult pinned0 = run(0);
    const RunResult pinned1 = run(1);
    const RunResult adaptive = run(-1);
    print_series(pinned0, pinned1, adaptive);
    emit_summary(pinned0, pinned1, adaptive);
    return 0;
}

}  // namespace rafda::bench
