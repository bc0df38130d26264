// E14 — closed-loop adaptive redistribution (DESIGN.md §19).
//
// A two-phase skewed workload over four nodes.  Two singletons start on
// node 0: `Hot`, a write-heavy counter, and `Table`, a read-mostly pair
// of fields.  Phase 1: node 1 hammers Hot while nodes 2 and 3 read
// Table.  Phase 2: the skew flips — node 2 becomes Hot's dominant
// caller while node 3 keeps reading.  The same seeded schedule runs
// with the AdaptationEngine off and on:
//
//   - on, the controller notices phase 1's one-sided Hot traffic and
//     migrates the singleton to node 1 mid-run; when the skew flips it
//     follows the traffic to node 2 — the windowed time-series shows
//     the wire quieting after each move;
//   - Table's window shows a read/write ratio above the policy
//     threshold, so its readers get node-local replicas (write-
//     invalidate consistency) and the read traffic leaves the wire;
//   - headline: adaptation-on finishes strictly earlier and moves
//     strictly fewer wire bytes than adaptation-off on the same seed,
//     with identical per-client result streams — and the on-configuration
//     runs twice to pin bit-for-bit determinism (same decisions at the
//     same virtual times, same digests).
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr const char* kAdaptiveApp = R"RIR(
class Hot {
  static field total I
  static method bump (I)I {
    getstatic Hot.total I
    load 0
    add
    dup
    putstatic Hot.total I
    returnvalue
  }
  static method total ()I {
    getstatic Hot.total I
    returnvalue
  }
}
class Table {
  static field a I
  static field b I
  static method seed (II)V {
    load 0
    putstatic Table.a I
    load 1
    putstatic Table.b I
    return
  }
  static method lookup ()I {
    getstatic Table.a I
    getstatic Table.b I
    add
    returnvalue
  }
}
)RIR";

constexpr int kHotCallsPerPhase = 48;   // the dominant caller's volume
constexpr int kReadCallsPerPhase = 32;  // each Table reader's volume
constexpr std::uint64_t kWindowUs = 500;

using DecisionKey = std::tuple<std::uint64_t, std::uint64_t, std::string,
                               std::string, net::NodeId, net::NodeId>;

struct RunResult {
    std::uint64_t makespan_us = 0;      // end-to-end, both phases
    std::uint64_t wire_bytes = 0;
    std::uint64_t digest_phase1 = 0;
    std::uint64_t digest_phase2 = 0;
    std::uint64_t tasks = 0;
    std::uint64_t faults = 0;
    std::uint64_t migrations = 0;
    std::uint64_t replications = 0;
    std::uint64_t replica_reads = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t decisions_total = 0;
    std::uint64_t bytes_saved_est = 0;
    net::NodeId hot_home = -1;          // where Hot ended up
    std::vector<DecisionKey> decisions;
    /// Each client node's returns in issue order, both classes.  Keyed by
    /// client because adaptation moves virtual time, and with it how the
    /// clients' calls interleave in host order; each client's own stream
    /// is what moving an object must not change.
    std::map<net::NodeId, std::vector<std::int32_t>> results;
    std::vector<runtime::WorkloadDriver::Window> windows;
    std::string traffic_matrix;
};

RunResult run_workload(bool adapt) {
    model::ClassPool pool = bench::assemble_app(kAdaptiveApp);
    runtime::SystemOptions options;
    options.network_seed = 11;
    options.default_link = net::LinkParams{20, 0.0, 0.0};
    runtime::System system(pool, options);
    system.add_node();  // 0: initial home of Hot and Table
    system.add_node();  // 1: phase-1 Hot caller
    system.add_node();  // 2: Table reader, then phase-2 Hot caller
    system.add_node();  // 3: Table reader throughout
    system.policy().set_singleton_home("Hot", 0, "RMI");
    system.policy().set_singleton_home("Table", 0, "RMI");
    // Seed before the engine exists: the one write predates its baseline
    // snapshot, so the first observation window sees a pure-read Table.
    system.call_static(1, "Table", "seed", "(II)V",
                       {Value::of_int(5), Value::of_int(6)});
    if (adapt) {
        runtime::AdaptPolicy policy;
        policy.interval_us = 600;
        policy.migrate_threshold_bytes = 64;
        policy.replicate_ratio = 0.9;
        policy.min_window_calls = 4;
        system.enable_adaptation(policy);
    }

    RunResult r;
    runtime::WorkloadDriver driver(system);
    driver.set_window_us(kWindowUs);
    auto bump = [&r](runtime::System& sys, net::NodeId node) {
        r.results[node].push_back(
            sys.call_static(node, "Hot", "bump", "(I)I", {Value::of_int(1)})
                .as_int());
    };
    auto read = [&r](runtime::System& sys, net::NodeId node) {
        r.results[node].push_back(
            sys.call_static(node, "Table", "lookup", "()I").as_int());
    };

    // Phase 1: node 1 owns the Hot skew, nodes 2 and 3 read Table.
    driver.add_client(1, kHotCallsPerPhase, bump);
    driver.add_client(2, kReadCallsPerPhase, read);
    driver.add_client(3, kReadCallsPerPhase, read);
    runtime::WorkloadDriver::Report phase1 = driver.run();

    // Phase 2: the skew flips — node 2 becomes the dominant caller.
    driver.add_client(2, kHotCallsPerPhase, bump);
    driver.add_client(3, kReadCallsPerPhase, read);
    runtime::WorkloadDriver::Report phase2 = driver.run();

    r.makespan_us = phase2.end_us - phase1.start_us;
    r.tasks = phase1.tasks_run + phase2.tasks_run;
    r.faults = phase1.faults + phase2.faults;
    r.digest_phase1 = phase1.event_order_digest;
    r.digest_phase2 = phase2.event_order_digest;
    r.wire_bytes = system.network().total_stats().bytes;
    r.hot_home = system.find_singleton("Hot").first;
    r.windows = phase1.windows;
    r.windows.insert(r.windows.end(), phase2.windows.begin(),
                     phase2.windows.end());
    r.traffic_matrix = bench::traffic_matrix_json(system);
    if (adapt) {
        obs::Registry& m = system.metrics();
        r.migrations = m.counter("adapt.migrations").value();
        r.replications = m.counter("adapt.replications").value();
        r.replica_reads = m.counter("adapt.replica_reads").value();
        r.invalidations = m.counter("adapt.invalidations").value();
        r.decisions_total = m.counter("adapt.decisions").value();
        r.bytes_saved_est = m.counter("adapt.bytes_saved_est").value();
        for (const runtime::AdaptDecision& d :
             system.adaptation()->decisions())
            r.decisions.emplace_back(d.seq, d.t_us, d.cls,
                                     runtime::adapt_action_name(d.action),
                                     d.from, d.to);
    }
    return r;
}

std::string decisions_json(const std::vector<DecisionKey>& decisions) {
    std::string out = "[";
    for (std::size_t k = 0; k < decisions.size(); ++k) {
        const DecisionKey& d = decisions[k];
        if (k) out += ",";
        out += "{\"seq\":" + std::to_string(std::get<0>(d)) +
               ",\"t_us\":" + std::to_string(std::get<1>(d)) +
               ",\"class\":\"" + obs::json_escape(std::get<2>(d)) +
               "\",\"action\":\"" + obs::json_escape(std::get<3>(d)) +
               "\",\"from\":" + std::to_string(std::get<4>(d)) +
               ",\"to\":" + std::to_string(std::get<5>(d)) + "}";
    }
    return out + "]";
}

/// The post-migration throughput inflection: some window after the first
/// migration moves strictly fewer wire bytes than every window before it.
bool inflection_observed(const RunResult& r) {
    std::uint64_t first_migration_us = 0;
    for (const DecisionKey& d : r.decisions)
        if (std::get<3>(d) == "migrate") {
            first_migration_us = std::get<1>(d);
            break;
        }
    if (!first_migration_us) return false;
    std::uint64_t before_min = ~0ULL;
    std::uint64_t after_min = ~0ULL;
    for (const runtime::WorkloadDriver::Window& w : r.windows) {
        if (!w.tasks) continue;
        if (w.end_us <= first_migration_us)
            before_min = std::min(before_min, w.wire_bytes);
        else if (w.start_us >= first_migration_us)
            after_min = std::min(after_min, w.wire_bytes);
    }
    return after_min < before_min;
}

void emit_summary() {
    const RunResult off = run_workload(false);
    const RunResult on = run_workload(true);
    const RunResult again = run_workload(true);

    const bool deterministic =
        on.makespan_us == again.makespan_us &&
        on.wire_bytes == again.wire_bytes &&
        on.digest_phase1 == again.digest_phase1 &&
        on.digest_phase2 == again.digest_phase2 &&
        on.decisions == again.decisions && on.results == again.results &&
        on.traffic_matrix == again.traffic_matrix;

    std::printf("\n--- E14 decision log (adaptation on) ---\n");
    for (const DecisionKey& d : on.decisions)
        std::printf("  #%llu t=%lluus %-9s %-6s %d -> %d\n",
                    static_cast<unsigned long long>(std::get<0>(d)),
                    static_cast<unsigned long long>(std::get<1>(d)),
                    std::get<3>(d).c_str(), std::get<2>(d).c_str(),
                    static_cast<int>(std::get<4>(d)),
                    static_cast<int>(std::get<5>(d)));
    std::printf("off: makespan %llu us, wire %llu bytes\n",
                static_cast<unsigned long long>(off.makespan_us),
                static_cast<unsigned long long>(off.wire_bytes));
    std::printf("on:  makespan %llu us, wire %llu bytes (Hot home: %d)\n\n",
                static_cast<unsigned long long>(on.makespan_us),
                static_cast<unsigned long long>(on.wire_bytes),
                static_cast<int>(on.hot_home));

    bench::JsonSummary("E14")
        .add("tasks", on.tasks)
        .add("window_us", kWindowUs)
        .add("off_makespan_us", off.makespan_us)
        .add("on_makespan_us", on.makespan_us)
        .add("off_wire_bytes", off.wire_bytes)
        .add("on_wire_bytes", on.wire_bytes)
        .add("makespan_saved_us", off.makespan_us - on.makespan_us)
        .add("wire_bytes_saved", off.wire_bytes - on.wire_bytes)
        .add("migrations", on.migrations)
        .add("replications", on.replications)
        .add("replica_reads", on.replica_reads)
        .add("invalidations", on.invalidations)
        .add("adapt_decisions", on.decisions_total)
        .add("bytes_saved_est", on.bytes_saved_est)
        .add("hot_final_home", std::uint64_t{static_cast<std::uint64_t>(
                                   on.hot_home < 0 ? 0 : on.hot_home)})
        .add("identical_results",
             std::uint64_t{off.results == on.results && off.faults == 0 &&
                           on.faults == 0})
        .add("adapted_wins",
             std::uint64_t{on.makespan_us < off.makespan_us &&
                           on.wire_bytes < off.wire_bytes})
        .add("inflection_observed", std::uint64_t{inflection_observed(on)})
        .add("deterministic", std::uint64_t{deterministic})
        .add("event_order_digest", on.digest_phase2)
        .add_raw("decisions", decisions_json(on.decisions))
        .add_raw("windows_on", bench::windows_json(on.windows))
        .add_raw("windows_off", bench::windows_json(off.windows))
        .add_raw("traffic_matrix", on.traffic_matrix)
        .emit();
}

}  // namespace

namespace rafda::bench {

int e14() {
    std::printf("=== E14: closed-loop adaptive redistribution ===\n");
    std::printf(
        "expected shape: the controller migrates the write-heavy Hot singleton\n"
        "to each phase's dominant caller and replicates the read-mostly Table to\n"
        "its readers — adaptation-on finishes earlier and moves fewer wire bytes\n"
        "than adaptation-off on the same seed, with identical per-client result\n"
        "streams and a visible post-migration drop in the windowed wire-byte\n"
        "series.\n\n");
    emit_summary();
    return 0;
}

}  // namespace rafda::bench
