// E11 — flight-recorder overhead and bounds (DESIGN.md §16).
//
// The journal's contract has three measurable clauses:
//   1. *Passive*: enabling it must not perturb the simulation — every
//      virtual-time result (makespan, wire bytes, drop pattern) is
//      bit-for-bit identical with the journal on or off.  Hard-asserted
//      here (exit 1 on violation).
//   2. *Bounded*: the ring never exceeds its configured capacity no
//      matter how many events a run produces; overflow shows up as
//      `overwritten`, not as memory growth.  Hard-asserted.
//   3. *Cheap*: recording costs host time only when enabled, and the
//      disabled path is a predicted branch.  Host-time overhead of the
//      enabled journal is printed (and warned about above 2%) but neither
//      asserted nor written to the sidecar — wall clocks on shared CI are
//      advisory, virtual time is the contract.
#include <cstdio>

#include "bench_util.hpp"
#include "runtime/driver.hpp"
#include "runtime/system.hpp"

namespace {

using namespace rafda;
using vm::Value;

constexpr int kClients = 4;
constexpr int kCallsPerClient = 64;
constexpr std::size_t kSmallRing = 256;

struct RunResult {
    std::uint64_t makespan_us = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t journal_total = 0;
    std::uint64_t journal_size = 0;
    std::uint64_t journal_overwritten = 0;
    double host_us = 0.0;  // wall time of driver.run() alone (advisory)
};

/// E9's workload shape (clients 1..N vs server 0 over RMI) with ~5% loss
/// and retries, so the journal sees sends, drops, retries and fault
/// edges, not just the happy path.
RunResult run_workload(bool journal_on, std::size_t capacity = 0) {
    model::ClassPool pool = bench::assemble_app(bench::kServiceApp);
    runtime::SystemOptions options;
    options.network_seed = 7;
    options.reliability.attempts = 8;
    options.reliability.dedup = true;
    runtime::System system(pool, options);
    system.add_node();  // 0: server
    for (int k = 0; k < kClients; ++k) system.add_node();
    system.policy().set_instance_home("Service", 0, "RMI");
    bench::add_client_loss(system, kClients, 0.05, 0, /*replies=*/false);
    if (capacity) system.journal().set_capacity(capacity);
    if (journal_on) system.journal().set_enabled(true);

    runtime::WorkloadDriver driver(system);
    for (int k = 1; k <= kClients; ++k) {
        const auto client = static_cast<net::NodeId>(k);
        Value svc = system.construct(client, "Service", "()V");
        driver.add_client(client, kCallsPerClient,
                          [svc](runtime::System& sys, net::NodeId node) {
                              sys.node(node).interp().call_virtual(
                                  svc, "work", "(J)J", {Value::of_long(1)});
                          });
    }
    RunResult r;
    runtime::WorkloadDriver::Report report;
    r.host_us = bench::best_wall_us(1, [&] { report = driver.run(); });
    r.makespan_us = report.makespan_us;
    const net::LinkStats total = system.network().total_stats();
    r.wire_bytes = total.bytes;
    r.journal_total = system.journal().total_recorded();
    r.journal_size = system.journal().size();
    r.journal_overwritten = system.journal().overwritten();
    return r;
}

int emit_summary() {
    // Virtual-time identity: journal on vs off, same seed.
    const RunResult off = run_workload(false);
    const RunResult on = run_workload(true);
    const bool identical =
        off.makespan_us == on.makespan_us && off.wire_bytes == on.wire_bytes;

    // Bounded memory: a ring far smaller than the event count must cap at
    // its capacity and account for the overflow exactly.
    const RunResult small = run_workload(true, kSmallRing);
    const bool bounded =
        small.journal_size <= kSmallRing &&
        small.journal_total == small.journal_size + small.journal_overwritten &&
        small.journal_total > kSmallRing;  // the workload really did overflow

    // Host-time overhead of the workload run, best-of-N on fresh systems
    // to shave scheduler noise (advisory: printed, never in the sidecar).
    const double best_off = bench::best_wall_us(
        bench::kHostReps, [] { return run_workload(false).host_us; });
    const double best_on = bench::best_wall_us(
        bench::kHostReps, [] { return run_workload(true).host_us; });
    const double overhead_pct =
        best_off > 0 ? 100.0 * (best_on - best_off) / best_off : 0.0;
    std::printf("host wall time (advisory, best of %d): driver.run()\n",
                bench::kHostReps);
    std::printf("  %-34s %10.1f us\n", "journal off", best_off);
    std::printf("  %-34s %10.1f us\n", "journal on", best_on);
    std::printf("  %-34s %10.2f %%\n\n", "enabled-journal overhead", overhead_pct);

    bench::JsonSummary("E11")
        .add("clients", std::uint64_t{kClients})
        .add("calls_per_client", std::uint64_t{kCallsPerClient})
        .add("makespan_us", on.makespan_us)
        .add("journal_events", on.journal_total)
        .add("virtual_time_identical", std::uint64_t{identical})
        .add("ring_capacity", std::uint64_t{kSmallRing})
        .add("ring_size", small.journal_size)
        .add("ring_overwritten", small.journal_overwritten)
        .add("ring_bounded", std::uint64_t{bounded})
        .emit();

    if (!identical) {
        std::fprintf(stderr,
                     "E11 FAIL: enabling the journal changed virtual-time results "
                     "(makespan %llu vs %llu, bytes %llu vs %llu)\n",
                     static_cast<unsigned long long>(off.makespan_us),
                     static_cast<unsigned long long>(on.makespan_us),
                     static_cast<unsigned long long>(off.wire_bytes),
                     static_cast<unsigned long long>(on.wire_bytes));
        return 1;
    }
    if (!bounded) {
        std::fprintf(stderr,
                     "E11 FAIL: ring bound violated (capacity %zu, size %llu, "
                     "total %llu, overwritten %llu)\n",
                     kSmallRing, static_cast<unsigned long long>(small.journal_size),
                     static_cast<unsigned long long>(small.journal_total),
                     static_cast<unsigned long long>(small.journal_overwritten));
        return 1;
    }
    if (overhead_pct > 2.0)
        std::fprintf(stderr,
                     "E11 WARN: enabled-journal host overhead %.2f%% > 2%% "
                     "(advisory; wall clocks are noisy)\n",
                     overhead_pct);
    return 0;
}

}  // namespace

namespace rafda::bench {

int e11() {
    std::printf("=== E11: flight-recorder overhead and bounds ===\n");
    std::printf(
        "expected shape: identical virtual-time results with the journal on or off\n"
        "(it never reads clocks or draws randomness); a small ring caps at its\n"
        "capacity with the overflow counted as overwritten; enabled-journal host\n"
        "overhead is small (reported, warned above 2%%).\n\n");
    return emit_summary();
}

}  // namespace rafda::bench
