// The four workloads and the helpers they share.  Every workload drives
// the repository through its public API only: runtime::System,
// runtime::WorkloadDriver and transform::run_pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "replays.hpp"
#include "model/classpool.hpp"
#include "runtime/system.hpp"

namespace perfbench {

namespace runtime = rafda::runtime;
namespace model = rafda::model;

Report run_rpc_small(const Args& args);
Report run_rpc_reliable(const Args& args);
Report run_fleet(const Args& args);
Report run_transform_jdk(const Args& args);

/// The tiny fleet every traced run falls back on for host-time metrics of
/// layers its own workload never enters (setup, rpc, driver, directory):
/// fills only per-layer names the report does not hold yet, and counts a
/// failed probe check against the report.  Returns the probe's peak
/// number of pending scheduler events.
std::size_t probe_layers(Report& report);

// ---- shared helpers ----------------------------------------------------

/// The benchmark's guest program: a `Service` whose `work` folds its
/// argument into an accumulator and whose `echo` returns its payload; both
/// count executions, which `count`/`total` read back.
model::ClassPool service_pool();

/// What Service.work returns after folding `x` into `acc` (the guest's
/// wrapping long arithmetic).
inline std::int64_t service_work(std::int64_t acc, std::int64_t x) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(acc) * 3u +
                                     static_cast<std::uint64_t>(x));
}

/// Worker threads for every transformation: the transform pool is the
/// only load besides the driving thread, pinned to two threads.
std::size_t transform_threads();

/// Sum of the interpreter counters over every node of `system`.
struct VmTotals {
    std::uint64_t instructions = 0;
    std::uint64_t ic_hits = 0;
    std::uint64_t ic_misses = 0;
};
VmTotals vm_totals(runtime::System& system);

/// Highest per-link utilization (parts per million of elapsed virtual
/// time) over every directed link.
std::uint64_t max_link_util_ppm(runtime::System& system);

/// Sum of one registry counter family `rpc.proto.<P>.<leaf>` over the
/// three protocols.
std::uint64_t proto_counter(const runtime::System& system, const std::string& leaf);

/// Cumulative readings of a System, taken before and after the measured
/// work so per-layer counts cover that window only.
struct SystemMarks {
    VmTotals vm;
    std::uint64_t pool_acquires = 0;
    std::uint64_t pool_reuses = 0;
    std::uint64_t attempts = 0;  // logical Invoke calls plus retries
    std::uint64_t wire_bytes = 0;
    std::uint64_t dedup_hits = 0;
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t journal_events = 0;
    rafda::net::LinkStats net;
};
SystemMarks mark_system(runtime::System& system);

/// Per-layer counts of the window since `before` for `calls` logical
/// calls: attempts, dedup, buffer-pool reuse, interpreter work, link
/// use, WAL and journal volume, and wire bytes per call.
void report_system_layers(runtime::System& system, const SystemMarks& before,
                          std::uint64_t calls, MetricMap& out);

/// Nearest-rank quantile of virtual-time samples (0 when empty).
std::uint64_t nearest_rank(std::vector<std::uint64_t> v, double q);

/// Virtual latency of each call issued alone on an idle two-node System
/// with the same protocol and link parameters: the no-queueing baseline
/// for net.virtual_queue_us_p99.
std::vector<std::uint64_t> idle_latencies(const LayerShapes& shapes);

/// Round loop shared by every workload.  `round(traced, ops)` runs one
/// round (set-up, measured work, checks), records each operation's start
/// and end in `ops`, and returns its set-up and work seconds.  Every round
/// replays the same seeded inputs.  Rounds repeat until `budget_s` is
/// spent, at least `min_rounds` times.  `window_ops` operations make one
/// measurement window; a workload whose operations differ (a call mix)
/// uses a whole round, so every window holds the same mix.  A traced run alternates untraced
/// and traced rounds, so the cost of tracing is measured inside one
/// process.
///
/// Other load on a shared host slows single CPUs for seconds at a time.
/// With `cpus_per_round` > 0 the rounds are pinned in turn to each window
/// of that many consecutive allowed CPUs (a pair of rounds per window; a
/// pool started inside the round inherits the mask), so every run samples
/// every CPU and the fast-tail estimators in report_end_to_end do not
/// depend on where the run happened to start.
struct RoundTimes {
    double setup_s = 0.0;
    double work_s = 0.0;
    std::uint64_t ops = 0;
};
struct RoundStats {
    explicit RoundStats(std::size_t window_ops) : ops(window_ops) {}
    std::vector<double> setup_s;
    std::vector<double> rate;         // ops per work second, untraced rounds
    std::vector<double> traced_rate;  // same, traced rounds
    OpRecorder ops;                   // untraced rounds' operations
    std::size_t rounds = 0;
};
using RoundFn = std::function<RoundTimes(bool traced, OpRecorder& ops)>;
RoundStats run_rounds(const Args& args, double budget_s, std::size_t min_rounds,
                      std::size_t window_ops, std::size_t cpus_per_round, SpanLog& spans,
                      const RoundFn& round);

/// Fills the end-to-end metrics every workload reports: set-up time (the
/// median round), throughput of the fastest hundredth of windows (99th
/// percentile of window rates), median operation time of the fastest
/// hundredth (1st percentile of window medians), and peak RSS.  op_us_p99 over
/// every untraced operation goes to the per-layer metrics: it does not
/// repeat well enough to bound.
void report_end_to_end(Report& report, const RoundStats& stats);

/// Per-layer metrics read off the traced rounds' spans (mean durations),
/// plus trace.overhead_pct from the round rates.
void report_span_metrics(Report& report, const SpanLog& spans, const RoundStats& stats);

/// Puts the three virtual-time results (makespan, latency p50 and p99)
/// into the per-layer metrics and the printed lines.
void report_virtual(Report& report);

/// Events dispatched per second of driver.run, over the traced rounds;
/// `events` is one round's count (0 without a traced driver.run).
double events_per_s(const SpanLog& spans, std::uint64_t events);

/// The end of every traced run: sched.events_per_s (when the virtual
/// results carry events_dispatched), queueing against an idle System
/// (when the workload made calls), transform pool steals per pipeline run,
/// the probe for layers the workload never entered, the layer replays,
/// and the span file.
void finish_traced_run(const Args& args, Report& report, const SpanLog& spans,
                       LayerShapes shapes, const rafda::obs::Registry& transform_metrics);

/// Compares round `round`'s virtual results with the first round's and
/// records a failed check on any difference.
void check_repeatable(Report& report, std::size_t round,
                      const std::map<std::string, std::uint64_t>& results);

}  // namespace perfbench
