// Shared plumbing of the host-performance benchmark: command-line
// arguments, the output oracle, sample statistics, the in-memory span log
// of traced runs, and the report every workload fills.
//
// Host timings use std::chrono::steady_clock.  Virtual-time results come
// from the simulator and must repeat bit for bit for one seed; each
// workload runs the same seeded inputs in every round of a run and checks
// that they do.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Smoke-test sizes: every workload shrinks to a fraction of a second.
    bool tiny = false;
    /// Perturbs one expected value, so the oracle must report a failure.
    bool break_oracle = false;
    /// Where a traced run writes its spans (empty: not written).
    std::string trace_out;
};

/// Output checks.  Every logical operation is attempted once; an operation
/// whose output check fails counts as failed, and so does a failed
/// whole-run check (final state, repeatability).
class Oracle {
public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /// Counts one failed check and keeps its description.
    void fail(const std::string& what) {
        ++failed_;
        if (notes_.size() < 8) notes_.push_back(what);
    }
    /// Returns `ok`; a false check is counted as by fail().  Hot loops
    /// call fail() directly so no description is built on success.
    bool check(bool ok, const std::string& what) {
        if (!ok) fail(what);
        return ok;
    }
    std::uint64_t attempted() const noexcept { return attempted_; }
    std::uint64_t failed() const noexcept { return failed_; }
    bool ok() const noexcept { return failed_ == 0 && attempted_ > 0; }
    const std::vector<std::string>& notes() const noexcept { return notes_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> notes_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Host latency samples in whole nanoseconds: one counter per nanosecond
/// up to 100 µs, individual values above, so millions of calls cost a
/// fixed 400 KB and quantiles stay exact.
class LatencyHist {
public:
    LatencyHist() : fine_(kFine, 0) {}
    void record(std::int64_t ns);
    std::uint64_t count() const noexcept { return count_; }
    /// Interpolated between the two neighbouring ranks, like quantile().
    double quantile_ns(double q) const;

private:
    static constexpr std::size_t kFine = 100'000;
    double value_at_rank(std::uint64_t rank) const;

    std::vector<std::uint32_t> fine_;
    mutable std::vector<std::int64_t> coarse_;
    mutable bool coarse_sorted_ = true;
    std::uint64_t count_ = 0;
};

/// Host time of every logical operation of the untraced rounds, grouped
/// into windows of `window_ops` consecutive operations.  A window's rate
/// is its operations over the wall time from its first start to its last
/// end, so work between operations (the scheduler, say) counts; its p50 is
/// the median operation time.  Windows never span two rounds.
class OpRecorder {
public:
    explicit OpRecorder(std::size_t window_ops) : window_ops_(window_ops ? window_ops : 1) {}
    /// Samples are kept only while enabled (untraced rounds).
    void set_enabled(bool on) { enabled_ = on; }
    void record(std::int64_t start_ns, std::int64_t end_ns);
    /// Drops the open partial window; its samples stay in all().
    void end_round() { open_.clear(); }

    const LatencyHist& all() const noexcept { return all_; }
    const std::vector<double>& window_rates() const noexcept { return rates_; }
    const std::vector<double>& window_p50_us() const noexcept { return p50_us_; }

private:
    std::size_t window_ops_;
    bool enabled_ = true;
    std::vector<std::int64_t> open_;
    std::int64_t first_start_ = 0;
    LatencyHist all_;
    std::vector<double> rates_;
    std::vector<double> p50_us_;
};

/// Spans recorded by the benchmark around its own calls into each layer.
/// Each span has a name, start, end, parent and the id of the logical
/// operation it belongs to.  Aggregates (count, total, self time) cover
/// every span; raw spans are kept in memory up to a cap and written out
/// when the run ends.  A disabled log costs one branch per span.
class SpanLog {
public:
    struct Aggregate {
        std::uint64_t count = 0;
        std::int64_t total_ns = 0;
        /// Duration minus the part covered by child spans.
        std::int64_t self_ns = 0;
        double mean_ns() const {
            return count ? static_cast<double>(total_ns) / static_cast<double>(count) : 0.0;
        }
    };

    explicit SpanLog(std::size_t raw_cap = 50'000) : raw_cap_(raw_cap) {}

    bool enabled() const noexcept { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    /// Interns a span name once; the id is used on the hot path.
    std::uint32_t name(const std::string& n);
    void begin(std::uint32_t name_id, std::uint64_t call_id);
    void end();

    /// Aggregate for one span name (zeros when never recorded).
    Aggregate aggregate(const std::string& n) const;
    /// Every name with its aggregate, in name order.
    std::map<std::string, Aggregate> aggregates() const;
    /// Writes the kept spans as a JSON array of
    /// {name, start_ns, end_ns, parent, call}; parent is an index into the
    /// array or -1.  Returns false when the file cannot be written.
    bool write_json(const std::string& path) const;

private:
    struct Open {
        std::uint32_t name = 0;
        std::uint64_t call = 0;
        std::int64_t start = 0;
        std::int64_t child_ns = 0;
        std::int64_t raw = -1;  // index into raw_, -1 when over the cap
    };
    struct Raw {
        std::uint32_t name = 0;
        std::int64_t parent = -1;
        std::uint64_t call = 0;
        std::int64_t start = 0;
        std::int64_t end = 0;
    };

    bool enabled_ = false;
    std::size_t raw_cap_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::vector<Aggregate> aggs_;
    std::vector<Open> stack_;
    std::vector<Raw> raw_;
};

/// RAII span: records only while the log is enabled.
class Span {
public:
    Span(SpanLog& log, std::uint32_t name_id, std::uint64_t call_id = 0)
        : log_(log.enabled() ? &log : nullptr) {
        if (log_) log_->begin(name_id, call_id);
    }
    ~Span() {
        if (log_) log_->end();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanLog* log_;
};

/// One reported number with its unit.
struct Metric {
    double value = 0.0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What a workload hands back to main.
struct Report {
    Oracle oracle;
    /// End-to-end metrics, as BENCHMARK.json names them (untraced runs).
    MetricMap end_to_end;
    /// Per-layer metrics (traced runs).
    MetricMap per_layer;
    /// Human-readable metrics printed above the result line: the
    /// workload-specific end-to-end names (calls_per_s, transform_ms, ...)
    /// and the virtual-time results, each with its unit.
    std::vector<std::pair<std::string, Metric>> lines;
    /// Virtual-time results that must repeat bit for bit for one seed.
    std::map<std::string, std::uint64_t> virtual_results;
    /// Per-span-name totals and self times of the traced rounds.
    std::map<std::string, SpanLog::Aggregate> spans;
    void line(const std::string& name, double value, const std::string& unit) {
        lines.push_back({name, Metric{value, unit}});
    }
};

/// Peak resident set size of this process in MB (ru_maxrss).
double peak_rss_mb();

/// FNV-1a fold of one 64-bit word, for digests of virtual results.
inline std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
        h ^= (v >> (8 * k)) & 0xffu;
        h *= 1099511628211ULL;
    }
    return h;
}
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

}  // namespace perfbench
