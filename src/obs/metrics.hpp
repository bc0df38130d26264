// Metrics registry — the unified measurement substrate for the middleware.
//
// The RAFDA follow-up papers make explicit that distribution-policy
// decisions need runtime measurement of calls, traffic and placement.
// This registry is the single place those measurements live: named
// counters, gauges and fixed-bucket histograms, plus read-only "probes"
// that sample externally-owned state (e.g. interpreter counters) at
// snapshot time.
//
// Hot-path discipline: `counter()`/`gauge()`/`histogram()` return stable
// references that survive `reset()` (values are zeroed in place, never
// erased), so instrumented code resolves a metric by name once and then
// increments through the handle — no string building or map lookup per
// event.  Histograms use fixed power-of-two buckets, so recording is a
// bit-scan plus a few adds: allocation-free.
//
// Names are dotted paths, most-general first, e.g.
//   rpc.proto.RMI.calls
//   rpc.class_calls.<cls>.<src>.<dst>
//   net.link.<src>.<dst>.bytes
// (see DESIGN.md "Observability" for the full naming convention).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

namespace rafda::obs {

class Counter {
public:
    void add(std::uint64_t n = 1) noexcept { value_ += n; }
    std::uint64_t value() const noexcept { return value_; }
    void reset() noexcept { value_ = 0; }

private:
    std::uint64_t value_ = 0;
};

/// A point-in-time signed quantity (queue depth, live objects, ...).
class Gauge {
public:
    void set(std::int64_t v) noexcept { value_ = v; }
    void add(std::int64_t delta) noexcept { value_ += delta; }
    std::int64_t value() const noexcept { return value_; }
    void reset() noexcept { value_ = 0; }

private:
    std::int64_t value_ = 0;
};

/// Fixed-bucket histogram for latencies (virtual µs) and sizes (bytes).
///
/// Bucket 0 counts exact zeros; bucket i (i >= 1) counts values in
/// [2^(i-1), 2^i); the last bucket absorbs everything larger.  Recording
/// is allocation-free and O(1).  Quantiles are bucket upper bounds clamped
/// to the largest recorded value, so their error is bounded by the
/// power-of-two bucket width.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 33;

    void record(std::uint64_t v) noexcept;

    std::uint64_t count() const noexcept { return count_; }
    std::uint64_t sum() const noexcept { return sum_; }
    std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
    std::uint64_t max() const noexcept { return max_; }
    double mean() const noexcept {
        return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
    }
    const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
        return buckets_;
    }
    /// Inclusive upper bound of bucket `i` (UINT64_MAX for the last).
    static std::uint64_t bucket_upper_bound(std::size_t i) noexcept;
    /// Index of the bucket `v` falls into.
    static std::size_t bucket_index(std::uint64_t v) noexcept;

    /// Approximate quantile (q in [0,1]) from the bucket upper bounds.
    std::uint64_t approx_quantile(double q) const noexcept;

    /// The bucket-approximation shared with Snapshot exports: quantile of
    /// a bucket-count array whose true values are unknown (clamped to
    /// `max`, the largest value ever recorded).
    static std::uint64_t quantile_from_buckets(
        const std::array<std::uint64_t, kBuckets>& buckets, std::uint64_t count,
        std::uint64_t max, double q) noexcept;

    void reset() noexcept;

private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/// One sampled metric inside a Snapshot.
struct Sample {
    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    Kind kind = Kind::Counter;
    std::uint64_t counter = 0;  // Kind::Counter
    std::int64_t gauge = 0;     // Kind::Gauge (also probe results)
    // Kind::Histogram:
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};

    bool operator==(const Sample&) const = default;
};

/// An immutable point-in-time copy of every metric (probes included).
/// The bench harness takes one before and one after a workload and
/// reports the diff, so numbers are exact per-window deltas.
struct Snapshot {
    std::map<std::string, Sample> samples;

    bool empty() const noexcept { return samples.empty(); }
    const Sample* find(const std::string& name) const;
    /// Counter value (0 when absent or not a counter) — convenience for
    /// tests and tools.
    std::uint64_t counter_value(const std::string& name) const;
};

/// after - before: counters and histogram contents subtract; gauges keep
/// the `after` reading (they are levels, not totals).  Metrics absent in
/// `before` are taken whole; histogram min/max are taken from `after`
/// (per-window extrema are not recoverable from two cumulative states).
Snapshot diff(const Snapshot& before, const Snapshot& after);

class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Resolve-or-create.  The returned reference is stable for the
    /// registry's lifetime and survives reset().
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Read-only lookups (nullptr when the metric does not exist).
    const Counter* find_counter(const std::string& name) const;
    const Gauge* find_gauge(const std::string& name) const;
    const Histogram* find_histogram(const std::string& name) const;

    /// Registers a read-only probe sampled at snapshot() time, for state
    /// owned elsewhere (e.g. a VM's instruction counter).  Re-registering
    /// a name replaces the previous probe.  The callable must outlive the
    /// registry or be removed with remove_probes_with_prefix.
    void register_probe(const std::string& name, std::function<std::int64_t()> fn);
    /// Removes every probe whose name starts with `prefix`.
    void remove_probes_with_prefix(const std::string& prefix);

    /// Visits every counter in name order (probes excluded).
    void visit_counters(
        const std::function<void(const std::string&, std::uint64_t)>& fn) const;

    Snapshot snapshot() const;

    /// Zeroes every counter/gauge/histogram in place; handles stay valid.
    /// Probes are untouched (they sample live external state).
    void reset();

    std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size() + probes_.size();
    }

private:
    // unique_ptr values give handle stability; std::map gives sorted
    // iteration for deterministic snapshots and exports.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::function<std::int64_t()>> probes_;
};

}  // namespace rafda::obs
