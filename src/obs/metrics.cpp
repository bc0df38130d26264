#include "obs/metrics.hpp"

#include <bit>
#include <limits>

namespace rafda::obs {

void Histogram::record(std::uint64_t v) noexcept {
    ++buckets_[bucket_index(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
}

std::size_t Histogram::bucket_index(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    std::size_t idx = static_cast<std::size_t>(std::bit_width(v));
    return idx < kBuckets ? idx : kBuckets - 1;
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= kBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
}

std::uint64_t Histogram::approx_quantile(double q) const noexcept {
    return quantile_from_buckets(buckets_, count_, max_, q);
}

std::uint64_t Histogram::quantile_from_buckets(
    const std::array<std::uint64_t, kBuckets>& buckets, std::uint64_t count,
    std::uint64_t max, double q) noexcept {
    if (count == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += buckets[i];
        if (seen > rank) {
            std::uint64_t hi = bucket_upper_bound(i);
            return hi > max ? max : hi;
        }
    }
    return max;
}

void Histogram::reset() noexcept {
    buckets_.fill(0);
    count_ = sum_ = min_ = max_ = 0;
}

const Sample* Snapshot::find(const std::string& name) const {
    auto it = samples.find(name);
    return it == samples.end() ? nullptr : &it->second;
}

std::uint64_t Snapshot::counter_value(const std::string& name) const {
    const Sample* s = find(name);
    return s && s->kind == Sample::Kind::Counter ? s->counter : 0;
}

Snapshot diff(const Snapshot& before, const Snapshot& after) {
    Snapshot out;
    for (const auto& [name, a] : after.samples) {
        const Sample* b = before.find(name);
        Sample d = a;
        if (b && b->kind == a.kind) {
            switch (a.kind) {
                case Sample::Kind::Counter:
                    d.counter = a.counter >= b->counter ? a.counter - b->counter : 0;
                    break;
                case Sample::Kind::Gauge:
                    break;  // levels: keep the `after` reading
                case Sample::Kind::Histogram:
                    d.count = a.count >= b->count ? a.count - b->count : 0;
                    d.sum = a.sum >= b->sum ? a.sum - b->sum : 0;
                    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
                        d.buckets[i] = a.buckets[i] >= b->buckets[i]
                                           ? a.buckets[i] - b->buckets[i]
                                           : 0;
                    break;
            }
        }
        out.samples.emplace(name, d);
    }
    return out;
}

Counter& Registry::counter(const std::string& name) {
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    return *it->second;
}

Histogram& Registry::histogram(const std::string& name) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
    return *it->second;
}

const Counter* Registry::find_counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

void Registry::register_probe(const std::string& name,
                              std::function<std::int64_t()> fn) {
    probes_[name] = std::move(fn);
}

void Registry::remove_probes_with_prefix(const std::string& prefix) {
    for (auto it = probes_.lower_bound(prefix); it != probes_.end();) {
        if (it->first.compare(0, prefix.size(), prefix) != 0) break;
        it = probes_.erase(it);
    }
}

void Registry::visit_counters(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const {
    for (const auto& [name, c] : counters_) fn(name, c->value());
}

Snapshot Registry::snapshot() const {
    Snapshot out;
    for (const auto& [name, c] : counters_) {
        Sample s;
        s.kind = Sample::Kind::Counter;
        s.counter = c->value();
        out.samples.emplace(name, s);
    }
    for (const auto& [name, g] : gauges_) {
        Sample s;
        s.kind = Sample::Kind::Gauge;
        s.gauge = g->value();
        out.samples.emplace(name, s);
    }
    for (const auto& [name, h] : histograms_) {
        Sample s;
        s.kind = Sample::Kind::Histogram;
        s.count = h->count();
        s.sum = h->sum();
        s.min = h->min();
        s.max = h->max();
        s.buckets = h->buckets();
        out.samples.emplace(name, s);
    }
    for (const auto& [name, fn] : probes_) {
        Sample s;
        s.kind = Sample::Kind::Gauge;
        s.gauge = fn();
        out.samples.emplace(name, s);
    }
    return out;
}

void Registry::reset() {
    for (auto& [_, c] : counters_) c->reset();
    for (auto& [_, g] : gauges_) g->reset();
    for (auto& [_, h] : histograms_) h->reset();
}

}  // namespace rafda::obs
