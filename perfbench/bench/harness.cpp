#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void LatencyHist::record(std::int64_t ns) {
    if (ns < 0) ns = 0;
    ++count_;
    if (static_cast<std::uint64_t>(ns) < kFine) {
        ++fine_[static_cast<std::size_t>(ns)];
    } else {
        coarse_.push_back(ns);
        coarse_sorted_ = false;
    }
}

double LatencyHist::value_at_rank(std::uint64_t rank) const {
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns < kFine; ++ns) {
        seen += fine_[ns];
        if (seen > rank) return static_cast<double>(ns);
    }
    if (!coarse_sorted_) {
        std::sort(coarse_.begin(), coarse_.end());
        coarse_sorted_ = true;
    }
    return static_cast<double>(coarse_[static_cast<std::size_t>(rank - seen)]);
}

double LatencyHist::quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const double pos = q * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::uint64_t>(std::floor(pos));
    const std::uint64_t hi = std::min(lo + 1, count_ - 1);
    const double a = value_at_rank(lo);
    const double b = hi == lo ? a : value_at_rank(hi);
    return a + (b - a) * (pos - static_cast<double>(lo));
}

void OpRecorder::record(std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    all_.record(end_ns - start_ns);
    if (open_.empty()) first_start_ = start_ns;
    open_.push_back(end_ns - start_ns);
    if (open_.size() < window_ops_) return;
    const auto mid = open_.begin() + static_cast<std::ptrdiff_t>(open_.size() / 2);
    std::nth_element(open_.begin(), mid, open_.end());
    p50_us_.push_back(static_cast<double>(*mid) / 1e3);
    rates_.push_back(static_cast<double>(open_.size()) * 1e9 /
                     static_cast<double>(std::max<std::int64_t>(1, end_ns - first_start_)));
    open_.clear();
}

std::uint32_t SpanLog::name(const std::string& n) {
    const auto it = ids_.find(n);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(n);
    aggs_.emplace_back();
    ids_.emplace(n, id);
    return id;
}

void SpanLog::begin(std::uint32_t name_id, std::uint64_t call_id) {
    Open o;
    o.name = name_id;
    o.call = call_id;
    if (raw_.size() < raw_cap_) {
        o.raw = static_cast<std::int64_t>(raw_.size());
        Raw r;
        r.name = name_id;
        r.parent = stack_.empty() ? -1 : stack_.back().raw;
        r.call = call_id;
        raw_.push_back(r);
    }
    o.start = now_ns();
    stack_.push_back(o);
}

void SpanLog::end() {
    const std::int64_t t = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - o.start;
    Aggregate& a = aggs_[o.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.raw >= 0) {
        Raw& r = raw_[static_cast<std::size_t>(o.raw)];
        r.start = o.start;
        r.end = t;
    }
}

SpanLog::Aggregate SpanLog::aggregate(const std::string& n) const {
    const auto it = ids_.find(n);
    return it == ids_.end() ? Aggregate{} : aggs_[it->second];
}

std::map<std::string, SpanLog::Aggregate> SpanLog::aggregates() const {
    std::map<std::string, Aggregate> out;
    for (const auto& [n, id] : ids_)
        if (aggs_[id].count) out.emplace(n, aggs_[id]);
    return out;
}

bool SpanLog::write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[";
    for (std::size_t k = 0; k < raw_.size(); ++k) {
        const Raw& r = raw_[k];
        out << (k ? ",\n" : "\n") << "{\"name\":\"" << names_[r.name]
            << "\",\"start_ns\":" << r.start << ",\"end_ns\":" << r.end
            << ",\"parent\":" << r.parent << ",\"call\":" << r.call << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes on Linux
}

}  // namespace perfbench
