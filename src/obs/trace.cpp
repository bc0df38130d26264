#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "obs/export.hpp"

namespace rafda::obs {

std::uint64_t Tracer::begin(std::string name, std::int32_t node) {
    // A local child is a remote-parented span whose parent is on this stack.
    return begin_remote(std::move(name), node, current_trace(), current_span());
}

std::uint64_t Tracer::begin_remote(std::string name, std::int32_t node,
                                   std::uint64_t trace, std::uint64_t parent) {
    if (!enabled_) return 0;
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.trace = trace ? trace : s.id;
    s.name = std::move(name);
    s.node = node;
    s.start_us = now(node);
    open_.push_back(Open{spans_.size(), false});
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
    if (id == 0) return;
    // Close everything opened after (and including) `id`; exceptional
    // unwinds may leave children open and RAII destruction order closes
    // outer spans after inner ones anyway.
    while (!open_.empty()) {
        const Open o = open_.back();
        open_.pop_back();
        Span& s = spans_[o.index];
        if (!o.pinned) s.end_us = now(s.node);
        if (s.id == id) break;
    }
}

void Tracer::pin_open(std::uint64_t id, std::uint64_t start_us, std::uint64_t end_us) {
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
        Span& s = spans_[it->index];
        if (s.id != id) continue;
        s.start_us = start_us;
        s.end_us = end_us;
        it->pinned = true;
        return;
    }
}

void Tracer::add_note(std::string_view key, std::string_view value) {
    if (open_.empty()) return;
    spans_[open_.back().index].notes.emplace_back(key, value);
}

std::uint64_t Tracer::current_span() const noexcept {
    return open_.empty() ? 0 : spans_[open_.back().index].id;
}

std::uint64_t Tracer::current_trace() const noexcept {
    return open_.empty() ? 0 : spans_[open_.back().index].trace;
}

void Tracer::clear() {
    spans_.clear();
    open_.clear();
}

std::string Tracer::render_tree() const {
    // Children in begin order; a span whose parent was never recorded
    // (e.g. tracing enabled mid-flight) renders as a root.
    std::map<std::uint64_t, std::vector<std::size_t>> children;
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].id] = i;
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent != 0 && by_id.count(spans_[i].parent))
            children[spans_[i].parent].push_back(i);
        else
            roots.push_back(i);
    }

    std::ostringstream os;
    std::function<void(std::size_t, const std::string&, bool)> emit =
        [&](std::size_t idx, const std::string& prefix, bool last) {
            const Span& s = spans_[idx];
            os << prefix << (last ? "└─ " : "├─ ") << s.name;
            if (s.node >= 0) os << "  (node " << s.node << ")";
            os << "  [" << s.start_us << "us +" << s.duration_us() << "us]";
            for (const auto& [k, v] : s.notes) os << "  " << k << "=" << v;
            os << "\n";
            const auto it = children.find(s.id);
            if (it == children.end()) return;
            const std::string child_prefix = prefix + (last ? "   " : "│  ");
            for (std::size_t k = 0; k < it->second.size(); ++k)
                emit(it->second[k], child_prefix, k + 1 == it->second.size());
        };

    std::uint64_t last_trace = 0;
    for (std::size_t k = 0; k < roots.size(); ++k) {
        const Span& root = spans_[roots[k]];
        if (root.trace != last_trace || k == 0) {
            os << "trace " << root.trace << "\n";
            last_trace = root.trace;
        }
        emit(roots[k], "", k + 1 == roots.size() || spans_[roots[k + 1]].trace != root.trace);
    }
    return os.str();
}

std::string Tracer::to_json() const {
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (i) os << ",";
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"trace\":" << s.trace << ",\"name\":\"" << json_escape(s.name)
           << "\",\"node\":" << s.node << ",\"start_us\":" << s.start_us
           << ",\"end_us\":" << s.end_us;
        if (!s.notes.empty()) {
            os << ",\"notes\":{";
            for (std::size_t k = 0; k < s.notes.size(); ++k) {
                if (k) os << ",";
                os << "\"" << json_escape(s.notes[k].first) << "\":\""
                   << json_escape(s.notes[k].second) << "\"";
            }
            os << "}";
        }
        os << "}";
    }
    os << "]";
    return os.str();
}

}  // namespace rafda::obs
