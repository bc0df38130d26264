// Span tracer — follows one logical RPC across its whole path.
//
// A span is a named interval of virtual time on one node; spans nest
// (parent/child) and share a trace id, so one proxy invocation shows up
// as a tree:
//
//   rpc.invoke C.poke (node 0)
//   ├─ codec.encode_request RMI
//   ├─ net.transfer 0->1
//   ├─ codec.decode_request RMI
//   ├─ rpc.dispatch poke (node 1)          <- parent carried with the request
//   │  └─ vm.execute poke
//   ├─ codec.encode_reply RMI
//   ├─ net.transfer 1->0
//   └─ codec.decode_reply RMI
//
// The caller's trace context stays host-side (RpcPath hands it to the
// server's dispatch span; no codec encodes it), so forwarding chains and
// migrations appear as nested rpc.invoke spans under the dispatch that
// caused them, and enabling the tracer changes no wire byte.
//
// Time is virtual: each span reads the clock of the node it runs on,
// injected via set_clock, so concurrent clients' spans do not borrow each
// other's progress.  An interval whose endpoints are known exactly — a
// wire transfer's send and arrival — is pinned instead.  Like the
// journal, the tracer is passive: results are exactly reproducible and
// identical with tracing on or off.
//
// Disabled by default: begin() and note() are a single branch, and
// ScopedSpan's lazily named form never builds its name, so the hot RPC
// path pays nothing — and needs no `enabled()` guards — when tracing is
// off.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rafda::obs {

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t trace = 0;   // shared by every span of one logical operation
    std::string name;
    std::int32_t node = -1;  // address space the span ran in (-1 = none)
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    std::vector<std::pair<std::string, std::string>> notes;

    std::uint64_t duration_us() const noexcept {
        return end_us >= start_us ? end_us - start_us : 0;
    }
};

class Tracer {
public:
    void set_enabled(bool on) noexcept { enabled_ = on; }
    bool enabled() const noexcept { return enabled_; }

    /// Virtual-time source: the clock of node `node` (-1 when a span runs
    /// on no node).  Unset means every span reads 0.
    void set_clock(std::function<std::uint64_t(std::int32_t node)> clock) {
        clock_ = std::move(clock);
    }

    /// Opens a span as a child of the current innermost open span (a new
    /// root — and a new trace — when none is open).  Returns the span id,
    /// or 0 when tracing is disabled.
    std::uint64_t begin(std::string name, std::int32_t node = -1);

    /// Opens a span whose parentage arrived from elsewhere (the caller's
    /// context, carried host-side): used by the server side of an RPC so
    /// the dispatch span is the child of the caller's span, not of
    /// whatever happens to be on this tracer's stack.
    std::uint64_t begin_remote(std::string name, std::int32_t node,
                               std::uint64_t trace, std::uint64_t parent);

    /// Closes span `id` (and anything left open beneath it).  id 0 is a
    /// no-op, so callers can pair begin/end unconditionally.
    void end(std::uint64_t id);

    /// Fixes open span `id`'s interval to [start_us, end_us], whatever the
    /// clock reads when it closes.  id 0 (tracing off) is a no-op.
    void pin(std::uint64_t id, std::uint64_t start_us, std::uint64_t end_us) {
        if (id) pin_open(id, start_us, end_us);
    }

    /// Attaches a key/value note to the innermost open span (no-op while
    /// disabled).  Integer values are formatted only when tracing is on.
    void note(std::string_view key, std::string_view value) {
        if (enabled_) add_note(key, value);
    }
    template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
    void note(std::string_view key, Int value) {
        if (enabled_) add_note(key, std::to_string(value));
    }

    /// Id of the innermost open span / its trace (0 when none).
    std::uint64_t current_span() const noexcept;
    std::uint64_t current_trace() const noexcept;

    /// Every recorded span, in begin order.  Open spans have end_us == 0.
    const std::vector<Span>& spans() const noexcept { return spans_; }
    void clear();

    /// ASCII rendering of the span forest with durations and notes.
    std::string render_tree() const;
    /// Machine-readable export: a single-line JSON array of span objects.
    std::string to_json() const;

private:
    struct Open {
        std::size_t index;  // into spans_
        bool pinned;        // end_us is fixed; closing leaves it alone
    };

    std::uint64_t now(std::int32_t node) const { return clock_ ? clock_(node) : 0; }
    void add_note(std::string_view key, std::string_view value);
    void pin_open(std::uint64_t id, std::uint64_t start_us, std::uint64_t end_us);

    bool enabled_ = false;
    std::function<std::uint64_t(std::int32_t)> clock_;
    std::vector<Span> spans_;
    std::vector<Open> open_;  // innermost last
    std::uint64_t next_id_ = 1;
};

/// RAII span: ends the span on scope exit, including exceptional unwinds
/// (a dropped message must not corrupt the open-span stack).
class ScopedSpan {
public:
    ScopedSpan() = default;
    ScopedSpan(Tracer& tracer, std::string name, std::int32_t node = -1)
        : tracer_(&tracer), id_(tracer.begin(std::move(name), node)) {}

    /// Lazily named span: `name()` runs only when tracing is on, so a call
    /// site can pass a concatenation without an `enabled()` guard.
    template <typename NameFn,
              typename = std::enable_if_t<std::is_invocable_r_v<std::string, NameFn&>>>
    ScopedSpan(Tracer& tracer, NameFn&& name, std::int32_t node = -1)
        : tracer_(&tracer), id_(tracer.enabled() ? tracer.begin(name(), node) : 0) {}

    /// Lazily named span whose parentage arrived from elsewhere (begin_remote).
    template <typename NameFn>
    static ScopedSpan remote(Tracer& tracer, NameFn&& name, std::int32_t node,
                             std::uint64_t trace, std::uint64_t parent) {
        return adopt(tracer, tracer.enabled()
                                 ? tracer.begin_remote(name(), node, trace, parent)
                                 : 0);
    }

    /// Takes ownership of an already-open span (e.g. from begin_remote).
    static ScopedSpan adopt(Tracer& tracer, std::uint64_t id) {
        ScopedSpan s;
        s.tracer_ = &tracer;
        s.id_ = id;
        return s;
    }
    ScopedSpan(ScopedSpan&& other) noexcept
        : tracer_(other.tracer_), id_(other.id_) {
        other.tracer_ = nullptr;
        other.id_ = 0;
    }
    ScopedSpan& operator=(ScopedSpan&& other) noexcept {
        if (this != &other) {
            finish();
            tracer_ = other.tracer_;
            id_ = other.id_;
            other.tracer_ = nullptr;
            other.id_ = 0;
        }
        return *this;
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() { finish(); }

    std::uint64_t id() const noexcept { return id_; }

private:
    void finish() {
        if (tracer_ && id_) tracer_->end(id_);
        tracer_ = nullptr;
        id_ = 0;
    }

    Tracer* tracer_ = nullptr;
    std::uint64_t id_ = 0;
};

}  // namespace rafda::obs
