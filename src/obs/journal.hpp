// Journal — the flight recorder: a bounded ring of virtual-time-stamped
// structured events.
//
// Point-in-time counters (obs::Registry) say *how much* happened and the
// Tracer says *what nested under what*, but neither records *when* things
// happened relative to each other across the whole run: retries vs fault
// windows, dedup hits vs crashes, migrations vs the traffic that provoked
// them.  The journal is that record — the observation substrate the
// adaptation engine (ROADMAP item 1) replays its decisions against, and
// the event source `rafdac trace --chrome` turns into a Perfetto-loadable
// timeline.
//
// Overhead discipline (DESIGN.md §16):
//   * Disabled (the default) record() is a single inline `enabled()`
//     branch, so call sites need no guard of their own: the detail is a
//     string_view over text the caller already holds.  Only a detail that
//     has to be *built* (concatenated) is built under `enabled()`.
//     Nothing is allocated until the first enable.
//   * Enabled, the ring is allocated once at `capacity()` slots and then
//     reused; recording is a slot assignment (the detail is copied into
//     the slot's existing string), never a push_back.  Memory
//     stays bounded no matter how long the run is: old events are
//     overwritten, and `overwritten()` says how many fell off the back.
//   * Recording never reads clocks, never draws from a PRNG and never
//     advances virtual time, so enabling the journal cannot perturb a
//     seeded run — virtual-time results are bit-for-bit identical with
//     the journal on or off (asserted by bench_journal / E11).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rafda::obs {

/// One recorded event.  The fixed fields cover every emitter; `a`/`b` are
/// kind-specific payloads (request id, byte counts, object ids, ...) and
/// `detail` is a short human string (protocol, method, "request"/"reply").
struct JournalEvent {
    enum class Kind : std::uint8_t {
        RpcSend,      // node=src, peer=dst, a=request_id, b=request bytes
        RpcArrive,    // node=dst, peer=src, a=request_id, b=request bytes
        RpcDispatch,  // node=dst, a=request_id, b=attempt
        RpcReply,     // node=caller, peer=dst, a=request_id, b=reply bytes
        RpcDrop,      // node=src, peer=dst of the lossy link, a=request_id
        RpcRetry,     // node=caller, a=request_id, b=attempt about to run
        RpcTimeout,   // node=where the deadline fired, a=request_id
        DedupHit,     // node=server, a=request_id (reply replayed, not re-run)
        Breaker,      // node=dst, a=new state (0 closed / 1 open / 2 half-open)
        FaultEdge,    // node=src, peer=dst (peer=-1: node fault), a=1 down/0 up
        Migrate,      // node=from, peer=to, a=old oid, b=new oid
        Adapt,        // adaptation-engine decision (DESIGN.md §19):
                      // node=from/home, peer=to (-1 when n/a), a=action
                      // (0 migrate / 1 replicate / 2 defer / 3 invalidate /
                      // 4 refresh / 5 recover), b=bytes involved, detail=class
        Recover,      // durable restart or migration-by-recovery
                      // (DESIGN.md §20): node=recovered/crashed node,
                      // peer=target (-1 = in-place restart), a=records
                      // replayed, b=bytes replayed
    };

    Kind kind = Kind::RpcSend;
    std::uint64_t seq = 0;   // monotone sequence number, survives wrap-around
    std::uint64_t t_us = 0;  // virtual time of the event
    std::int32_t node = -1;
    std::int32_t peer = -1;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::string detail;
};

/// Short stable name for tables and JSON ("send", "drop", "migrate", ...).
const char* journal_kind_name(JournalEvent::Kind kind);

class Journal {
public:
    static constexpr std::size_t kDefaultCapacity = 8192;
    /// Longest detail string a slot retains; longer strings are truncated
    /// with a "..." suffix at record time.  Slots are a reuse pool whose
    /// string capacity persists, so this bounds ring memory at
    /// capacity × (sizeof(JournalEvent) + kMaxDetail) regardless of what
    /// emitters pass in — the scale guarantee DESIGN.md §18 relies on.
    static constexpr std::size_t kMaxDetail = 64;

    /// Enabling allocates the ring (once); disabling keeps the recorded
    /// events readable but stops recording.
    void set_enabled(bool on);
    bool enabled() const noexcept { return enabled_; }

    /// Resizes the ring and clears it.  Capacity 0 is clamped to 1.
    void set_capacity(std::size_t n);
    std::size_t capacity() const noexcept { return capacity_; }

    /// Appends one event; a no-op while disabled.  When the ring is full
    /// the oldest event is overwritten.  `detail` is copied into the
    /// slot's reused string (truncated at kMaxDetail), so recording is
    /// O(1) and allocation-free once every slot has been written.
    void record(JournalEvent::Kind kind, std::uint64_t t_us, std::int32_t node,
                std::int32_t peer, std::uint64_t a, std::uint64_t b,
                std::string_view detail) {
        if (enabled_) append(kind, t_us, node, peer, a, b, detail);
    }

    /// Events currently held (<= capacity()).
    std::size_t size() const noexcept { return size_; }
    /// Events recorded since the last rebase/clear, including overwritten.
    std::uint64_t total_recorded() const noexcept { return total_; }
    /// Events lost off the back of the ring.
    std::uint64_t overwritten() const noexcept { return total_ - size_; }

    /// Virtual time the current observation window started: 0 at birth;
    /// System::reset_stats() rebases it to the network's stats epoch, so
    /// journal contents and utilization denominators describe the same
    /// window (DESIGN.md §16).
    std::uint64_t epoch_us() const noexcept { return epoch_us_; }

    /// Drops every event and starts a new observation window at `epoch`.
    void rebase(std::uint64_t epoch_us);
    void clear() { rebase(epoch_us_); }

    /// Oldest-to-newest traversal.
    void visit(const std::function<void(const JournalEvent&)>& fn) const;

    /// Single-line JSON: {"epoch_us":..,"total":..,"overwritten":..,
    /// "events":[{...},...]} — the `rafdac journal --json` contract.
    std::string to_json() const;

private:
    void append(JournalEvent::Kind kind, std::uint64_t t_us, std::int32_t node,
                std::int32_t peer, std::uint64_t a, std::uint64_t b,
                std::string_view detail);

    bool enabled_ = false;
    std::size_t capacity_ = kDefaultCapacity;
    std::vector<JournalEvent> ring_;  // allocated on first enable
    std::size_t head_ = 0;            // slot the next event goes into
    std::size_t size_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t epoch_us_ = 0;
};

}  // namespace rafda::obs
