// Per-node durability: write-ahead log + snapshot (DESIGN.md §20).
//
// A node's durable image is two byte streams of identical record format:
//
//   * the *snapshot* — a checkpoint of the whole node state (heap,
//     statics, initialised classes, singleton registry, imported proxies,
//     reply cache) written as a compact logical replay, and
//   * the *log* — every mutation since that snapshot, appended as it
//     happens.
//
// Records are CRC-framed: `[u32 len][u32 crc32][payload]` with the CRC
// over the payload, and the payload `[u8 kind][varu64 t_us][fields...]`
// stamped with the node's virtual clock at append time.  A Reply record's
// fields are encoded once per cached reply (EncodedReply) and reused by
// every checkpoint, whose record CRCs come from CRC combination rather
// than a second pass over the bytes.  Recovery replays
// the snapshot and then the log; a torn tail (truncated frame or CRC
// mismatch — the moral equivalent of a crash mid-write) stops replay
// cleanly at the last complete record, applying nothing of the tail.
//
// The WAL never reads clocks, draws randomness, or advances virtual time
// — appends are a pure function of the mutations they record, which is
// what keeps `durable off` byte-identical to the pre-durability build.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "support/bytes.hpp"
#include "vm/value.hpp"

namespace rafda::runtime {

/// Durability knobs (policy grammar: `durable on|off [snapshot-interval N]`).
/// Off by default: no observer is installed, no WAL exists, and every
/// legacy experiment byte is untouched.
struct DurabilityPolicy {
    bool enabled = false;
    /// Virtual µs between heap snapshots, checked at request-dispatch
    /// boundaries; each snapshot truncates the log.  0 = never snapshot
    /// (the log grows for the whole run and replay starts from genesis).
    std::uint64_t snapshot_interval_us = 10'000;
};

/// Lifetime accounting for one node's WAL, mirrored into wal.* counters.
struct WalStats {
    std::uint64_t records = 0;    // live-log records appended
    std::uint64_t snapshots = 0;  // checkpoints taken
    std::uint64_t recoveries = 0;
    std::uint64_t replayed = 0;   // records applied across all recoveries
};

/// Decoded-record sink for replay.  Every method defaults to a no-op so
/// implementations (node restore, the migration-by-recovery image
/// builder, tests) override only what they consume.
class WalVisitor {
public:
    virtual ~WalVisitor() = default;
    virtual void on_alloc(std::uint64_t /*t_us*/, const std::string& /*cls*/) {}
    virtual void on_alloc_array(std::uint64_t /*t_us*/,
                                const std::string& /*elem_desc*/,
                                std::uint64_t /*length*/) {}
    virtual void on_field_put(std::uint64_t /*t_us*/, std::uint64_t /*oid*/,
                              std::uint64_t /*slot*/, const vm::Value& /*v*/) {}
    virtual void on_array_put(std::uint64_t /*t_us*/, std::uint64_t /*oid*/,
                              std::uint64_t /*index*/, const vm::Value& /*v*/) {}
    virtual void on_static_put(std::uint64_t /*t_us*/, const std::string& /*cls*/,
                               const std::string& /*field*/, const vm::Value& /*v*/) {}
    virtual void on_class_init(std::uint64_t /*t_us*/, const std::string& /*cls*/) {}
    virtual void on_singleton(std::uint64_t /*t_us*/, const std::string& /*cls*/,
                              std::uint64_t /*oid*/) {}
    virtual void on_singleton_drop(std::uint64_t /*t_us*/,
                                   const std::string& /*cls*/) {}
    virtual void on_proxy_import(std::uint64_t /*t_us*/, std::int32_t /*origin_node*/,
                                 std::uint64_t /*origin_oid*/,
                                 const std::string& /*iface*/,
                                 const std::string& /*protocol*/,
                                 std::uint64_t /*local_oid*/) {}
    virtual void on_reply(std::uint64_t /*t_us*/, std::uint64_t /*request_id*/,
                          const net::CallReply& /*reply*/) {}
    /// A live migration swapped local object `oid` for a proxy to
    /// (`node`, `remote_oid`) of class `proxy_cls`.
    virtual void on_transmute(std::uint64_t /*t_us*/, std::uint64_t /*oid*/,
                              const std::string& /*proxy_cls*/, std::int32_t /*node*/,
                              std::uint64_t /*remote_oid*/) {}
    /// Migration-by-recovery moved local object `oid` to (`node`,
    /// `remote_oid`) while this node was down; replay applies the same
    /// substitution a live migration would have (chained relocations
    /// compose in record order).
    virtual void on_relocate(std::uint64_t /*t_us*/, std::uint64_t /*oid*/,
                             const std::string& /*proxy_cls*/, std::int32_t /*node*/,
                             std::uint64_t /*remote_oid*/) {}
};

/// A Reply record's fields — `[varu64 request_id][reply]` — encoded once,
/// with the CRC and CRC shift that let any `[kind][t_us]` prefix be
/// combined in without re-reading them.  A node keeps one per reply-cache
/// entry, so the live record and every later checkpoint share it.
struct EncodedReply {
    Bytes body;
    std::uint32_t crc = 0;           // wal_crc32 over body
    std::uint32_t shift = 1u << 31;  // wal_crc32_shift(body.size()); x^0 when empty

    /// (Re)encodes `reply` under `request_id`, reusing body's capacity.
    void encode(std::uint64_t request_id, const net::CallReply& reply);
};

class Wal {
public:
    /// Outcome of one stream replay.
    struct ReplayResult {
        std::uint64_t records = 0;  // complete records applied
        std::uint64_t bytes = 0;    // bytes consumed by those records
        /// True when the stream ended exactly on a record boundary; false
        /// means a torn or corrupt tail was rejected (nothing of it was
        /// surfaced to the visitor).
        bool clean = true;
    };

    // -- Live-log appends (one per WalVisitor event) --------------------
    void append_alloc(std::uint64_t t_us, const std::string& cls);
    void append_alloc_array(std::uint64_t t_us, const std::string& elem_desc,
                            std::uint64_t length);
    void append_field_put(std::uint64_t t_us, std::uint64_t oid, std::uint64_t slot,
                          const vm::Value& v);
    void append_array_put(std::uint64_t t_us, std::uint64_t oid, std::uint64_t index,
                          const vm::Value& v);
    void append_static_put(std::uint64_t t_us, const std::string& cls,
                           const std::string& field, const vm::Value& v);
    void append_class_init(std::uint64_t t_us, const std::string& cls);
    void append_singleton(std::uint64_t t_us, const std::string& cls,
                          std::uint64_t oid);
    void append_singleton_drop(std::uint64_t t_us, const std::string& cls);
    void append_proxy_import(std::uint64_t t_us, std::int32_t origin_node,
                             std::uint64_t origin_oid, const std::string& iface,
                             const std::string& protocol, std::uint64_t local_oid);
    void append_reply(std::uint64_t t_us, std::uint64_t request_id,
                      const net::CallReply& reply);
    /// The same Reply record from an encoding made earlier: the record
    /// bytes are copied and its CRC is combined from the stamp prefix's
    /// (memoized per `t_us`, so a checkpoint checksums it once) and the
    /// body's.
    void append_reply(std::uint64_t t_us, const EncodedReply& reply);
    void append_transmute(std::uint64_t t_us, std::uint64_t oid,
                          const std::string& proxy_cls, std::int32_t node,
                          std::uint64_t remote_oid);
    void append_relocate(std::uint64_t t_us, std::uint64_t oid,
                         const std::string& proxy_cls, std::int32_t node,
                         std::uint64_t remote_oid);

    // -- Snapshot protocol ----------------------------------------------
    /// Redirects subsequent appends into a fresh checkpoint stream; the
    /// caller emits the node's whole state, then commits.  Appends between
    /// begin and commit count as snapshot bytes, not log records.
    void begin_snapshot();
    /// Seals the checkpoint and truncates the log: the durable image is
    /// now (snapshot, empty log).
    void commit_snapshot();

    // -- Recovery -------------------------------------------------------
    /// Replays one framed stream into `v`; stops at the first torn or
    /// corrupt frame.  Static so tests can replay arbitrary byte strings.
    static ReplayResult replay(const Bytes& stream, WalVisitor& v);
    /// Replays the snapshot then the log; updates recovery stats.
    ReplayResult recover(WalVisitor& v);

    const Bytes& log() const noexcept { return log_; }
    const Bytes& snapshot() const noexcept { return snapshot_; }
    /// True when nothing durable has been recorded yet.
    bool empty() const noexcept { return log_.empty() && snapshot_.empty(); }
    const WalStats& stats() const noexcept { return stats_; }

    /// Mirrors appends into system-wide counters (`wal.records`,
    /// `wal.bytes`, `wal.snapshots`).  Null pointers detach.
    void attach_counters(obs::Counter* records, obs::Counter* bytes,
                         obs::Counter* snapshots) {
        records_ctr_ = records;
        bytes_ctr_ = bytes;
        snapshots_ctr_ = snapshots;
    }

    // Test access: install arbitrary (possibly damaged) streams.
    void set_log(Bytes b) { log_ = std::move(b); }
    void set_snapshot(Bytes b) { snapshot_ = std::move(b); }

private:
    enum class Kind : std::uint8_t {
        Alloc = 1,
        AllocArray = 2,
        FieldPut = 3,
        ArrayPut = 4,
        StaticPut = 5,
        ClassInit = 6,
        Singleton = 7,
        SingletonDrop = 8,
        ProxyImport = 9,
        Reply = 10,
        Transmute = 11,
        Relocate = 12,
    };

    /// Frames payload_ (kind + stamp + fields already encoded) with its
    /// length and CRC into the current sink.
    void frame();
    /// Appends `[u32 len][u32 crc][head][tail]` to the current sink.
    void emit(std::uint32_t crc, std::span<const std::uint8_t> head,
              std::span<const std::uint8_t> tail);
    /// Starts a payload: [u8 kind][varu64 t_us].
    static void stamp(ByteWriter& w, Kind kind, std::uint64_t t_us);

    Bytes log_;
    Bytes snapshot_;
    Bytes scratch_;            // checkpoint under construction
    bool in_snapshot_ = false;
    Bytes payload_;            // record being encoded; capacity reused
    EncodedReply reply_;       // append_reply(t, id, reply)'s encoding
    Bytes reply_prefix_;       // [Reply][varu64 reply_prefix_t_]
    std::uint64_t reply_prefix_t_ = 0;
    std::uint32_t reply_prefix_crc_ = 0;
    WalStats stats_;
    obs::Counter* records_ctr_ = nullptr;
    obs::Counter* bytes_ctr_ = nullptr;
    obs::Counter* snapshots_ctr_ = nullptr;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// eight bytes per step (slicing-by-8); exposed for tests that hand-build
/// or corrupt frames.
std::uint32_t wal_crc32(const std::uint8_t* data, std::size_t len);

/// x^(8·len) mod P: the operator that advances a CRC past `len` bytes.
std::uint32_t wal_crc32_shift(std::size_t len);

/// CRC of A‖B from crc(A), crc(B) and B's shift — zlib's crc32_combine
/// algebra: multmodp(shift_b, crc_a) ^ crc_b.
std::uint32_t wal_crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                std::uint32_t shift_b);

}  // namespace rafda::runtime
