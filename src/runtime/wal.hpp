// Per-node durability: write-ahead log + snapshot (DESIGN.md §20).
//
// A node's durable image is three byte streams of identical record format:
//
//   * the *snapshot* — a checkpoint of the node's heap, statics,
//     initialised classes, singleton registry and imported proxies,
//     written as a compact logical replay;
//   * the *log* — every mutation since that snapshot, appended as it
//     happens; and
//   * the *reply stream* — the node's dedup cache itself: one Reply record
//     per cached reply, in FIFO order, indexed by request id.  Eviction
//     trims it, so a checkpoint never touches it.
//
// Records are CRC-framed: `[u32 len][u32 crc32][payload]` with the CRC
// over the payload, and the payload `[u8 kind][varu64 t_us][fields...]`
// stamped with the node's virtual clock at append time.  Recovery replays
// the snapshot, then the log, then the reply stream; a torn tail
// (truncated frame or CRC mismatch — the moral equivalent of a crash
// mid-write) stops that stream's replay cleanly at its last complete
// record, applying nothing of the tail.
//
// The WAL never reads clocks, draws randomness, or advances virtual time
// — appends are a pure function of the mutations they record, which is
// what keeps `durable off` byte-identical to the pre-durability build.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "support/bytes.hpp"
#include "transform/naming.hpp"
#include "vm/value.hpp"

namespace rafda::runtime {

/// Durability knobs (policy grammar: `durable on|off [snapshot-interval N]`).
/// Off by default: no observer is installed and only the reply stream is
/// kept.
struct DurabilityPolicy {
    bool enabled = false;
    /// Virtual µs between heap snapshots, checked at request-dispatch
    /// boundaries; each snapshot truncates the log.  0 = never snapshot
    /// (the log grows for the whole run and replay starts from genesis).
    std::uint64_t snapshot_interval_us = 10'000;
};

/// Lifetime accounting for one node's WAL, mirrored into wal.* counters.
struct WalStats {
    std::uint64_t records = 0;    // records appended, trimmed since or not
    std::uint64_t snapshots = 0;  // checkpoints taken
    std::uint64_t recoveries = 0;
    std::uint64_t replayed = 0;   // records applied across all recoveries
};

/// Decoded-record sink for replay.  Every method is pure: a visitor
/// (WalImage, tests, tools) handles every record kind, so a new kind
/// cannot be skipped silently.
class WalVisitor {
public:
    virtual ~WalVisitor() = default;
    virtual void on_alloc(std::uint64_t t_us, const std::string& cls) = 0;
    virtual void on_alloc_array(std::uint64_t t_us,
                                const std::string& elem_desc,
                                std::uint64_t length) = 0;
    virtual void on_field_put(std::uint64_t t_us, std::uint64_t oid,
                              std::uint64_t slot, const vm::Value& v) = 0;
    virtual void on_array_put(std::uint64_t t_us, std::uint64_t oid,
                              std::uint64_t index, const vm::Value& v) = 0;
    virtual void on_static_put(std::uint64_t t_us, const std::string& cls,
                               const std::string& field, const vm::Value& v) = 0;
    virtual void on_class_init(std::uint64_t t_us, const std::string& cls) = 0;
    virtual void on_singleton(std::uint64_t t_us, const std::string& cls,
                              std::uint64_t oid) = 0;
    virtual void on_singleton_drop(std::uint64_t t_us,
                                   const std::string& cls) = 0;
    virtual void on_proxy_import(std::uint64_t t_us, std::int32_t origin_node,
                                 std::uint64_t origin_oid,
                                 const std::string& iface,
                                 const std::string& protocol,
                                 std::uint64_t local_oid) = 0;
    virtual void on_reply(std::uint64_t t_us, std::uint64_t request_id,
                          const net::CallReply& reply) = 0;
    /// A live migration swapped local object `oid` for a proxy to
    /// (`node`, `remote_oid`) of class `proxy_cls`.
    virtual void on_transmute(std::uint64_t t_us, std::uint64_t oid,
                              const std::string& proxy_cls, std::int32_t node,
                              std::uint64_t remote_oid) = 0;
    /// Migration-by-recovery moved local object `oid` to (`node`,
    /// `remote_oid`) while this node was down; replay applies the same
    /// substitution a live migration would have (chained relocations
    /// compose in record order).
    virtual void on_relocate(std::uint64_t t_us, std::uint64_t oid,
                             const std::string& proxy_cls, std::int32_t node,
                             std::uint64_t remote_oid) = 0;
};

/// A node's durable image (snapshot, log and reply stream) decoded into
/// the state it describes: the one reader of replayed records, shared by
/// a node's restart and by migration-by-recovery (Node::restore_objects).
/// A transmute or relocate replaces the object by its proxy.  A record
/// that names an object the image never allocated is rejected while
/// decoding (CodecError), before anything is restored.
class WalImage final : public WalVisitor {
public:
    struct Object {
        bool is_array = false;
        std::string cls;           // class name; element descriptor for arrays
        std::uint64_t length = 0;  // arrays only
        std::map<std::uint64_t, vm::Value> fields;  // slot -> last value
    };
    /// (origin node, origin oid, interface, protocol), as Node keys them.
    using ImportKey = std::tuple<std::int32_t, std::uint64_t, std::string, std::string>;

    std::vector<Object> objects;  // arena order: index = oid - 1
    std::map<std::pair<std::string, std::string>, vm::Value> statics;  // (cls, field)
    std::set<std::string> initialized;
    std::map<std::string, std::uint64_t> singletons;
    std::vector<std::pair<ImportKey, std::uint64_t>> imports;  // -> local oid, in record order
    std::vector<std::pair<std::uint64_t, net::CallReply>> replies;  // FIFO

    void on_alloc(std::uint64_t, const std::string& cls) override {
        objects.push_back({false, cls, 0, {}});
    }
    void on_alloc_array(std::uint64_t, const std::string& elem_desc,
                        std::uint64_t length) override {
        objects.push_back({true, elem_desc, length, {}});
    }
    void on_field_put(std::uint64_t, std::uint64_t oid, std::uint64_t slot,
                      const vm::Value& v) override {
        object(oid).fields[slot] = v;
    }
    void on_array_put(std::uint64_t, std::uint64_t oid, std::uint64_t index,
                      const vm::Value& v) override {
        object(oid).fields[index] = v;
    }
    void on_static_put(std::uint64_t, const std::string& cls, const std::string& field,
                       const vm::Value& v) override {
        statics[{cls, field}] = v;
    }
    void on_class_init(std::uint64_t, const std::string& cls) override {
        initialized.insert(cls);
    }
    void on_singleton(std::uint64_t, const std::string& cls, std::uint64_t oid) override {
        object(oid);
        singletons[cls] = oid;
    }
    void on_singleton_drop(std::uint64_t, const std::string& cls) override {
        singletons.erase(cls);
    }
    void on_proxy_import(std::uint64_t, std::int32_t origin_node, std::uint64_t origin_oid,
                         const std::string& iface, const std::string& protocol,
                         std::uint64_t local_oid) override {
        object(local_oid);
        imports.emplace_back(ImportKey{origin_node, origin_oid, iface, protocol}, local_oid);
    }
    void on_reply(std::uint64_t, std::uint64_t request_id,
                  const net::CallReply& reply) override {
        replies.emplace_back(request_id, reply);
    }
    /// The slot became a proxy: its state lives at (node, remote_oid), so
    /// the image carries only the proxy's two fields.
    void on_transmute(std::uint64_t, std::uint64_t oid, const std::string& proxy_cls,
                      std::int32_t node, std::uint64_t remote_oid) override {
        object(oid) = {false,
                       proxy_cls,
                       0,
                       {{transform::naming::kProxyNodeSlot, vm::Value::of_int(node)},
                        {transform::naming::kProxyOidSlot,
                         vm::Value::of_long(static_cast<std::int64_t>(remote_oid))}}};
    }
    void on_relocate(std::uint64_t t_us, std::uint64_t oid, const std::string& proxy_cls,
                     std::int32_t node, std::uint64_t remote_oid) override {
        on_transmute(t_us, oid, proxy_cls, node, remote_oid);
    }

private:
    /// The allocated object `oid`; throws CodecError for any other id.
    Object& object(std::uint64_t oid);
};

class Wal {
public:
    using ByteSpan = std::span<const std::uint8_t>;

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
                          const vm::Value& v) {
        append_put(Kind::FieldPut, t_us, oid, slot, v);
    }
    void append_array_put(std::uint64_t t_us, std::uint64_t oid, std::uint64_t index,
                          const vm::Value& v) {
        append_put(Kind::ArrayPut, t_us, oid, index, v);
    }
    void append_static_put(std::uint64_t t_us, const std::string& cls,
                           const std::string& field, const vm::Value& v);
    void append_class_init(std::uint64_t t_us, const std::string& cls);
    void append_singleton(std::uint64_t t_us, const std::string& cls,
                          std::uint64_t oid);
    void append_singleton_drop(std::uint64_t t_us, const std::string& cls);
    void append_proxy_import(std::uint64_t t_us, std::int32_t origin_node,
                             std::uint64_t origin_oid, const std::string& iface,
                             const std::string& protocol, std::uint64_t local_oid);
    /// Appends a Reply record to the reply stream, not the log, indexed
    /// under `request_id` (an id appended twice is found at its newest).
    void append_reply(std::uint64_t t_us, std::uint64_t request_id,
                      const net::CallReply& reply);
    void append_transmute(std::uint64_t t_us, std::uint64_t oid,
                          const std::string& proxy_cls, std::int32_t node,
                          std::uint64_t remote_oid) {
        append_move(Kind::Transmute, t_us, oid, proxy_cls, node, remote_oid);
    }
    void append_relocate(std::uint64_t t_us, std::uint64_t oid,
                         const std::string& proxy_cls, std::int32_t node,
                         std::uint64_t remote_oid) {
        append_move(Kind::Relocate, t_us, oid, proxy_cls, node, remote_oid);
    }

    // -- Snapshot protocol ----------------------------------------------
    /// Redirects subsequent appends into a fresh checkpoint stream; the
    /// caller emits the node's whole state, then commits.  Appends between
    /// begin and commit count as snapshot bytes, not log records.
    void begin_snapshot();
    /// Seals the checkpoint and truncates the log: the durable image is
    /// now (snapshot, empty log, reply stream).
    void commit_snapshot();
    /// Drops the oldest reply-stream records until at most `live` remain,
    /// by advancing the stream's head, and unindexes them.  The dead prefix
    /// is reclaimed only once it outweighs half the live bytes, so each
    /// appended byte moves at most twice on average and the buffer stays
    /// within 1.5 times its live bytes.
    void trim_replies(std::size_t live);
    /// The reply the stream holds for `request_id`, decoded in place.
    std::optional<net::CallReply> find_reply(std::uint64_t request_id) const;
    bool holds_reply(std::uint64_t id) const { return reply_index_.contains(id); }
    std::size_t reply_count() const noexcept { return reply_records_; }

    // -- Recovery -------------------------------------------------------
    /// Replays one framed stream into `v`; stops at the first torn or
    /// corrupt frame.  Static so tests can replay arbitrary byte strings.
    static ReplayResult replay(ByteSpan stream, WalVisitor& v);
    /// Replays the snapshot, the log, then the reply stream; updates
    /// recovery stats and rebuilds the reply index, as a restart must.
    ReplayResult recover(WalVisitor& v);

    const Bytes& log() const noexcept { return log_; }
    const Bytes& snapshot() const noexcept { return snapshot_; }
    /// The live reply records, oldest first.  Reclaims the prefix
    /// trim_replies dropped first, so a read (statistics, migration by
    /// recovery) may move the live bytes once; trimming and recover()
    /// never do.
    const Bytes& replies() const {
        if (replies_head_) compact_replies();
        return replies_;
    }
    /// True when nothing durable has been recorded yet.
    bool empty() const noexcept {
        return log_.empty() && snapshot_.empty() && replies_.size() == replies_head_;
    }
    const WalStats& stats() const noexcept { return stats_; }

    /// Mirrors appends into system-wide counters (`wal.records`,
    /// `wal.bytes`, `wal.snapshots`), once, as a node turns durable: its
    /// cached replies are its first durable records, counted from here.
    void attach_counters(obs::Counter* records, obs::Counter* bytes,
                         obs::Counter* snapshots) {
        records_ctr_ = records;
        bytes_ctr_ = bytes;
        snapshots_ctr_ = snapshots;
        stats_.records = reply_records_;
        records->add(reply_records_);
        bytes->add(replies_.size() - replies_head_);
    }

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

    /// FieldPut/ArrayPut and Transmute/Relocate share a layout.
    void append_put(Kind kind, std::uint64_t t_us, std::uint64_t oid, std::uint64_t slot,
                    const vm::Value& v);
    void append_move(Kind kind, std::uint64_t t_us, std::uint64_t oid,
                     const std::string& proxy_cls, std::int32_t node,
                     std::uint64_t remote_oid);
    /// Appends one record to `sink` where it will live: reserves the
    /// 8-byte header, writes [u8 kind][varu64 t_us] and then `fields(w)`,
    /// and patches the length and CRC into the header.
    template <class Fields>
    void frame(Bytes& sink, Kind kind, std::uint64_t t_us, Fields&& fields);
    /// The stream log-kind records go to: the checkpoint under
    /// construction, else the log.
    Bytes& current() noexcept { return in_snapshot_ ? scratch_ : log_; }
    /// Drops the trimmed prefix of the reply stream, so its live records
    /// start at offset 0.
    void compact_replies() const;
    /// A reader over the Reply record at `pos` in replies_, positioned
    /// after its kind and stamp (at the request id).
    ByteReader reply_at(std::size_t pos) const;

    Bytes log_;
    Bytes snapshot_;
    Bytes scratch_;            // checkpoint under construction
    bool in_snapshot_ = false;
    /// The reply stream; its live records start at `replies_head_`.  The
    /// bytes before it are records trim_replies dropped and no compaction
    /// has reclaimed yet.  Mutable because replies() compacts on read.
    mutable Bytes replies_;
    mutable std::size_t replies_head_ = 0;
    /// Bytes compactions erased from replies_' front: a record at `pos`
    /// has the stable offset `replies_base_ + pos`, which the index holds.
    mutable std::uint64_t replies_base_ = 0;
    std::size_t reply_records_ = 0;  // live records in replies_
    std::unordered_map<std::uint64_t, std::uint64_t> reply_index_;
    WalStats stats_;
    obs::Counter* records_ctr_ = nullptr;
    obs::Counter* bytes_ctr_ = nullptr;
    obs::Counter* snapshots_ctr_ = nullptr;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// sixteen bytes per step (slicing-by-16); exposed for tests that
/// hand-build or corrupt frames.
std::uint32_t wal_crc32(const std::uint8_t* data, std::size_t len);

}  // namespace rafda::runtime
