#include "runtime/wal.hpp"

#include <algorithm>
#include <array>

#include "support/error.hpp"

namespace rafda::runtime {

namespace {

// -- CRC-32 ------------------------------------------------------------

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

// Slicing-by-8 tables, built at compile time: kCrc[0] is the classic
// byte-at-a-time table; kCrc[k][n] is the CRC of byte n followed by k
// zero bytes, so one step folds eight input bytes with eight lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t n = 0; n < 256; ++n)
            t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    return t;
}

constexpr auto kCrc = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// GF(2) polynomial arithmetic modulo the CRC polynomial, in the reflected
// bit order the CRC uses (x^0 is bit 31) — zlib's crc32_combine machinery.

/// a·b mod P.  Branch-free per bit of `a` (the operands are effectively
/// random, so a taken/not-taken branch would mispredict half the time).
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
    std::uint32_t p = 0;
    for (; a; a <<= 1) {
        p ^= b & (0u - (a >> 31));
        b = (b >> 1) ^ (kCrcPoly & (0u - (b & 1)));
    }
    return p;
}

// -- Value codecs -------------------------------------------------------
// vm::Value refs are plain object ids, meaningful relative to the heap
// the WAL belongs to — replay reproduces the same ids, so they round-trip
// verbatim.

enum class VTag : std::uint8_t { Null = 0, Bool, Int, Long, Double, Str, Ref };

void put_value(ByteWriter& w, const vm::Value& v) {
    if (v.is_null()) {
        w.u8(static_cast<std::uint8_t>(VTag::Null));
    } else if (v.is_bool()) {
        w.u8(static_cast<std::uint8_t>(VTag::Bool));
        w.u8(v.as_bool() ? 1 : 0);
    } else if (v.is_int()) {
        w.u8(static_cast<std::uint8_t>(VTag::Int));
        w.i32(v.as_int());
    } else if (v.is_long()) {
        w.u8(static_cast<std::uint8_t>(VTag::Long));
        w.i64(v.as_long());
    } else if (v.is_double()) {
        w.u8(static_cast<std::uint8_t>(VTag::Double));
        w.f64(v.as_double());
    } else if (v.is_str()) {
        w.u8(static_cast<std::uint8_t>(VTag::Str));
        w.str(v.as_str());
    } else {
        w.u8(static_cast<std::uint8_t>(VTag::Ref));
        w.varu64(v.as_ref());
    }
}

vm::Value get_value(ByteReader& r) {
    switch (static_cast<VTag>(r.u8())) {
        case VTag::Null: return vm::Value::null();
        case VTag::Bool: return vm::Value::of_bool(r.u8() != 0);
        case VTag::Int: return vm::Value::of_int(r.i32());
        case VTag::Long: return vm::Value::of_long(r.i64());
        case VTag::Double: return vm::Value::of_double(r.f64());
        case VTag::Str: return vm::Value::of_str(r.str());
        case VTag::Ref: return vm::Value::of_ref(r.varu64());
    }
    throw CodecError("bad WAL value tag");
}

void put_marshalled(ByteWriter& w, const net::MarshalledValue& v) {
    w.u8(static_cast<std::uint8_t>(v.tag));
    switch (v.tag) {
        case net::ValueTag::Null: break;
        case net::ValueTag::Bool: w.u8(v.b ? 1 : 0); break;
        case net::ValueTag::Int: w.i32(v.i); break;
        case net::ValueTag::Long: w.i64(v.j); break;
        case net::ValueTag::Double: w.f64(v.d); break;
        case net::ValueTag::Str: w.str(v.s); break;
        case net::ValueTag::Ref:
            w.i32(v.ref_node);
            w.varu64(v.ref_oid);
            w.str(v.ref_class);
            break;
    }
}

net::MarshalledValue get_marshalled(ByteReader& r) {
    switch (static_cast<net::ValueTag>(r.u8())) {
        case net::ValueTag::Null: return net::MarshalledValue::null();
        case net::ValueTag::Bool: return net::MarshalledValue::of_bool(r.u8() != 0);
        case net::ValueTag::Int: return net::MarshalledValue::of_int(r.i32());
        case net::ValueTag::Long: return net::MarshalledValue::of_long(r.i64());
        case net::ValueTag::Double: return net::MarshalledValue::of_double(r.f64());
        case net::ValueTag::Str: return net::MarshalledValue::of_str(r.str());
        case net::ValueTag::Ref: {
            std::int32_t node = r.i32();
            std::uint64_t oid = r.varu64();
            return net::MarshalledValue::of_ref(node, oid, r.str());
        }
    }
    throw CodecError("bad WAL marshalled tag");
}

void put_reply(ByteWriter& w, const net::CallReply& reply) {
    w.varu64(reply.request_id);
    w.u8(reply.is_fault ? 1 : 0);
    put_marshalled(w, reply.result);
    w.str(reply.fault_class);
    w.str(reply.fault_msg);
}

net::CallReply get_reply(ByteReader& r) {
    net::CallReply reply;
    reply.request_id = r.varu64();
    reply.is_fault = r.u8() != 0;
    reply.result = get_marshalled(r);
    reply.fault_class = r.str();
    reply.fault_msg = r.str();
    return reply;
}

}  // namespace

std::uint32_t wal_crc32(const std::uint8_t* data, std::size_t len) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (; len >= 8; data += 8, len -= 8) {
        const std::uint32_t lo = c ^ load_le32(data);
        const std::uint32_t hi = load_le32(data + 4);
        c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
            kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xFFu] ^
            kCrc[2][(hi >> 8) & 0xFFu] ^ kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
    }
    for (; len; ++data, --len) c = kCrc[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t wal_crc32_shift(std::size_t len) {
    // One table step on a zero byte multiplies the register by x^8, so
    // running x^0 through `len` zero bytes leaves x^(8·len) mod P.  The
    // zero high word drops four of each eight-byte step's lookups.
    std::uint32_t c = 1u << 31;  // x^0
    for (; len >= 8; len -= 8)
        c = kCrc[7][c & 0xFFu] ^ kCrc[6][(c >> 8) & 0xFFu] ^
            kCrc[5][(c >> 16) & 0xFFu] ^ kCrc[4][c >> 24];
    for (; len; --len) c = kCrc[0][c & 0xFFu] ^ (c >> 8);
    return c;
}

std::uint32_t wal_crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                std::uint32_t shift_b) {
    return multmodp(shift_b, crc_a) ^ crc_b;
}

void EncodedReply::encode(std::uint64_t request_id, const net::CallReply& reply) {
    ByteWriter w(body);
    w.varu64(request_id);
    put_reply(w, reply);
    crc = wal_crc32(body.data(), body.size());
    shift = wal_crc32_shift(body.size());
}

void Wal::stamp(ByteWriter& w, Kind kind, std::uint64_t t_us) {
    w.u8(static_cast<std::uint8_t>(kind));
    w.varu64(t_us);
}

void Wal::emit(std::uint32_t crc, std::span<const std::uint8_t> head,
               std::span<const std::uint8_t> tail) {
    Bytes& sink = in_snapshot_ ? scratch_ : log_;
    const std::size_t len = head.size() + tail.size();
    const std::size_t at = sink.size();
    sink.resize(at + 8 + len);
    std::uint8_t* out = sink.data() + at;
    store_le32(out, static_cast<std::uint32_t>(len));
    store_le32(out + 4, crc);
    out = std::copy(head.begin(), head.end(), out + 8);
    std::copy(tail.begin(), tail.end(), out);
    if (!in_snapshot_) {
        ++stats_.records;
        if (records_ctr_) records_ctr_->add();
        if (bytes_ctr_) bytes_ctr_->add(8 + len);
    }
}

void Wal::frame() {
    emit(wal_crc32(payload_.data(), payload_.size()), payload_, {});
}

void Wal::append_alloc(std::uint64_t t_us, const std::string& cls) {
    ByteWriter w(payload_);
    stamp(w, Kind::Alloc, t_us);
    w.str(cls);
    frame();
}

void Wal::append_alloc_array(std::uint64_t t_us, const std::string& elem_desc,
                             std::uint64_t length) {
    ByteWriter w(payload_);
    stamp(w, Kind::AllocArray, t_us);
    w.str(elem_desc);
    w.varu64(length);
    frame();
}

void Wal::append_field_put(std::uint64_t t_us, std::uint64_t oid, std::uint64_t slot,
                           const vm::Value& v) {
    ByteWriter w(payload_);
    stamp(w, Kind::FieldPut, t_us);
    w.varu64(oid);
    w.varu64(slot);
    put_value(w, v);
    frame();
}

void Wal::append_array_put(std::uint64_t t_us, std::uint64_t oid, std::uint64_t index,
                           const vm::Value& v) {
    ByteWriter w(payload_);
    stamp(w, Kind::ArrayPut, t_us);
    w.varu64(oid);
    w.varu64(index);
    put_value(w, v);
    frame();
}

void Wal::append_static_put(std::uint64_t t_us, const std::string& cls,
                            const std::string& field, const vm::Value& v) {
    ByteWriter w(payload_);
    stamp(w, Kind::StaticPut, t_us);
    w.str(cls);
    w.str(field);
    put_value(w, v);
    frame();
}

void Wal::append_class_init(std::uint64_t t_us, const std::string& cls) {
    ByteWriter w(payload_);
    stamp(w, Kind::ClassInit, t_us);
    w.str(cls);
    frame();
}

void Wal::append_singleton(std::uint64_t t_us, const std::string& cls,
                           std::uint64_t oid) {
    ByteWriter w(payload_);
    stamp(w, Kind::Singleton, t_us);
    w.str(cls);
    w.varu64(oid);
    frame();
}

void Wal::append_singleton_drop(std::uint64_t t_us, const std::string& cls) {
    ByteWriter w(payload_);
    stamp(w, Kind::SingletonDrop, t_us);
    w.str(cls);
    frame();
}

void Wal::append_proxy_import(std::uint64_t t_us, std::int32_t origin_node,
                              std::uint64_t origin_oid, const std::string& iface,
                              const std::string& protocol, std::uint64_t local_oid) {
    ByteWriter w(payload_);
    stamp(w, Kind::ProxyImport, t_us);
    w.i32(origin_node);
    w.varu64(origin_oid);
    w.str(iface);
    w.str(protocol);
    w.varu64(local_oid);
    frame();
}

void Wal::append_reply(std::uint64_t t_us, std::uint64_t request_id,
                       const net::CallReply& reply) {
    reply_.encode(request_id, reply);
    append_reply(t_us, reply_);
}

void Wal::append_reply(std::uint64_t t_us, const EncodedReply& reply) {
    if (reply_prefix_.empty() || t_us != reply_prefix_t_) {
        ByteWriter w(reply_prefix_);
        stamp(w, Kind::Reply, t_us);
        reply_prefix_t_ = t_us;
        reply_prefix_crc_ = wal_crc32(reply_prefix_.data(), reply_prefix_.size());
    }
    emit(wal_crc32_combine(reply_prefix_crc_, reply.crc, reply.shift), reply_prefix_,
         reply.body);
}

void Wal::append_transmute(std::uint64_t t_us, std::uint64_t oid,
                           const std::string& proxy_cls, std::int32_t node,
                           std::uint64_t remote_oid) {
    ByteWriter w(payload_);
    stamp(w, Kind::Transmute, t_us);
    w.varu64(oid);
    w.str(proxy_cls);
    w.i32(node);
    w.varu64(remote_oid);
    frame();
}

void Wal::append_relocate(std::uint64_t t_us, std::uint64_t oid,
                          const std::string& proxy_cls, std::int32_t node,
                          std::uint64_t remote_oid) {
    ByteWriter w(payload_);
    stamp(w, Kind::Relocate, t_us);
    w.varu64(oid);
    w.str(proxy_cls);
    w.i32(node);
    w.varu64(remote_oid);
    frame();
}

void Wal::begin_snapshot() {
    scratch_.clear();
    in_snapshot_ = true;
}

void Wal::commit_snapshot() {
    in_snapshot_ = false;
    // The retired snapshot's buffer becomes the next checkpoint's scratch.
    snapshot_.swap(scratch_);
    scratch_.clear();
    log_.clear();
    ++stats_.snapshots;
    if (snapshots_ctr_) snapshots_ctr_->add();
    if (bytes_ctr_) bytes_ctr_->add(snapshot_.size());
}

Wal::ReplayResult Wal::replay(const Bytes& stream, WalVisitor& v) {
    ReplayResult result;
    std::size_t pos = 0;
    while (pos + 8 <= stream.size()) {
        const std::uint32_t len = load_le32(stream.data() + pos);
        const std::uint32_t crc = load_le32(stream.data() + pos + 4);
        if (pos + 8 + len > stream.size()) break;  // torn frame
        const std::uint8_t* payload = stream.data() + pos + 8;
        if (wal_crc32(payload, len) != crc) break;  // corrupt frame
        // A whole, checksummed record: decode and apply.  A decode error
        // despite a matching CRC means a framing bug, not torn state —
        // surface it.
        Bytes body(payload, payload + len);
        ByteReader r(body);
        const Kind kind = static_cast<Kind>(r.u8());
        const std::uint64_t t = r.varu64();
        switch (kind) {
            case Kind::Alloc: {
                v.on_alloc(t, r.str());
                break;
            }
            case Kind::AllocArray: {
                std::string elem = r.str();
                v.on_alloc_array(t, elem, r.varu64());
                break;
            }
            case Kind::FieldPut: {
                std::uint64_t oid = r.varu64();
                std::uint64_t slot = r.varu64();
                v.on_field_put(t, oid, slot, get_value(r));
                break;
            }
            case Kind::ArrayPut: {
                std::uint64_t oid = r.varu64();
                std::uint64_t idx = r.varu64();
                v.on_array_put(t, oid, idx, get_value(r));
                break;
            }
            case Kind::StaticPut: {
                std::string cls = r.str();
                std::string field = r.str();
                v.on_static_put(t, cls, field, get_value(r));
                break;
            }
            case Kind::ClassInit: {
                v.on_class_init(t, r.str());
                break;
            }
            case Kind::Singleton: {
                std::string cls = r.str();
                v.on_singleton(t, cls, r.varu64());
                break;
            }
            case Kind::SingletonDrop: {
                v.on_singleton_drop(t, r.str());
                break;
            }
            case Kind::ProxyImport: {
                std::int32_t node = r.i32();
                std::uint64_t oid = r.varu64();
                std::string iface = r.str();
                std::string proto = r.str();
                v.on_proxy_import(t, node, oid, iface, proto, r.varu64());
                break;
            }
            case Kind::Reply: {
                std::uint64_t req = r.varu64();
                v.on_reply(t, req, get_reply(r));
                break;
            }
            case Kind::Transmute: {
                std::uint64_t oid = r.varu64();
                std::string cls = r.str();
                std::int32_t node = r.i32();
                v.on_transmute(t, oid, cls, node, r.varu64());
                break;
            }
            case Kind::Relocate: {
                std::uint64_t oid = r.varu64();
                std::string cls = r.str();
                std::int32_t node = r.i32();
                v.on_relocate(t, oid, cls, node, r.varu64());
                break;
            }
            default:
                throw CodecError("unknown WAL record kind " +
                                 std::to_string(static_cast<int>(kind)));
        }
        if (!r.at_end())
            throw CodecError("WAL record kind " + std::to_string(static_cast<int>(kind)) +
                             " has " + std::to_string(r.remaining()) +
                             " trailing payload bytes");
        pos += 8 + len;
        ++result.records;
        result.bytes = pos;
    }
    result.clean = pos == stream.size();
    return result;
}

Wal::ReplayResult Wal::recover(WalVisitor& v) {
    ReplayResult snap = replay(snapshot_, v);
    ReplayResult tail = replay(log_, v);
    ReplayResult total;
    total.records = snap.records + tail.records;
    total.bytes = snap.bytes + tail.bytes;
    total.clean = snap.clean && tail.clean;
    ++stats_.recoveries;
    stats_.replayed += total.records;
    return total;
}

}  // namespace rafda::runtime
