#include "runtime/wal.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "support/error.hpp"

namespace rafda::runtime {

namespace {

// -- CRC-32 ------------------------------------------------------------

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

// Slicing-by-16 tables, built at compile time: kCrc[0] is the classic
// byte-at-a-time table; kCrc[k][n] is the CRC of byte n followed by k
// zero bytes, so one step folds sixteen input bytes with sixteen lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 16> make_crc_tables() {
    std::array<std::array<std::uint32_t, 256>, 16> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < 16; ++k)
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

/// Slicing-by-16 over `len` bytes from the running (pre-inverted) CRC
/// register `c`; returns the register.
std::uint32_t crc32_slice(std::uint32_t c, const std::uint8_t* data, std::size_t len) {
    // The four bytes of `w`, which lie `k` to `k + 3` bytes before the end
    // of the step, folded with kCrc[k + 3] .. kCrc[k].
    const auto fold = [](std::uint32_t w, std::size_t k) {
        return kCrc[k + 3][w & 0xFFu] ^ kCrc[k + 2][(w >> 8) & 0xFFu] ^
               kCrc[k + 1][(w >> 16) & 0xFFu] ^ kCrc[k][w >> 24];
    };
    for (; len >= 16; data += 16, len -= 16)
        c = fold(c ^ load_le32(data), 12) ^ fold(load_le32(data + 4), 8) ^
            fold(load_le32(data + 8), 4) ^ fold(load_le32(data + 12), 0);
    for (; len; ++data, --len) c = kCrc[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c;
}

#if defined(__x86_64__)
/// A 128-bit lane moved forward by the distance the pair `k` encodes: its
/// low half times k's low half xor its high half times k's high half.
[[gnu::target("pclmul")]] inline __m128i clmul_fold(__m128i a, __m128i k) {
    return _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11));
}

__m128i load128(const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The carry-less-multiply kernel.  Under 64 bytes it is slicing-by-16.
/// From 64 bytes on, four 128-bit lanes fold 64-byte blocks with
/// PCLMULQDQ, fold into one lane, which folds the remaining 16-byte
/// blocks, and a Barrett reduction takes the lane to the 32-bit register;
/// slicing finishes the last 0-15 bytes.  The constants are the
/// bit-reflected fold multipliers and the Barrett pair (mu, P') for
/// P = 0xEDB88320 from Intel's "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (2009), the ones zlib's SIMD
/// CRC uses.
[[gnu::target("pclmul")]] std::uint32_t crc32_clmul(const std::uint8_t* data,
                                                    std::size_t len) {
    if (len < 64) return ~crc32_slice(0xFFFFFFFFu, data, len);
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load128(data), _mm_cvtsi32_si128(~0));
    __m128i x2 = load128(data + 16);
    __m128i x3 = load128(data + 32);
    __m128i x4 = load128(data + 48);
    for (data += 64, len -= 64; len >= 64; data += 64, len -= 64) {
        x1 = _mm_xor_si128(clmul_fold(x1, k1k2), load128(data));
        x2 = _mm_xor_si128(clmul_fold(x2, k1k2), load128(data + 16));
        x3 = _mm_xor_si128(clmul_fold(x3, k1k2), load128(data + 32));
        x4 = _mm_xor_si128(clmul_fold(x4, k1k2), load128(data + 48));
    }
    x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x2);
    x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x3);
    x1 = _mm_xor_si128(clmul_fold(x1, k3k4), x4);
    for (; len >= 16; data += 16, len -= 16)
        x1 = _mm_xor_si128(clmul_fold(x1, k3k4), load128(data));

    // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                       _mm_srli_si128(x1, 4));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), barrett, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
    x1 = _mm_xor_si128(x1, t);
    const auto c = static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
    return ~crc32_slice(c, data, len);
}
#endif

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

/// Reads past one reply exactly as get_reply would, building nothing, so
/// a counted Reply record is held to the same framing as a decoded one.
void skip_reply(ByteReader& r) {
    r.varu64();
    r.u8();
    switch (static_cast<net::ValueTag>(r.u8())) {
        case net::ValueTag::Null: break;
        case net::ValueTag::Bool: r.u8(); break;
        case net::ValueTag::Int: r.i32(); break;
        case net::ValueTag::Long: r.i64(); break;
        case net::ValueTag::Double: r.f64(); break;
        case net::ValueTag::Str: r.text(r.u32()); break;
        case net::ValueTag::Ref:
            r.i32();
            r.varu64();
            r.text(r.u32());
            break;
        default: throw CodecError("bad WAL marshalled tag");
    }
    r.text(r.u32());
    r.text(r.u32());
}

}  // namespace

std::uint32_t wal_crc32_slicing(const std::uint8_t* data, std::size_t len) {
    return ~crc32_slice(0xFFFFFFFFu, data, len);
}

CrcKernel wal_crc32_clmul() {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul")) return crc32_clmul;
#endif
    return nullptr;
}

std::uint32_t wal_crc32(const std::uint8_t* data, std::size_t len) {
#if defined(__x86_64__)
    static const bool clmul = wal_crc32_clmul() != nullptr;
    if (clmul) return crc32_clmul(data, len);
#endif
    return wal_crc32_slicing(data, len);
}

WalImage::Object& WalImage::object(std::uint64_t oid) {
    if (oid == 0 || oid > objects.size())
        throw CodecError("WAL record names object " + std::to_string(oid) +
                         ", which the image never allocated");
    return objects[oid - 1];
}

template <class Fields>
void Wal::frame(Bytes& sink, Kind kind, std::uint64_t t_us, Fields&& fields) {
    const std::size_t at = sink.size();
    ByteWriter w(sink, ByteWriter::Append{});
    w.u64(0);  // the header, patched once the payload's length is known
    w.u8(static_cast<std::uint8_t>(kind));
    w.varu64(t_us);
    fields(w);
    const std::size_t len = sink.size() - at - 8;
    std::uint8_t* header = sink.data() + at;
    store_le32(header, static_cast<std::uint32_t>(len));
    store_le32(header + 4, wal_crc32(header + 8, len));
    if (&sink != &scratch_) {
        ++stats_.records;
        if (records_ctr_) records_ctr_->add();
        if (bytes_ctr_) bytes_ctr_->add(8 + len);
    }
}

void Wal::append_alloc(std::uint64_t t_us, const std::string& cls) {
    frame(current(), Kind::Alloc, t_us, [&](ByteWriter& w) { w.str(cls); });
}

void Wal::append_alloc_array(std::uint64_t t_us, const std::string& elem_desc,
                             std::uint64_t length) {
    frame(current(), Kind::AllocArray, t_us, [&](ByteWriter& w) {
        w.str(elem_desc);
        w.varu64(length);
    });
}

void Wal::append_put(Kind kind, std::uint64_t t_us, std::uint64_t oid, std::uint64_t slot,
                     const vm::Value& v) {
    frame(current(), kind, t_us, [&](ByteWriter& w) {
        w.varu64(oid);
        w.varu64(slot);
        put_value(w, v);
    });
}

void Wal::append_static_put(std::uint64_t t_us, const std::string& cls,
                            const std::string& field, const vm::Value& v) {
    frame(current(), Kind::StaticPut, t_us, [&](ByteWriter& w) {
        w.str(cls);
        w.str(field);
        put_value(w, v);
    });
}

void Wal::append_class_init(std::uint64_t t_us, const std::string& cls) {
    frame(current(), Kind::ClassInit, t_us, [&](ByteWriter& w) { w.str(cls); });
}

void Wal::append_singleton(std::uint64_t t_us, const std::string& cls,
                           std::uint64_t oid) {
    frame(current(), Kind::Singleton, t_us, [&](ByteWriter& w) {
        w.str(cls);
        w.varu64(oid);
    });
}

void Wal::append_singleton_drop(std::uint64_t t_us, const std::string& cls) {
    frame(current(), Kind::SingletonDrop, t_us, [&](ByteWriter& w) { w.str(cls); });
}

void Wal::append_proxy_import(std::uint64_t t_us, std::int32_t origin_node,
                              std::uint64_t origin_oid, const std::string& iface,
                              const std::string& protocol, std::uint64_t local_oid) {
    frame(current(), Kind::ProxyImport, t_us, [&](ByteWriter& w) {
        w.i32(origin_node);
        w.varu64(origin_oid);
        w.str(iface);
        w.str(protocol);
        w.varu64(local_oid);
    });
}

void Wal::append_reply(std::uint64_t t_us, std::uint64_t request_id,
                       const net::CallReply& reply) {
    reply_index_.insert_or_assign(request_id, replies_base_ + replies_.size());
    frame(replies_, Kind::Reply, t_us, [&](ByteWriter& w) {
        w.varu64(request_id);
        put_reply(w, reply);
    });
    ++reply_records_;
}

void Wal::append_move(Kind kind, std::uint64_t t_us, std::uint64_t oid,
                      const std::string& proxy_cls, std::int32_t node,
                      std::uint64_t remote_oid) {
    frame(current(), kind, t_us, [&](ByteWriter& w) {
        w.varu64(oid);
        w.str(proxy_cls);
        w.i32(node);
        w.varu64(remote_oid);
    });
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

void Wal::trim_replies(std::size_t live) {
    for (; reply_records_ > live; --reply_records_) {
        reply_index_.erase(reply_at(replies_head_).varu64(), replies_base_ + replies_head_);
        replies_head_ += 8 + load_le32(replies_.data() + replies_head_);
    }
    // Reclaim the dead prefix once it outweighs half the live bytes.
    if (2 * replies_head_ > replies_.size() - replies_head_) compact_replies();
}

std::optional<net::CallReply> Wal::find_reply(std::uint64_t request_id) const {
    const std::uint64_t* at = reply_index_.find(request_id);
    if (!at) return std::nullopt;
    ByteReader r = reply_at(static_cast<std::size_t>(*at - replies_base_));
    r.varu64();
    return get_reply(r);
}

ByteReader Wal::reply_at(std::size_t pos) const {
    ByteReader r(ByteSpan(replies_).subspan(pos + 8, load_le32(replies_.data() + pos)));
    r.u8();
    r.varu64();
    return r;
}

void Wal::compact_replies() const {
    replies_.erase(replies_.begin(),
                   replies_.begin() + static_cast<std::ptrdiff_t>(replies_head_));
    replies_base_ += replies_head_;
    replies_head_ = 0;
}

Wal::ReplayResult Wal::replay(ByteSpan stream, WalVisitor& v, Replies replies) {
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
        ByteReader r(ByteSpan(payload, len));
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
            case Kind::FieldPut:
            case Kind::ArrayPut: {
                std::uint64_t oid = r.varu64();
                std::uint64_t slot = r.varu64();
                const vm::Value val = get_value(r);
                if (kind == Kind::FieldPut)
                    v.on_field_put(t, oid, slot, val);
                else
                    v.on_array_put(t, oid, slot, val);
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
                if (replies == Replies::Count)
                    skip_reply(r);
                else
                    v.on_reply(t, req, get_reply(r));
                break;
            }
            case Kind::Transmute:
            case Kind::Relocate: {
                std::uint64_t oid = r.varu64();
                std::string cls = r.str();
                std::int32_t node = r.i32();
                std::uint64_t remote = r.varu64();
                if (kind == Kind::Transmute)
                    v.on_transmute(t, oid, cls, node, remote);
                else
                    v.on_relocate(t, oid, cls, node, remote);
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
    ReplayResult total;
    const ByteSpan live_replies = ByteSpan(replies_).subspan(replies_head_);
    for (const ByteSpan stream : {ByteSpan(snapshot_), ByteSpan(log_), live_replies}) {
        const ReplayResult part = replay(stream, v, Replies::Count);
        total.records += part.records;
        total.bytes += part.bytes;
        total.clean = total.clean && part.clean;
    }
    reply_index_.clear();
    for (std::size_t pos = replies_head_; pos < replies_.size();
         pos += 8 + load_le32(replies_.data() + pos))
        reply_index_.insert_or_assign(reply_at(pos).varu64(), replies_base_ + pos);
    ++stats_.recoveries;
    stats_.replayed += total.records;
    return total;
}

}  // namespace rafda::runtime
