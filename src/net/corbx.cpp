#include "net/corbx.hpp"

#include "net/binary_body.hpp"
#include "support/error.hpp"

namespace rafda::net {

namespace {

constexpr char kMagic[4] = {'C', 'R', 'B', 'X'};
constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 0;
constexpr std::uint8_t kTypeRequest = 0;
constexpr std::uint8_t kTypeReply = 1;
// Header flags bit: the reliability extension (attempt + deadline) follows
// the header. Only set when either field is nonzero, so base-protocol
// traffic — and the fault-free wire sizes in EXPERIMENTS.md E5 — is
// byte-identical to the original framing.
constexpr std::uint8_t kFlagReliable = 0x01;
constexpr const char* kWho = "corbx";

/// CDR-style writer: pads to 4-byte alignment before multi-byte values.
/// Wraps the caller's ByteWriter (in the RPC path a pooled frame) and
/// aligns relative to where this message started, so the encoding is the
/// same whether the frame buffer was fresh or already held other bytes.
class CdrWriter {
public:
    explicit CdrWriter(ByteWriter& w) : w_(w), base_(w.size()) {}
    void align4() {
        while ((w_.size() - base_) % 4 != 0) w_.u8(0);
    }
    void u8(std::uint8_t v) { w_.u8(v); }
    void u32(std::uint32_t v) {
        align4();
        w_.u32(v);
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void u64(std::uint64_t v) {
        align4();
        w_.u64(v);
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) {
        align4();
        w_.f64(v);
    }
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        w_.text(s);
    }

private:
    ByteWriter& w_;
    std::size_t base_;
};

class CdrReader {
public:
    explicit CdrReader(const Bytes& data) : r_(data) {}
    void align4() {
        const std::size_t pad = (4 - consumed_ % 4) % 4;
        r_.text(pad);
        consumed_ += pad;
    }
    std::uint8_t u8() {
        ++consumed_;
        return r_.u8();
    }
    std::uint32_t u32() {
        align4();
        consumed_ += 4;
        return r_.u32();
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::uint64_t u64() {
        align4();
        consumed_ += 8;
        return r_.u64();
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() {
        align4();
        consumed_ += 8;
        return r_.f64();
    }
    void str(std::string& out) {
        const std::uint32_t n = u32();
        consumed_ += n;
        out.assign(r_.text(n));
    }
    bool at_end() const { return r_.at_end(); }
    std::size_t remaining() const { return r_.remaining(); }

private:
    ByteReader r_;
    std::size_t consumed_ = 0;
};

void write_header(CdrWriter& w, std::uint8_t type, std::uint8_t flags = 0) {
    for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
    w.u8(kVersionMajor);
    w.u8(kVersionMinor);
    w.u8(type);
    w.u8(flags);
    w.u32(0);  // body length (filled conceptually; unused by the simulator)
}

std::uint8_t read_header(CdrReader& r, std::uint8_t expected_type) {
    for (char c : kMagic)
        if (r.u8() != static_cast<std::uint8_t>(c)) throw CodecError("corbx: bad magic");
    if (r.u8() != kVersionMajor || r.u8() != kVersionMinor)
        throw CodecError("corbx: unsupported version");
    if (r.u8() != expected_type) throw CodecError("corbx: unexpected message type");
    std::uint8_t flags = r.u8();
    r.u32();  // body length
    return flags;
}

}  // namespace

const std::string& CorbxCodec::protocol() const {
    static const std::string name = "CORBA";
    return name;
}

void CorbxCodec::encode_request_into(const CallRequest& req, ByteWriter& out) const {
    CdrWriter w(out);
    const bool reliable = req.attempt != 0 || req.deadline_us != 0;
    write_header(w, kTypeRequest, reliable ? kFlagReliable : 0);
    if (reliable) binary::write_reliability(w, req);
    binary::write_request(w, req);
}

void CorbxCodec::decode_request_into(const Bytes& data, CallRequest& req) const {
    CdrReader r(data);
    const std::uint8_t flags = read_header(r, kTypeRequest);
    req.clear_unframed();
    if (flags & kFlagReliable) binary::read_reliability(r, req);
    binary::read_request(r, req, kWho);
    if (!r.at_end()) throw CodecError("corbx: trailing bytes in request");
}

void CorbxCodec::encode_reply_into(const CallReply& reply, ByteWriter& out) const {
    CdrWriter w(out);
    write_header(w, kTypeReply);
    binary::write_reply(w, reply);
}

CallReply CorbxCodec::decode_reply(const Bytes& data) const {
    CdrReader r(data);
    read_header(r, kTypeReply);
    CallReply reply = binary::read_reply(r, kWho);
    if (!r.at_end()) throw CodecError("corbx: trailing bytes in reply");
    return reply;
}

}  // namespace rafda::net
