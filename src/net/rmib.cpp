#include "net/rmib.hpp"

#include "net/binary_body.hpp"
#include "support/error.hpp"

namespace rafda::net {

namespace {

constexpr std::uint8_t kMagicRequest = 0xA1;
constexpr std::uint8_t kMagicReply = 0xA2;
// Request carrying the reliability extension (attempt + deadline): used
// only when either field is nonzero, so base-protocol traffic — and the
// fault-free wire sizes in EXPERIMENTS.md E5 — is byte-identical to the
// original framing.
constexpr std::uint8_t kMagicRequestReliable = 0xA3;
// Batch-continuation entry: a request coalesced into an already-open
// frame on a busy link.  It omits src_node (pinned by the frame) and
// carries request_id as a varint delta from the frame-opening call, with
// the reliability extension flag-gated the same way 0xA3 gates it.  Only
// decodable against the BatchContext the encoder used, so decode_request
// rejects it outright.
constexpr std::uint8_t kMagicBatchEntry = 0xA4;

constexpr std::uint8_t kEntryFlagReliable = 0x01;

constexpr const char* kWho = "rmib";

}  // namespace

const std::string& RmibCodec::protocol() const {
    static const std::string name = "RMI";
    return name;
}

void RmibCodec::encode_request_into(const CallRequest& req, ByteWriter& w) const {
    const bool reliable = req.attempt != 0 || req.deadline_us != 0;
    w.u8(reliable ? kMagicRequestReliable : kMagicRequest);
    if (reliable) binary::write_reliability(w, req);
    binary::write_request(w, req);
}

void RmibCodec::decode_request_into(const Bytes& data, CallRequest& req) const {
    ByteReader r(data);
    const std::uint8_t magic = r.u8();
    if (magic == kMagicBatchEntry)
        throw CodecError("rmib: batch entry outside a batch frame");
    if (magic != kMagicRequest && magic != kMagicRequestReliable)
        throw CodecError("rmib: bad request magic");
    req.clear_unframed();
    if (magic == kMagicRequestReliable) binary::read_reliability(r, req);
    binary::read_request(r, req, kWho);
    if (!r.at_end()) throw CodecError("rmib: trailing bytes in request");
}

void RmibCodec::encode_batch_entry(const CallRequest& req, const BatchContext& ctx,
                                   ByteWriter& w) const {
    if (req.src_node != ctx.src_node)
        throw CodecError("rmib: batch entry from a different source node");
    if (req.request_id < ctx.base_request_id)
        throw CodecError("rmib: batch entry precedes the frame-opening call");
    std::uint8_t flags = 0;
    if (req.attempt != 0 || req.deadline_us != 0) flags |= kEntryFlagReliable;
    w.u8(kMagicBatchEntry);
    w.u8(flags);
    w.varu64(req.request_id - ctx.base_request_id);
    w.u8(static_cast<std::uint8_t>(req.kind));
    if (flags & kEntryFlagReliable) binary::write_reliability(w, req);
    binary::write_call_body(w, req);
}

void RmibCodec::decode_batch_entry_into(const Bytes& data, const BatchContext& ctx,
                                        CallRequest& req) const {
    ByteReader r(data);
    if (r.u8() != kMagicBatchEntry) throw CodecError("rmib: bad batch-entry magic");
    const std::uint8_t flags = r.u8();
    if (flags & ~kEntryFlagReliable)
        throw CodecError("rmib: bad batch-entry flags");
    req.clear_unframed();
    req.src_node = ctx.src_node;
    req.request_id = ctx.base_request_id + r.varu64();
    req.kind = binary::read_kind(r, kWho);
    if (flags & kEntryFlagReliable) binary::read_reliability(r, req);
    binary::read_call_body(r, req, kWho);
    if (!r.at_end()) throw CodecError("rmib: trailing bytes in batch entry");
}

void RmibCodec::encode_reply_into(const CallReply& reply, ByteWriter& w) const {
    w.u8(kMagicReply);
    binary::write_reply(w, reply);
}

CallReply RmibCodec::decode_reply(const Bytes& data) const {
    ByteReader r(data);
    if (r.u8() != kMagicReply) throw CodecError("rmib: bad reply magic");
    CallReply reply = binary::read_reply(r, kWho);
    if (!r.at_end()) throw CodecError("rmib: trailing bytes in reply");
    return reply;
}

}  // namespace rafda::net
