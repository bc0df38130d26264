// The call body shared by the two binary codecs.
//
// RMIB and CORBX carry the same request and reply fields in the same
// order; they differ only in framing (magic vs. GIOP-style header) and in
// whether multi-byte values are aligned.  The body is therefore written
// once, as templates over the writer and reader: ByteWriter/ByteReader for
// RMIB, the aligning CdrWriter/CdrReader for CORBX.  `who` is the codec's
// error-message prefix ("rmib", "corbx").
#pragma once

#include <string>

#include "net/message.hpp"
#include "support/error.hpp"

namespace rafda::net::binary {

template <class W>
void write_value(W& w, const MarshalledValue& v) {
    w.u8(static_cast<std::uint8_t>(v.tag));
    switch (v.tag) {
        case ValueTag::Null: break;
        case ValueTag::Bool: w.u8(v.b ? 1 : 0); break;
        case ValueTag::Int: w.i32(v.i); break;
        case ValueTag::Long: w.i64(v.j); break;
        case ValueTag::Double: w.f64(v.d); break;
        case ValueTag::Str: w.str(v.s); break;
        case ValueTag::Ref:
            w.i32(v.ref_node);
            w.u64(v.ref_oid);
            w.str(v.ref_class);
            break;
    }
}

/// Decodes one value into `v`, which must be default-constructed.
template <class R>
void read_value(R& r, MarshalledValue& v, const char* who) {
    const std::uint8_t tag = r.u8();
    if (tag > static_cast<std::uint8_t>(ValueTag::Ref))
        throw CodecError(std::string(who) + ": bad value tag");
    v.tag = static_cast<ValueTag>(tag);
    switch (v.tag) {
        case ValueTag::Null: break;
        case ValueTag::Bool: v.b = r.u8() != 0; break;
        case ValueTag::Int: v.i = r.i32(); break;
        case ValueTag::Long: v.j = r.i64(); break;
        case ValueTag::Double: v.d = r.f64(); break;
        case ValueTag::Str: r.str(v.s); break;
        case ValueTag::Ref:
            v.ref_node = r.i32();
            v.ref_oid = r.u64();
            r.str(v.ref_class);
            break;
    }
}

/// The reliability extension (attempt + deadline), present only when the
/// framing flags it.
template <class W>
void write_reliability(W& w, const CallRequest& req) {
    w.u32(req.attempt);
    w.u64(req.deadline_us);
}

template <class R>
void read_reliability(R& r, CallRequest& req) {
    req.attempt = r.u32();
    req.deadline_us = r.u64();
}

template <class R>
RequestKind read_kind(R& r, const char* who) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(RequestKind::Discover))
        throw CodecError(std::string(who) + ": bad request kind");
    return static_cast<RequestKind>(kind);
}

/// Target, names and arguments: everything a batch entry keeps of a call.
template <class W>
void write_call_body(W& w, const CallRequest& req) {
    w.u64(req.target_oid);
    w.str(req.cls);
    w.str(req.method);
    w.str(req.desc);
    w.u32(static_cast<std::uint32_t>(req.args.size()));
    for (const MarshalledValue& a : req.args) write_value(w, a);
}

template <class R>
void read_call_body(R& r, CallRequest& req, const char* who) {
    req.target_oid = r.u64();
    r.str(req.cls);
    r.str(req.method);
    r.str(req.desc);
    const std::uint32_t n = r.u32();
    // Each value takes at least its tag byte: a larger count is corrupt.
    if (n > r.remaining()) throw CodecError(std::string(who) + ": argument count exceeds frame");
    req.args.clear();  // keeps the capacity a reused request grew
    req.args.reserve(n);
    for (std::uint32_t k = 0; k < n; ++k) read_value(r, req.args.emplace_back(), who);
}

/// A full request after its framing: kind, request id, source and the
/// call body.
template <class W>
void write_request(W& w, const CallRequest& req) {
    w.u8(static_cast<std::uint8_t>(req.kind));
    w.u64(req.request_id);
    w.i32(req.src_node);
    write_call_body(w, req);
}

template <class R>
void read_request(R& r, CallRequest& req, const char* who) {
    req.kind = read_kind(r, who);
    req.request_id = r.u64();
    req.src_node = r.i32();
    read_call_body(r, req, who);
}

template <class W>
void write_reply(W& w, const CallReply& reply) {
    w.u64(reply.request_id);
    w.u8(reply.is_fault ? 1 : 0);
    if (reply.is_fault) {
        w.str(reply.fault_class);
        w.str(reply.fault_msg);
    } else {
        write_value(w, reply.result);
    }
}

template <class R>
CallReply read_reply(R& r, const char* who) {
    CallReply reply;
    reply.request_id = r.u64();
    reply.is_fault = r.u8() != 0;
    if (reply.is_fault) {
        r.str(reply.fault_class);
        r.str(reply.fault_msg);
    } else {
        read_value(r, reply.result, who);
    }
    return reply;
}

}  // namespace rafda::net::binary
