// Protocol codec interface.
//
// One codec per proxy protocol (paper Sec 2: "various proxies implementing
// the interface for a class provide alternative remote versions, e.g.
// SOAP-based, RMI-based, CORBA-based").  The shipped codecs are:
//   RMIB  — compact length-prefixed binary (the RMI stand-in)
//   CORBX — GIOP-style header and 4-byte-aligned CDR body (the CORBA
//           stand-in); it shares RMIB's call body (net/binary_body.hpp)
//   SOAPX — verbose XML-style text (the SOAP stand-in)
// All three carry exactly the same message model; they differ in encoding
// cost and wire size, which is what experiment E5 measures.
//
// Encoding is zero-copy: the `*_into` methods append the framed message to
// a caller-supplied ByteWriter, which in the RPC path borrows a frame from
// the System's BufferPool (DESIGN.md §17).  Request decoding is
// allocation-free the same way: `decode_*_into` overwrites a reused
// CallRequest (the RPC path keeps one per nesting depth, DESIGN.md §11).
// The Bytes- and CallRequest-returning wrappers are thin non-virtual
// shims over them for tests and tools.
#pragma once

#include <memory>
#include <string>

#include "net/message.hpp"
#include "support/bytes.hpp"

namespace rafda::net {

/// Frame-level context shared by every call coalesced into one batch
/// frame on a directed link: the sending node and the request id of the
/// frame-opening call.  Batch entries omit what the context pins down and
/// are only decodable against the same context the encoder used — which
/// the receiving end of a link has, because it saw the frame open.
struct BatchContext {
    std::int32_t src_node = 0;
    std::uint64_t base_request_id = 0;
};

class Codec {
public:
    virtual ~Codec() = default;

    /// Protocol suffix used in generated proxy class names ("RMI", "SOAP").
    virtual const std::string& protocol() const = 0;

    /// Appends the framed request/reply to `w` with no intermediate copy.
    virtual void encode_request_into(const CallRequest& req, ByteWriter& w) const = 0;
    virtual void encode_reply_into(const CallReply& reply, ByteWriter& w) const = 0;

    Bytes encode_request(const CallRequest& req) const {
        ByteWriter w;
        encode_request_into(req, w);
        return w.take();
    }
    Bytes encode_reply(const CallReply& reply) const {
        ByteWriter w;
        encode_reply_into(reply, w);
        return w.take();
    }

    /// Decodes a request frame into `req`, overwriting every field — the
    /// reliability extension reads as zeros when the frame carries none,
    /// and the accounting fields are zeroed — while keeping the capacity
    /// of `req.args`, so a reused target decodes without allocating.
    /// After a CodecError `req` holds an unspecified mix of old and new
    /// fields; the next successful decode overwrites all of them.
    virtual void decode_request_into(const Bytes& data, CallRequest& req) const = 0;
    CallRequest decode_request(const Bytes& data) const {
        CallRequest req;
        decode_request_into(data, req);
        return req;
    }
    virtual CallReply decode_reply(const Bytes& data) const = 0;

    /// True when the protocol defines a compact batch-entry framing for
    /// calls coalesced into an open frame on a busy link (DESIGN.md §17).
    /// The default is per-call framing only: such protocols still share
    /// the pooled buffers, but every request travels as its own frame.
    virtual bool supports_batch_entries() const { return false; }
    /// Appends one batch-continuation entry for `req` against `ctx`.
    /// Throws CodecError unless supports_batch_entries().
    virtual void encode_batch_entry(const CallRequest& req, const BatchContext& ctx,
                                    ByteWriter& w) const;
    /// Decodes a batch-continuation entry against the same context the
    /// encoder used, overwriting `req` as decode_request_into does.
    /// Throws CodecError unless supports_batch_entries().
    virtual void decode_batch_entry_into(const Bytes& data, const BatchContext& ctx,
                                         CallRequest& req) const;
    CallRequest decode_batch_entry(const Bytes& data, const BatchContext& ctx) const {
        CallRequest req;
        decode_batch_entry_into(data, ctx, req);
        return req;
    }

    /// Simulated per-byte CPU cost of encoding/decoding, in nanoseconds;
    /// lets experiments model SOAP's parsing overhead without real XML
    /// libraries dominating wall-clock noise.
    virtual double cpu_cost_ns_per_byte() const = 0;
};

/// Factory for the built-in codecs; throws CodecError for unknown names.
std::unique_ptr<Codec> make_codec(const std::string& protocol);

}  // namespace rafda::net
