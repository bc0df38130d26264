// RMIB — the compact binary protocol (RMI stand-in).
//
// RMIB is the only shipped codec with batch-entry framing: calls
// coalesced into an open frame on a busy link travel as 0xA4
// continuation entries that omit the fields pinned down by the frame's
// BatchContext (DESIGN.md §17).
#pragma once

#include "net/codec.hpp"

namespace rafda::net {

class RmibCodec final : public Codec {
public:
    const std::string& protocol() const override;
    void encode_request_into(const CallRequest& req, ByteWriter& w) const override;
    void decode_request_into(const Bytes& data, CallRequest& req) const override;
    void encode_reply_into(const CallReply& reply, ByteWriter& w) const override;
    CallReply decode_reply(const Bytes& data) const override;
    bool supports_batch_entries() const override { return true; }
    void encode_batch_entry(const CallRequest& req, const BatchContext& ctx,
                            ByteWriter& w) const override;
    void decode_batch_entry_into(const Bytes& data, const BatchContext& ctx,
                                 CallRequest& req) const override;
    double cpu_cost_ns_per_byte() const override { return 0.5; }
};

}  // namespace rafda::net
