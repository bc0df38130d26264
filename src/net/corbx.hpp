// CORBX — the CORBA/GIOP stand-in protocol (paper Sec 2: "e.g. SOAP-based,
// RMI-based, CORBA-based, etc.").
//
// Binary like RMIB but CDR-flavoured: a GIOP-style 12-byte header (magic,
// version, message type, length) and 4-byte alignment padding before every
// multi-byte primitive, which makes it slightly larger and slightly more
// expensive than RMIB while staying far cheaper than SOAPX — a realistic
// middle point for the protocol-choice experiments.
#pragma once

#include "net/codec.hpp"

namespace rafda::net {

class CorbxCodec final : public Codec {
public:
    const std::string& protocol() const override;
    void encode_request_into(const CallRequest& req, ByteWriter& w) const override;
    void decode_request_into(const Bytes& data, CallRequest& req) const override;
    void encode_reply_into(const CallReply& reply, ByteWriter& w) const override;
    CallReply decode_reply(const Bytes& data) const override;
    double cpu_cost_ns_per_byte() const override { return 0.8; }
};

}  // namespace rafda::net
