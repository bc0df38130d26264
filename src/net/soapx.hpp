// SOAPX — the verbose XML-style text protocol (SOAP stand-in).
//
// Example request on the wire:
//
//   <Envelope><Body>
//     <Request kind="invoke" id="7" src="0" target="12" class=""
//              method="m" desc="(J)I">
//       <arg type="long">5</arg>
//       <arg type="ref" node="1" oid="3" class="C"></arg>
//     </Request>
//   </Body></Envelope>
//
// Compared to RMIB the payload is several times larger and the per-byte
// processing cost higher — reproducing the RMI-vs-SOAP asymmetry the
// paper's protocol-pluggable proxies are designed around.
#pragma once

#include "net/codec.hpp"

namespace rafda::net {

class SoapxCodec final : public Codec {
public:
    const std::string& protocol() const override;
    void encode_request_into(const CallRequest& req, ByteWriter& w) const override;
    void decode_request_into(const Bytes& data, CallRequest& req) const override;
    void encode_reply_into(const CallReply& reply, ByteWriter& w) const override;
    CallReply decode_reply(const Bytes& data) const override;
    double cpu_cost_ns_per_byte() const override { return 4.0; }
};

}  // namespace rafda::net
