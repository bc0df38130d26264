#include "net/codec.hpp"

#include "net/corbx.hpp"
#include "net/rmib.hpp"
#include "net/soapx.hpp"
#include "support/error.hpp"

namespace rafda::net {

void Codec::encode_batch_entry(const CallRequest&, const BatchContext&,
                               ByteWriter&) const {
    throw CodecError(protocol() + ": protocol has no batch-entry framing");
}

void Codec::decode_batch_entry_into(const Bytes&, const BatchContext&, CallRequest&) const {
    throw CodecError(protocol() + ": protocol has no batch-entry framing");
}

std::unique_ptr<Codec> make_codec(const std::string& protocol) {
    if (protocol == "RMI") return std::make_unique<RmibCodec>();
    if (protocol == "SOAP") return std::make_unique<SoapxCodec>();
    if (protocol == "CORBA") return std::make_unique<CorbxCodec>();
    throw CodecError("unknown protocol: " + protocol);
}

}  // namespace rafda::net
