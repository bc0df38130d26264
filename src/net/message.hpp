// Wire-level message model shared by all protocol codecs.
//
// A marshalled value is either a primitive or a *remote reference*: the
// node the real object lives on, its object id there, and the original
// application class it stands for (so the receiving side can pick the
// right proxy class).  This is the representation boundary between the
// middleware and the protocols — codecs only see these structs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rafda::net {

enum class ValueTag : std::uint8_t { Null, Bool, Int, Long, Double, Str, Ref };

struct MarshalledValue {
    ValueTag tag = ValueTag::Null;
    bool b = false;
    std::int32_t i = 0;
    std::int64_t j = 0;
    double d = 0.0;
    std::string s;
    // Ref fields:
    std::int32_t ref_node = 0;
    std::uint64_t ref_oid = 0;
    std::string ref_class;  // original application class

    static MarshalledValue null();
    static MarshalledValue of_bool(bool v);
    static MarshalledValue of_int(std::int32_t v);
    static MarshalledValue of_long(std::int64_t v);
    static MarshalledValue of_double(double v);
    static MarshalledValue of_str(std::string v);
    static MarshalledValue of_ref(std::int32_t node, std::uint64_t oid, std::string cls);

    bool operator==(const MarshalledValue&) const = default;
};

enum class RequestKind : std::uint8_t {
    Invoke,    // call `method`/`desc` on object `target_oid`
    Create,    // instantiate the local implementation of `cls`, export it
    Discover,  // return (creating if needed) the `cls` singleton
};

// Everything a codec puts on the wire, plus two accounting fields.  The
// trace context and the request's send and arrival times are not here:
// RpcPath keeps them host-side, so no codec can encode them.
struct CallRequest {
    RequestKind kind = RequestKind::Invoke;
    std::uint64_t request_id = 0;
    // Accounting metadata (simulation bookkeeping, NOT wire data): the
    // original application class the call targets (set by the proxy
    // dispatcher so the RPC layer can attribute traffic per class without
    // re-deriving it from descriptors) and the wire bytes this logical
    // call has consumed so far across attempts — requests and replies,
    // retries included.  Codecs ignore both.
    std::string stat_class;
    std::uint64_t sim_wire_bytes = 0;
    // Reliability extension (DESIGN.md §15), carried on the wire only when
    // nonzero so fault-free encodings stay byte-identical to the base
    // protocol: `attempt` is 0 for the first try and N for the Nth retry
    // (the callee's dedup cache and trace spans use it); `deadline_us` is
    // the absolute virtual time after which the callee must not execute
    // the call (0 = no deadline).
    std::uint32_t attempt = 0;
    std::uint64_t deadline_us = 0;
    std::int32_t src_node = 0;
    std::uint64_t target_oid = 0;  // Invoke only
    std::string cls;               // Create/Discover: original class name
    std::string method;            // Invoke only
    std::string desc;              // Invoke only (transformed descriptor)
    std::vector<MarshalledValue> args;

    /// Zeroes what a frame may leave out — the reliability extension and
    /// the accounting fields — so that decoding into a reused request
    /// overwrites every field.
    void clear_unframed() {
        stat_class.clear();
        sim_wire_bytes = 0;
        attempt = 0;
        deadline_us = 0;
    }

    bool operator==(const CallRequest&) const = default;
};

struct CallReply {
    std::uint64_t request_id = 0;
    bool is_fault = false;
    MarshalledValue result;    // valid when !is_fault
    std::string fault_class;   // guest throwable class name
    std::string fault_msg;

    bool operator==(const CallReply&) const = default;
};

}  // namespace rafda::net
