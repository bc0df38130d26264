// RpcPath — the client half of every remote call.
//
// System owns one and points every factory and proxy native at
// remote_call.  The module holds everything a call decides on its way
// through the middleware: the protocol table (one codec and one set of
// `rpc.proto.<p>.*` handles per generated protocol), the reliable call
// loop (deadline, backoff with seeded jitter, retry budget, per-(node,
// protocol) circuit breakers; DESIGN.md §15), one wire attempt with its
// batch lanes and pooled frames (§17), and the `rpc.*` counters that the
// callee's dedup and expiry hooks bump.  Nodes, placement and migration
// stay in System; the request-id counter lives here and is shared with
// System's state shipping, so one sequence numbers every message.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/network.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/reliable.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "vm/value.hpp"

namespace rafda::runtime {

class Node;
class System;

/// One generated protocol: its name, its codec and its registry handles.
/// The handles are registered on the protocol's first call, so a protocol
/// that never carried a call has no `rpc.proto.<name>.*` metric.
struct Protocol {
    std::string name;
    std::unique_ptr<net::Codec> codec;
    obs::Counter* calls = nullptr;
    obs::Counter* creates = nullptr;
    obs::Counter* discovers = nullptr;
    obs::Counter* faults = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* request_bytes = nullptr;
    obs::Counter* reply_bytes = nullptr;
    obs::Histogram* request_size = nullptr;
    obs::Histogram* reply_size = nullptr;
};

/// Remote requests (invokes + creates + discovers) and wire bytes
/// (requests + replies) summed over every protocol's `rpc.proto.*`
/// counters.
struct RpcTotals {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

class RpcPath {
public:
    /// Marker thrown (C++-level) when the simulated network drops a
    /// message; converted to a guest RemoteFault at the proxy boundary.
    ///
    /// RPC here is at-most-once, and the two loss points are not
    /// equivalent: a lost *request* never executed, a lost *reply* means
    /// the remote side already ran the call and only the result vanished.
    /// `executed_remotely` distinguishes them so callers can reason about
    /// side effects (retrying a create after a reply loss leaks an
    /// instance; retrying after a request loss does not).  See DESIGN.md
    /// §12.
    struct Dropped {
        std::string what;
        bool executed_remotely = false;
        /// True when no attempt touched the wire: an open circuit breaker
        /// or a known-crashed destination rejected the call immediately.
        bool fast_fail = false;
    };

    /// One Protocol per name in `protocols`; `seed` derives the jitter
    /// stream.  Registers the rpc.* and rpc.batch.* counters and the
    /// rpc.pool.* probes in `system`'s registry.
    RpcPath(System& system, const std::vector<std::string>& protocols,
            const RetryPolicy& reliability, const BatchPolicy& batching,
            std::uint64_t seed);
    // The registry's rpc.pool.* probes and every proxy native hold its address.
    RpcPath(const RpcPath&) = delete;
    RpcPath& operator=(const RpcPath&) = delete;

    /// The generated protocol `name`; throws RuntimeError for any other.
    Protocol& protocol(const std::string& name);

    /// One reliable logical call: encodes, transfers, decodes, dispatches
    /// and returns the reply, retrying per `reliability()` — deadline in
    /// virtual time, exponential backoff with seeded jitter, retry budget,
    /// circuit breaker — with the request id as the idempotency key for
    /// the callee's reply cache.  The tracer's current trace and span
    /// travel host-side to the callee's dispatch span; the codecs carry
    /// zeros, so tracing changes no wire byte.  Throws Dropped once the
    /// policy gives up (with the default policy that is on the first
    /// loss, exactly the legacy at-most-once behaviour).
    net::CallReply rpc(net::NodeId src, net::NodeId dst, Protocol& proto,
                       net::CallRequest& req);

    /// The client half of every remote native (make, discover, proxy
    /// invoke): runs `req` through rpc(), records the caller-observed
    /// latency (and the wire bytes into `edge_bytes` when given), then
    /// rethrows a guest fault, imports the result, or turns a network loss
    /// into a guest RemoteFault.
    vm::Value remote_call(Node& self, net::NodeId dst, Protocol& proto,
                          net::CallRequest& req, obs::Histogram& latency,
                          obs::Counter* edge_bytes = nullptr);

    /// Requests for outgoing proxy invokes, one per nesting depth (the
    /// callee of a proxied call may proxy one of its own while the first
    /// is in flight).  The proxy dispatcher marshals into the one it
    /// leases, so a warm call allocates no argument vector.
    support::DepthStack<net::CallRequest>& outgoing() noexcept { return outgoing_; }

    /// The next request id; shared by calls and shipped state.
    std::uint64_t next_request_id() { return ++request_counter_; }

    /// The active reliability policy; mutate before driving traffic.
    RetryPolicy& reliability() noexcept { return reliability_; }

    /// The active batching policy (DESIGN.md §17); mutate before driving
    /// traffic.  Off by default — the wire schedule is then exactly the
    /// per-frame behaviour, byte for byte.
    BatchPolicy& batching() noexcept { return batching_; }

    /// The pooled message-buffer arena calls encode into.
    const support::BufferPool& buffer_pool() const noexcept { return buffer_pool_; }

    /// Per-(destination node, protocol) breaker traversal in key order,
    /// for `rafdac faults` and tests.
    void visit_breakers(const std::function<void(
                            net::NodeId, const std::string&, const CircuitBreaker&)>& fn) const;

    /// Bumped by Node when its reply cache answers a retried request; the
    /// (request id, node, time) triple also lands in the journal so the
    /// timeline shows *which* retry was absorbed.
    void note_dedup_hit(std::uint64_t request_id, net::NodeId node, std::uint64_t t_us);
    /// Bumped by Node when it refuses an expired request.
    void note_server_timeout(std::uint64_t request_id, net::NodeId node,
                             std::uint64_t t_us);

    /// Makes no batch lane joinable: a control barrier (DESIGN.md §13)
    /// must never let a later call coalesce onto a frame opened before it.
    void close_batch_lanes();

    RpcTotals totals() const;

private:
    /// One wire round-trip: no retries, no breaker.  Returns true with the
    /// decoded reply in `out`, or false with the lost request, lost reply
    /// or crashed destination described in `loss`; rpc() decides whether
    /// that loss is retried or thrown.
    bool rpc_attempt(net::NodeId src, net::NodeId dst, Protocol& proto,
                     net::CallRequest& req, net::CallReply& out, Dropped& loss);
    CircuitBreaker& breaker(net::NodeId dst, const std::string& protocol);
    /// Journal edge detection for node-crash windows: records a FaultEdge
    /// (peer=-1) when `down` differs from the last observation for `dst`.
    void note_node_fault(net::NodeId dst, bool down, std::uint64_t t_us);

    System& system_;
    obs::Registry& metrics_;
    obs::Tracer& tracer_;
    obs::Journal& journal_;
    net::SimNetwork& network_;
    std::map<std::string, Protocol> protocols_;
    RetryPolicy reliability_;
    BatchPolicy batching_;
    std::uint64_t request_counter_ = 0;
    /// Per-directed-link batch lane: what frame last occupied the link
    /// and whether a same-protocol request may still append to it.  The
    /// decode side reuses the recorded BatchContext, modelling the
    /// receiver having seen the frame open.
    struct BatchLane {
        const Protocol* protocol = nullptr;
        net::BatchContext ctx;
        std::uint32_t entries = 0;  // continuation entries appended so far
        bool joinable = false;
    };
    std::map<std::pair<net::NodeId, net::NodeId>, BatchLane> batch_lanes_;
    /// Request and reply frames encode straight into pooled storage
    /// (DESIGN.md §17).
    support::BufferPool buffer_pool_;
    /// The callee side's decode targets, one per RPC nesting depth: a
    /// callee's guest code may make a nested call while its own decoded
    /// request is still in use (DESIGN.md §11).
    support::DepthStack<net::CallRequest> decoded_;
    support::DepthStack<net::CallRequest> outgoing_;
    std::map<std::pair<net::NodeId, std::string>, CircuitBreaker> breakers_;
    /// Last observed node-crash state per destination (journal edge
    /// detection only, mirroring SimNetwork::fault_seen_ for links).
    std::map<net::NodeId, bool> node_fault_seen_;
    /// Jitter draws come from their own stream (not the network's), so a
    /// retry schedule can never perturb drop decisions — and vice versa.
    Rng retry_jitter_rng_;
    std::uint64_t retries_spent_ = 0;  // against RetryPolicy::retry_budget
    obs::Counter* retries_;
    obs::Counter* retries_reply_loss_;
    obs::Counter* timeouts_;
    obs::Counter* dedup_hits_;
    obs::Counter* breaker_open_;
    obs::Counter* batch_frames_;
    obs::Counter* batch_coalesced_;
    obs::Counter* batch_entry_bytes_;
};

}  // namespace rafda::runtime
