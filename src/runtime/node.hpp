// Node — one simulated address space: a VM plus the marshalling layer.
//
// Nodes share the (immutable) transformed class pool but have disjoint
// heaps and static storage.  A node can:
//   * export a value: references to its local implementation objects become
//     (node, oid, interface) remote references; proxies it holds are
//     re-exported with *their* target, so references travel transitively;
//   * import a value: a remote reference becomes a generated proxy object
//     (deduplicated per (node, oid, interface, protocol));
//   * service requests: Invoke / Create / Discover, converting guest
//     exceptions into fault replies.
#pragma once

#include <map>
#include <string>

#include "net/message.hpp"
#include "net/network.hpp"
#include "runtime/wal.hpp"
#include "support/pool.hpp"
#include "vm/interp.hpp"
#include "vm/observer.hpp"

namespace rafda::runtime {

class System;

class Node : private vm::MutationObserver {
public:
    Node(System& system, net::NodeId id, const model::ClassPool& pool);
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    net::NodeId id() const noexcept { return id_; }
    vm::Interpreter& interp() noexcept { return interp_; }
    const vm::Interpreter& interp() const noexcept { return interp_; }

    /// This node's virtual clock (µs): the earliest instant it can start
    /// new work.  Local work (codec CPU, dispatch) advances it; message
    /// arrivals reconcile it at the RPC join points, so concurrent clients
    /// overlap in virtual time while one sequential caller reduces to the
    /// old global clock (DESIGN.md §13).
    std::uint64_t clock_us() const noexcept { return clock_us_; }
    /// Charges `us` of local work on this node's clock.
    void advance_clock(std::uint64_t us);
    /// Clock reconciliation: pulls the clock up to event time `t` (a
    /// message arrival); never moves it backwards.
    void reconcile_clock(std::uint64_t t);

    /// Pipeline mode (DESIGN.md §17): while on, this node streams its
    /// remote calls — successful reply arrivals are folded into a pending
    /// horizon (reconcile_reply) instead of stalling the clock, so the
    /// next request departs while the link still carries the previous one
    /// (which is what lets the batching layer coalesce).  Turning the
    /// mode off drains the horizon: the clock catches up to the latest
    /// reply arrival, restoring ordinary call-and-wait semantics.
    /// Failure paths always reconcile immediately, so retries, deadlines
    /// and exactly-once behave identically per logical call.
    void set_pipeline(bool on);
    bool pipeline() const noexcept { return pipeline_; }
    /// Success-path reply join point: defers into the pipeline horizon
    /// when pipeline mode is on, otherwise reconciles immediately.
    void reconcile_reply(std::uint64_t t);

    /// Services one decoded request arriving over `protocol`.  When the
    /// system's reliability policy enables dedup, the request id is an
    /// idempotency key: a retry of an already-executed request replays the
    /// cached reply instead of re-executing (exactly-once, DESIGN.md §15).
    /// Expired requests (deadline_us before `arrival_us`, the virtual time
    /// the network delivered the request) are refused with a RemoteFault
    /// reply before any guest code runs.  The arguments' strings move into
    /// the callee's frame, so `req.args` is spent afterwards.
    net::CallReply handle_request(net::CallRequest& req, const std::string& protocol,
                                  std::uint64_t arrival_us);

    /// Crash/restart bookkeeping: `restarts` is the number of NodeCrash
    /// windows for this node that have ended so far, as the caller's clock
    /// sees it (FaultPlan::restarts_before; an RPC arrival or the driver's
    /// sweep).  Only a count above the last one seen restarts the node, so
    /// each window restarts it once, whoever reports it first.  With durability off
    /// a newly observed restart sheds the node's soft state — the reply
    /// cache — which is what makes post-crash dedup a best-effort
    /// guarantee (the heap and singletons are modelled as durable; see
    /// DESIGN.md §15).  With durability on the whole VM is wiped and
    /// rebuilt from the snapshot + WAL, and the reply cache is kept, so
    /// dedup survives the crash (DESIGN.md §20).
    void apply_restarts(std::uint64_t restarts);

    /// Turns on the durability layer (DESIGN.md §20): exposes this node's
    /// WAL, whose reply stream (the replies already cached) becomes
    /// durable as it stands, installs the VM mutation observer so every
    /// heap and static mutation is journalled, and arms snapshotting at
    /// the interval of System::durability(), read at each check.  Off
    /// (the default) registers no wal.* counter and journals nothing.
    void enable_durability();
    bool durable() const noexcept { return durable_; }
    Wal* wal() noexcept { return durable_ ? &wal_ : nullptr; }
    const Wal* wal() const noexcept { return durable_ ? &wal_ : nullptr; }

    /// Writes a fresh checkpoint of the node's state (heap, statics,
    /// initialised classes, singletons, imported proxies) and truncates
    /// the log; the reply stream is left as it is.  No-op when durability
    /// is off.
    void take_snapshot();

    /// Guest value -> wire value; a string moves out of `v`.  Throws
    /// RuntimeError for references to objects that have no generated
    /// family (non-substitutable classes).
    net::MarshalledValue export_value(vm::Value&& v);

    /// Wire value -> guest value; a string moves out of `m`, and remote
    /// references become proxies speaking `protocol`.
    vm::Value import_value(net::MarshalledValue&& m, const std::string& protocol);

    /// Returns a guest reference to (node, oid) seen through `iface`
    /// ("X_O_Int"/"X_C_Int"): the raw object when local, a deduplicated
    /// proxy otherwise.
    vm::Value import_ref(net::NodeId node, std::uint64_t oid, const std::string& iface,
                         const std::string& protocol);

    /// The (node, oid) the proxy object `proxy` forwards to.
    std::pair<net::NodeId, vm::ObjId> proxy_target(vm::ObjId proxy);
    /// Re-points proxy `proxy` through the VM, so a durable node journals it.
    void set_proxy_target(vm::ObjId proxy, net::NodeId node, vm::ObjId oid);

    /// Local singleton bookkeeping for Discover handling; creates the
    /// singleton and runs clinit on first use.
    vm::Value local_singleton(const std::string& cls);
    /// This node's registered `cls` singleton; 0 when it holds none.
    vm::ObjId singleton(const std::string& cls) const;
    /// Registers `oid` as this node's `cls` singleton (a migrated or
    /// recovered instance) / forgets the registration; a durable node
    /// journals either, stamped `t_us`.
    void adopt_singleton(const std::string& cls, vm::ObjId oid, std::uint64_t t_us);
    void drop_singleton(const std::string& cls, std::uint64_t t_us);

    /// Raises a guest RemoteFault carrying `msg`.
    [[noreturn]] void throw_remote_fault(const std::string& msg);

    /// Re-raises a fault reply as a guest exception of the original class
    /// (falls back to Throwable when the class cannot be constructed).
    [[noreturn]] void rethrow_fault(const net::CallReply& reply);

private:
    friend class System;

    /// Pulls the guest-visible logical time (Sys.time) up to the clock.
    /// The clock is this node's alone: nothing else is told it moved.
    void clock_changed();

    // vm::MutationObserver — journals guest mutations into the WAL,
    // stamped with this node's virtual clock (stamps are informational;
    // replay never reads them back into the clock).
    void on_alloc(vm::ObjId id, const std::string& cls) override;
    void on_alloc_array(vm::ObjId id, const std::string& elem_desc,
                        std::size_t length) override;
    void on_field_put(vm::ObjId id, std::size_t slot, const vm::Value& v) override;
    void on_array_put(vm::ObjId id, std::size_t index, const vm::Value& v) override;
    void on_static_put(const std::string& cls, const std::string& field,
                       const vm::Value& v) override;
    void on_class_init(const std::string& cls) override;

    /// Bounded FIFO insert into the reply cache: evicts down to one below
    /// the policy's dedup_capacity, then appends.  Capacity 0 caches
    /// nothing, and a request id already cached keeps its first reply.
    void cache_reply(const net::CallReply& reply);
    /// Durable restart: decodes the durable image, wipes the VM and
    /// node state, then restores the pre-crash image from the decode.
    void recover_from_wal();
    /// Allocates `img`'s objects after this node's heap, in image order,
    /// and fills their fields with references shifted by the returned
    /// base (the heap size before the call: 0 on a restart's wiped heap).
    /// Appends the matching WAL records only when `journal` is set and
    /// this node is durable.
    vm::ObjId restore_objects(const WalImage& img, bool journal);

    System* system_;
    net::NodeId id_;
    vm::Interpreter interp_;
    std::uint64_t clock_us_ = 0;
    /// (origin node, origin oid, interface, protocol) -> local proxy object.
    std::map<WalImage::ImportKey, vm::ObjId> imported_;
    std::map<std::string, vm::ObjId> singletons_;
    /// Imported arguments of the requests being served, one buffer per
    /// nesting depth: the callee's guest code may call back into this
    /// node while an outer request is still being served.
    support::DepthStack<std::vector<vm::Value>> import_args_;
    /// Restarts already applied: the one memo of them (apply_restarts).
    std::uint64_t restarts_seen_ = 0;
    /// Pipeline mode: deferred success-path reply horizon (max arrival
    /// seen since the mode was turned on; drained by set_pipeline(false)).
    bool pipeline_ = false;
    std::uint64_t pipeline_horizon_us_ = 0;
    /// The reply cache; the whole durability layer once durable_ is set.
    Wal wal_;
    bool durable_ = false;
    std::uint64_t last_snapshot_us_ = 0;
};

}  // namespace rafda::runtime
