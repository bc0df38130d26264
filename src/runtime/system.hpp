// System — the RAFDA middleware instance: transformed program, nodes,
// simulated network, protocol codecs, distribution policy, and dynamic
// redistribution.
//
// Construction runs the transformation pipeline on the original program
// (adding the prelude and the RemoteFault class first), then nodes are
// added and wired: every node gets policy-driven bindings for each
// A_O_Factory.make / A_C_Factory.discover, and a marshalling dispatcher
// behind every generated proxy class.  Because all code paths go through
// the extracted interfaces, moving an object is a heap transmute plus a
// remote copy — reference holders never notice (Figure 1).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/adapt.hpp"
#include "runtime/locator.hpp"
#include "runtime/node.hpp"
#include "runtime/reliable.hpp"
#include "runtime/replica.hpp"
#include "runtime/rpc_path.hpp"
#include "transform/pipeline.hpp"

namespace rafda::runtime {

struct SystemOptions {
    transform::PipelineOptions pipeline;
    net::LinkParams default_link;
    std::uint64_t network_seed = 1;
    /// Reliability knobs for the RPC path (defaults = legacy
    /// at-most-once: one attempt, no dedup, no breaker).
    RetryPolicy reliability;
    /// Per-link call batching (default off = per-frame wire schedule).
    BatchPolicy batching;
    /// Bound on materialized per-(class, src, dst) traffic-matrix entries
    /// (each entry is a calls + bytes counter pair).  Beyond the cap new
    /// edges account into the `rpc.class_calls.overflow` /
    /// `rpc.class_bytes.overflow` aggregates instead of materializing —
    /// exact totals, bounded memory at hundreds of nodes.  0 = unbounded.
    std::size_t class_matrix_cap = 1024;
    /// Per-node durability (WAL + snapshots, DESIGN.md §20).  Off by
    /// default: no observer, no log, legacy runs byte-identical.
    DurabilityPolicy durability;
};

/// One traffic-matrix edge: the registry counters behind
/// `rpc.class_calls.<cls>.<src>.<dst>` and `rpc.class_bytes.<cls>.<src>.<dst>`.
struct EdgeTraffic {
    obs::Counter* calls = nullptr;
    obs::Counter* bytes = nullptr;
};

/// One class's row of the typed traffic table (DESIGN.md §10): the
/// registry handles the dispatch path bumps, keyed the way readers want
/// them, so the adaptation engine and the benches never parse metric
/// names.  Handles are resolved on first use and survive
/// System::reset_stats (the values are zeroed in place).
struct ClassTraffic {
    /// Materialized (src, dst) edges.  At most SystemOptions::
    /// class_matrix_cap edges exist across all classes; traffic on later
    /// edges counts only into the overflow aggregates.
    std::map<std::pair<net::NodeId, net::NodeId>, EdgeTraffic> edges;
    /// `rpc.latency.<cls>.<method>`, including the `make` and `discover`
    /// control operations.
    std::map<std::string, obs::Histogram*> latency;
    /// `runtime.local_discovers.<cls>`; null until the first local discover.
    obs::Counter* local_discovers = nullptr;
};
using TrafficTable = std::map<std::string, ClassTraffic>;

/// Name of the guest throwable raised when the network loses a message.
inline constexpr const char* kRemoteFaultClass = "RemoteFault";

class System {
public:
    /// Transforms `original` (a verified pool; the prelude and RemoteFault
    /// are added to a copy if missing) and prepares an empty node set.
    /// `original` must outlive the System.
    explicit System(const model::ClassPool& original, SystemOptions options = {});
    ~System();

    /// Adds a node; node ids are assigned 0, 1, 2, ...
    Node& add_node();
    Node& node(net::NodeId id);
    std::size_t node_count() const noexcept { return nodes_.size(); }

    net::SimNetwork& network() noexcept { return network_; }
    DistributionPolicy& policy() noexcept { return locator_.policy(); }

    /// Enables the sharded object directory (DESIGN.md §18): singleton
    /// discover() and object-relocation lookups route to the shard node
    /// owning the key on a consistent-hash ring instead of resolving
    /// through the host-side policy oracle for free.  Shard owners are the
    /// first `policy.shards` node ids (0 = every node owns a shard); call
    /// after the nodes exist and before driving traffic.  Off by default —
    /// legacy runs stay byte-identical.
    void enable_directory(DirectoryPolicy policy = {}) { locator_.enable_directory(policy); }
    ShardedDirectory& directory() noexcept { return locator_.directory(); }

    /// Directory-backed object resolution: `asker` queries the shard that
    /// owns (node, oid)'s relocation entry (a control round-trip in
    /// virtual time unless asker owns the shard) and receives the terminal
    /// location recorded by past migrations.  The directory analogue of
    /// resolve_terminal, which walks the actual proxy chain instead.
    std::pair<net::NodeId, vm::ObjId> directory_resolve(net::NodeId asker,
                                                        net::NodeId node, vm::ObjId oid) {
        return locator_.resolve(asker, node, oid);
    }

    /// The process-wide measurement substrate: every counter the runtime,
    /// network and VMs maintain lives here (DESIGN.md "Observability").
    obs::Registry& metrics() noexcept { return metrics_; }
    const obs::Registry& metrics() const noexcept { return metrics_; }

    /// Span tracer for cross-node RPC traces.  Disabled by default; enable
    /// with `tracer().set_enabled(true)` before driving traffic.
    obs::Tracer& tracer() noexcept { return tracer_; }
    const obs::Tracer& tracer() const noexcept { return tracer_; }

    /// Flight recorder (DESIGN.md §16): a bounded ring of virtual-time-
    /// stamped events covering the RPC lifecycle, retries, breaker
    /// transitions, fault-window edges, dedup hits and migrations.
    /// Disabled by default; enable with `journal().set_enabled(true)`.
    /// Recording is passive — enabling it cannot perturb a seeded run.
    obs::Journal& journal() noexcept { return journal_; }
    const obs::Journal& journal() const noexcept { return journal_; }

    /// Closed-loop adaptation (DESIGN.md §19): installs the
    /// AdaptationEngine with `policy` (enabled is forced on).  The
    /// WorkloadDriver ticks it once per heartbeat event, at the event's
    /// time; outside a driver, call adaptation()->tick(t) with the clock
    /// the caller decides at.  Off by default: a run that never calls this
    /// is byte-identical to one built before the engine existed.
    void enable_adaptation(AdaptPolicy policy = {});
    bool adaptation_enabled() const noexcept { return adapt_ != nullptr; }
    AdaptationEngine* adaptation() noexcept { return adapt_.get(); }
    const AdaptationEngine* adaptation() const noexcept { return adapt_.get(); }

    /// Durability (DESIGN.md §20): every node — present and future — gets
    /// a write-ahead log with periodic snapshots and the wal.* counters
    /// are registered, so a crashed node recovers its pre-crash heap and reply cache on
    /// restart instead of shedding them (exactly-once becomes durable).
    /// `enabled` is forced on.  Off by default: a run that never calls
    /// this is byte-identical to one built before the WAL existed.
    void enable_durability(DurabilityPolicy policy = {});
    bool durability_enabled() const noexcept { return durability_.enabled; }
    const DurabilityPolicy& durability() const noexcept { return durability_; }

    /// Pull-based restart sweep for drivers (no-op when durability is
    /// off): restarts every node whose crash window ended by `t_us`, the
    /// driver's event time, so a node recovers promptly even when no
    /// request lands on it (the RPC path only detects restarts on arrival).
    void observe_restarts(std::uint64_t t_us);

    /// Journals a completed node recovery and bumps wal.recoveries /
    /// wal.replayed_records; called by Node after a WAL replay.
    void note_recovery(net::NodeId node, const Wal::ReplayResult& res,
                       std::uint64_t t_us);

    /// Migration-by-recovery (DESIGN.md §20): rebuilds crashed node
    /// `crashed`'s durable image — every heap object, its singleton
    /// registry and its reply cache — onto live node `target`, repoints
    /// directory shards and live proxies, and appends Relocate records to
    /// the crashed node's own WAL so its eventual restart transmutes the
    /// moved slots into proxies (chained relocations preserved).  Gives
    /// the adaptation engine a defer-free path around crash windows.
    /// Idempotent per crash: if the image was already relocated since the
    /// node's last restart, nothing is re-materialized (0 is returned);
    /// relocation_of() says where everything went.  Returns the number of
    /// objects restored.
    std::size_t recover_node_onto(net::NodeId crashed, net::NodeId target,
                                  const std::string& protocol = "");

    using Relocation = runtime::Relocation;
    /// Non-null while `crashed`'s image has been relocated and the node
    /// has not yet restarted (a restart replays the Relocate records and
    /// clears this — the node is then a live forwarder again).
    const Relocation* relocation_of(net::NodeId crashed) const {
        return locator_.relocation_of(crashed);
    }

    /// Actual home of the instantiated `cls` singleton: the registry of
    /// the node its placement names.  {-1, 0} when never discovered.
    std::pair<net::NodeId, vm::ObjId> find_singleton(const std::string& cls);

    /// Installs a node-local read replica of the object at (primary, oid)
    /// — original class `cls` — on `reader`: state is marshalled and
    /// charged as a real transfer primary -> reader, then materialized as
    /// a copy the dispatch path serves read-only methods from
    /// (DESIGN.md §19).  Unlike migration this is not a barrier: only the
    /// reader's clock reconciles.  Returns the copy's object id.
    vm::ObjId create_replica(net::NodeId primary, vm::ObjId oid,
                             const std::string& cls, net::NodeId reader);

    /// Replication state (inspectable; mutate via create_replica and the
    /// write-invalidate path, not directly).
    ReplicaManager& replicas() noexcept { return replicas_; }
    const ReplicaManager& replicas() const noexcept { return replicas_; }

    /// Turns per-method instruction histograms on/off in every node's VM
    /// (`vm.node<N>.method_instr.<Cls>.<method>`); applies to nodes added
    /// later too.
    void enable_method_profiling(bool on = true);

    const transform::TransformReport& report() const noexcept { return result_.report; }
    const model::ClassPool& transformed_pool() const noexcept { return result_.pool; }
    const model::ClassPool& original_pool() const noexcept { return *original_; }

    /// Calls an original static entry point on `node` through the
    /// transformed program (discover + interface call).
    vm::Value call_static(net::NodeId node, const std::string& cls,
                          const std::string& method, const std::string& desc,
                          std::vector<vm::Value> args = {});

    /// Constructs an instance of original class `cls` on `node` through the
    /// factory seam (make + init); returns the guest reference on `node`.
    vm::Value construct(net::NodeId node, const std::string& cls,
                        const std::string& ctor_desc, std::vector<vm::Value> args = {});

    /// Moves the object `oid` (which must be an A_O_Local on `from`) to
    /// node `to`; the vacated heap slot becomes a proxy so every existing
    /// reference — local and remote — now reaches the moved object.
    /// Returns the object id on `to`.
    vm::ObjId migrate_instance(net::NodeId from, vm::ObjId oid, net::NodeId to,
                               const std::string& protocol = "");

    /// Moves the static-members singleton of `cls` from its current home to
    /// node `to` and updates the policy so future discover() calls go there.
    /// The state ships first: when it cannot (it holds an array), this
    /// throws with the instance and the placement both unchanged.
    void migrate_singleton(const std::string& cls, net::NodeId to,
                           const std::string& protocol = "");

    /// Moves the object at (from, oid) together with every local
    /// implementation object reachable from it through reference fields on
    /// `from` (the transitive closure stops at proxies and at non-local
    /// values).  Chatty object clusters migrate as one unit instead of
    /// leaving a web of cross-node references.  Returns the number of
    /// objects moved.
    std::size_t migrate_closure(net::NodeId from, vm::ObjId oid, net::NodeId to,
                                const std::string& protocol = "");

    /// Follows the proxy chain starting at (node, oid) — as left behind by
    /// repeated migrations — to the terminal implementation object.
    /// Returns {node, oid}; identity if the slot holds a local object.
    /// `hops`, when given, is incremented once per proxy traversed.
    std::pair<net::NodeId, vm::ObjId> resolve_terminal(net::NodeId node, vm::ObjId oid,
                                                       int* hops = nullptr);

    /// Re-points the proxy at (node, oid) directly at its terminal
    /// location, collapsing the forwarding chain (a control-plane
    /// optimisation; E2 measures the chains it removes).  Returns the
    /// number of hops eliminated (0 if already direct or not a proxy).
    int shorten_chain(net::NodeId node, vm::ObjId oid);

    /// The typed per-class traffic table: a row for every substituted
    /// class once a node is wired, whether or not it saw traffic.
    const TrafficTable& traffic() const noexcept { return traffic_; }

    using RpcTotals = runtime::RpcTotals;
    RpcTotals rpc_totals() const { return rpc_.totals(); }
    std::uint64_t migrations() const noexcept;
    void reset_stats();

    /// The client half of every remote call: protocol table, reliable
    /// call loop, batch lanes, breakers and the rpc.* counters.
    RpcPath& rpc_path() noexcept { return rpc_; }
    using Dropped = RpcPath::Dropped;

    /// The pooled message-buffer arena the RPC path encodes into; exposed
    /// for tests and the rpc.pool.* probes.
    const support::BufferPool& buffer_pool() const noexcept { return rpc_.buffer_pool(); }

private:
    /// Resolves the {calls, bytes} counter pair for one traffic-matrix
    /// edge of `row`, enforcing SystemOptions::class_matrix_cap: the first
    /// `cap` distinct (class, src, dst) edges materialize named counters
    /// and table edges, later ones account into the overflow aggregates
    /// (nothing is dropped — `rpc.class_matrix.overflow_entries` counts
    /// redirected resolutions).
    EdgeTraffic traffic_edge(ClassTraffic& row, const std::string& cls, net::NodeId src,
                             net::NodeId dst);
    /// `rpc.latency.<cls>.<method>`, entered into `row` on first use.
    obs::Histogram& latency_histogram(ClassTraffic& row, const std::string& cls,
                                      const std::string& method);

    void wire_node(Node& node);
    /// An object's field state in flight over the reliable control channel
    /// (migration, replica creation and refresh).
    struct ShippedState {
        const std::string* cls = nullptr;  // implementation class
        const model::Layout* layout = nullptr;
        std::vector<net::MarshalledValue> fields;  // one per layout slot
        std::size_t bytes = 0;                     // encoded wire size
        net::Delivery landed;
    };
    /// Marshals (from, oid)'s fields, encodes them as a Create message and
    /// charges the transfer from `from`'s clock to `to`.  The caller
    /// decides who reconciles to the landing time.
    ShippedState ship_state(Node& from, vm::ObjId oid, net::NodeId to,
                            const std::string& proto);
    /// Imports shipped state into object `into` on `to` (0 = a fresh
    /// instance of the shipped class); returns the object id.  The fields
    /// move into the object, so `s.fields` is spent afterwards.
    vm::ObjId install_state(Node& to, ShippedState& s, const std::string& proto,
                            vm::ObjId into = 0);
    /// Stop-the-world control barrier (DESIGN.md §13): every node
    /// reconciles to `t_us` and no batch lane stays joinable.
    void barrier(std::uint64_t t_us);

    /// Write-invalidate (DESIGN.md §19): marks every copy of the primary
    /// stale and charges one control message per freshly invalidated copy
    /// — through the owning directory shard when the directory is on,
    /// directly otherwise.  Already-stale copies cost nothing.
    void invalidate_replicas(net::NodeId primary, vm::ObjId oid,
                             const std::string& cls);
    /// Re-copies the primary's state into a stale replica (charged as a
    /// primary -> reader transfer) and marks it valid.
    void refresh_replica(const std::string& cls, net::NodeId primary,
                         vm::ObjId oid, Replica& r);
    /// Local singleton access the dispatch seam cannot see: counted for
    /// the engine's replication gate, and conservatively invalidates any
    /// replicas whose primary lives on `node_id` (the local caller may be
    /// about to write through its raw reference).
    void note_local_discover(const std::string& cls, net::NodeId node_id);
    void ensure_replica_counters();

    // The registry, tracer and journal are declared first so they outlive
    // the nodes (interpreter destructors deregister their probes) and the
    // network (which holds cached counter and journal handles).
    obs::Registry metrics_;
    obs::Tracer tracer_;
    obs::Journal journal_;
    const model::ClassPool* original_;
    model::ClassPool prepared_;  // original + prelude + RemoteFault
    transform::PipelineResult result_;
    net::SimNetwork network_;
    RpcPath rpc_;
    /// Every placement fact: policy homes, directory, relocations.
    Locator locator_;
    /// The typed traffic table, the number of edges it materialized
    /// (bounded by class_matrix_cap) and the overflow aggregates beyond.
    TrafficTable traffic_;
    std::size_t matrix_edges_ = 0;
    EdgeTraffic matrix_overflow_;
    obs::Counter* matrix_overflow_entries_ = nullptr;
    std::vector<std::unique_ptr<Node>> nodes_;
    obs::Counter* migrations_counter_ = nullptr;
    obs::Counter* migration_bytes_counter_ = nullptr;
    obs::Counter* chain_shortenings_counter_ = nullptr;
    obs::Counter* chain_hops_removed_counter_ = nullptr;
    bool method_profiling_ = false;
    std::size_t class_matrix_cap_ = 1024;
    /// Closed-loop adaptation (DESIGN.md §19).  The engine is only
    /// constructed by enable_adaptation(); the replica registry is always
    /// present but costs one empty-map check until the first replica.
    std::unique_ptr<AdaptationEngine> adapt_;
    ReplicaManager replicas_;
    obs::Counter* adapt_invalidations_ = nullptr;
    obs::Counter* adapt_replica_reads_ = nullptr;
    obs::Counter* adapt_replica_refreshes_ = nullptr;
    /// Durability (DESIGN.md §20).  Counters exist only once
    /// enable_durability ran — the off state registers nothing.
    DurabilityPolicy durability_;
};

}  // namespace rafda::runtime
