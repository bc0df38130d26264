#include "runtime/system.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_map>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "transform/local_binder.hpp"
#include "transform/naming.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {

namespace naming = transform::naming;
using vm::Value;

namespace {

constexpr const char* kRemoteFaultRir = R"(
special class RemoteFault extends Throwable {
  ctor (S)V {
    load 0
    load 1
    invokespecial Throwable.<init> (S)V
    return
  }
}
)";

model::ClassPool prepare_pool(const model::ClassPool& original) {
    model::ClassPool prepared;
    for (const model::ClassFile* cf : original.all()) prepared.add(*cf);
    vm::install_prelude(prepared);
    if (!prepared.contains(kRemoteFaultClass))
        model::assemble_into(prepared, kRemoteFaultRir);
    return prepared;
}

}  // namespace

System::System(const model::ClassPool& original, SystemOptions options)
    : original_(&original),
      prepared_(prepare_pool(original)),
      // metrics_ is declared before result_, so the pipeline can record
      // its phase timings (transform.*) into the system registry.
      result_(transform::run_pipeline(
          prepared_, [&] {
              transform::PipelineOptions po = options.pipeline;
              if (!po.metrics) po.metrics = &metrics_;
              return po;
          }())),
      network_(options.network_seed),
      rpc_(*this, result_.report.protocols(), options.reliability, options.batching,
           options.network_seed),
      locator_(*this),
      class_matrix_cap_(options.class_matrix_cap) {
    network_.set_default_link(options.default_link);
    network_.attach_metrics(&metrics_);
    network_.attach_journal(&journal_);
    // Every span names the node it runs on, and reads that node's clock.
    tracer_.set_clock([this](std::int32_t n) -> std::uint64_t {
        return n >= 0 ? node(n).clock_us() : 0;
    });
    // Log lines show the furthest any node's clock has run.  It is read
    // only when a line is printed; nothing decides on it (DESIGN.md §13).
    set_log_time_source(
        [this] {
            std::uint64_t t = 0;
            for (const auto& n : nodes_) t = std::max(t, n->clock_us());
            return static_cast<std::int64_t>(t);
        },
        this);
    migrations_counter_ = &metrics_.counter("runtime.migrations");
    migration_bytes_counter_ = &metrics_.counter("runtime.migration_bytes");
    chain_shortenings_counter_ = &metrics_.counter("runtime.chain_shortenings");
    chain_hops_removed_counter_ = &metrics_.counter("runtime.chain_hops_removed");
    // The read/write classifier judges ORIGINAL bytecode — the
    // pre-transformation truth about what each method touches.
    replicas_.configure(original_);
    durability_ = options.durability;
    if (durability_.enabled) enable_durability(durability_);
}

System::~System() { clear_log_time_source(this); }

void System::enable_method_profiling(bool on) {
    method_profiling_ = on;
    for (const auto& n : nodes_) n->interp().set_method_profiling(on);
}

Node& System::node(net::NodeId id) {
    if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size())
        throw RuntimeError("unknown node " + std::to_string(id));
    return *nodes_[static_cast<std::size_t>(id)];
}

Node& System::add_node() {
    auto owned = std::make_unique<Node>(*this, static_cast<net::NodeId>(nodes_.size()),
                                        result_.pool);
    Node& node = *owned;
    nodes_.push_back(std::move(owned));
    node.interp().attach_metrics(&metrics_, "vm.node" + std::to_string(node.id()));
    node.interp().set_method_profiling(method_profiling_);
    metrics_.register_probe("runtime.node" + std::to_string(node.id()) + ".clock_us",
                            [&node] { return static_cast<std::int64_t>(node.clock_us()); });
    wire_node(node);
    if (durability_.enabled) node.enable_durability();
    return node;
}

void System::enable_durability(DurabilityPolicy policy) {
    policy.enabled = true;
    durability_ = policy;
    // Each node's WAL binds wal.records/bytes/snapshots itself; the rest
    // are rare and looked up by name.
    for (const char* name : {"wal.records", "wal.bytes", "wal.snapshots", "wal.recoveries",
                             "wal.replayed_records", "wal.relocated_objects"})
        metrics_.counter(name);
    for (const auto& n : nodes_) n->enable_durability();
}

void System::observe_restarts(std::uint64_t t_us) {
    if (!durability_.enabled) return;
    const net::FaultPlan& plan = network_.fault_plan();
    if (plan.empty()) return;
    for (const auto& n : nodes_) n->apply_restarts(plan.restarts_before(n->id(), t_us));
}

void System::note_recovery(net::NodeId node_id, const Wal::ReplayResult& res,
                           std::uint64_t t_us) {
    // The node is alive again and its replay applied any Relocate records,
    // so it forwards for itself now — the relocation entry has served.
    locator_.node_restarted(node_id);
    if (durability_.enabled) {
        metrics_.counter("wal.recoveries").add();
        metrics_.counter("wal.replayed_records").add(res.records);
    }
    journal_.record(obs::JournalEvent::Kind::Recover, t_us, node_id, -1, res.records,
                    res.bytes, {});
}

void System::wire_node(Node& n) {
    const net::NodeId node_id = n.id();
    vm::Interpreter& interp = n.interp();

    for (const std::string& cls : result_.report.substituted_classes()) {
        const std::string o_int_desc = "L" + naming::o_int(cls) + ";";
        const std::string o_local = naming::o_local(cls);
        ClassTraffic* row = &traffic_[cls];
        // make()/discover() for a remote placement: one Create/Discover
        // round-trip, timed into rpc.latency.<cls>.{make,discover}.
        auto factory_call = [this, cls, node_id, row](net::RequestKind kind,
                                                      const Placement& p) {
            const bool create = kind == net::RequestKind::Create;
            obs::ScopedSpan span(
                tracer_, [&] { return (create ? "rpc.create " : "rpc.discover ") + cls; },
                node_id);
            net::CallRequest req;
            req.kind = kind;
            req.request_id = rpc_.next_request_id();
            req.src_node = node_id;
            req.cls = cls;
            req.stat_class = cls;
            return rpc_.remote_call(node(node_id), p.node, rpc_.protocol(p.protocol), req,
                                    latency_histogram(*row, cls, create ? "make" : "discover"));
        };

        // A_O_Factory.make(): the policy decides where the instance lives.
        interp.register_native(
            naming::o_factory(cls), "make", "()" + o_int_desc,
            [this, cls, node_id, o_local, factory_call](vm::Interpreter& vm, const Value&,
                                                        std::span<const Value>) {
                Placement p = locator_.instance_home(cls, node_id);
                if (p.node == node_id) return vm.construct(o_local, "()V", {});
                return factory_call(net::RequestKind::Create, p);
            });

        // A_C_Factory.discover(): singleton lookup with one-shot clinit.
        const std::string c_int_desc = "L" + naming::c_int(cls) + ";";
        interp.register_native(
            naming::c_factory(cls), "discover", "()" + c_int_desc,
            [this, cls, node_id, factory_call](vm::Interpreter&, const Value&,
                                               std::span<const Value>) {
                // With the sharded directory enabled the singleton home is
                // resolved through the owning shard (a modelled control
                // round-trip) instead of the free host-side policy oracle.
                Placement p = locator_.singleton_home(cls, node_id);
                if (p.node == node_id) {
                    // A raw local reference is about to escape the dispatch
                    // seam: the adaptation engine's replication gate needs
                    // to know (DESIGN.md §19), and existing replicas of a
                    // local primary must be conservatively invalidated.
                    if (adapt_ || replicas_.active())
                        note_local_discover(cls, node_id);
                    return node(node_id).local_singleton(cls);
                }
                return factory_call(net::RequestKind::Discover, p);
            });

        // Proxy dispatch: one class-level native per generated proxy class.
        // Each dispatcher caches its class's traffic-table edges (one
        // calls/bytes counter pair per remote target, one counter for
        // loopback) and, per proxied method, the descriptor string and
        // latency histogram — so the hot path never builds a descriptor or
        // a metric name.  Method entries are checked against the pool
        // generation, which a rewrite that could recycle a Method bumps.
        struct ProxyMethod {
            std::uint64_t gen = 0;
            std::string desc;
            obs::Histogram* latency = nullptr;
        };
        for (const std::string& proto_name : result_.report.protocols()) {
            Protocol* proto = &rpc_.protocol(proto_name);
            auto dispatch = [this, node_id, proto, cls, row,
                             edges = std::map<net::NodeId, EdgeTraffic>{},
                             methods = std::unordered_map<const model::Method*,
                                                          ProxyMethod>{},
                             local_counter = static_cast<obs::Counter*>(nullptr)](
                                vm::Interpreter& vm, const model::Method& m,
                                const Value& receiver,
                                std::span<const Value> args) mutable {
                Node& self = node(node_id);
                ProxyMethod& meth = methods[&m];
                if (meth.gen != vm.pool().generation()) {
                    meth.gen = vm.pool().generation();
                    meth.desc = m.descriptor();
                    meth.latency = nullptr;
                }
                // This depth's reused request: every field is set below,
                // and the argument vector keeps its capacity.
                const auto slot = rpc_.outgoing().lease();
                net::CallRequest& req = *slot;
                req.clear_unframed();
                req.kind = net::RequestKind::Invoke;
                req.request_id = rpc_.next_request_id();
                req.src_node = node_id;
                const auto [target_node, target_oid] = self.proxy_target(receiver.as_ref());
                req.target_oid = target_oid;
                req.cls.clear();
                req.method = m.name;
                req.desc = meth.desc;
                obs::ScopedSpan span(
                    tracer_, [&] { return "rpc.invoke " + cls + "." + m.name; }, node_id);
                tracer_.note("target_node", target_node);
                // Read-mostly replication (DESIGN.md §19): a node-local
                // copy of the target serves read-only methods without
                // touching the wire; anything else aimed at a replicated
                // primary invalidates every copy up front (conservative —
                // charged even if the write then faults), then proceeds on
                // the normal path.
                if (replicas_.active() &&
                    replicas_.has_replicas(target_node, req.target_oid)) {
                    if (replicas_.method_is_readonly(cls, m.name)) {
                        if (Replica* rep = replicas_.find(
                                target_node, req.target_oid, node_id)) {
                            if (!rep->valid)
                                refresh_replica(cls, target_node,
                                                req.target_oid, *rep);
                            adapt_replica_reads_->add();
                            return vm.call_virtual(Value::of_ref(rep->oid),
                                                   m.name, meth.desc,
                                                   {args.begin(), args.end()});
                        }
                    } else {
                        invalidate_replicas(target_node, req.target_oid, cls);
                    }
                }
                // Loopback: a proxy whose target lives on this node (e.g.
                // after shorten_chain collapsed a cycle) dispatches
                // directly, no wire involved.
                if (target_node == node_id) {
                    if (!local_counter)
                        local_counter =
                            &metrics_.counter("runtime.local_calls." + cls);
                    local_counter->add();
                    return vm.call_virtual(Value::of_ref(req.target_oid), m.name,
                                           meth.desc, {args.begin(), args.end()});
                }
                // Resolved through the matrix cap: past class_matrix_cap
                // distinct edges this is the overflow aggregate pair.
                EdgeTraffic& edge = edges[target_node];
                if (!edge.calls) edge = traffic_edge(*row, cls, node_id, target_node);
                edge.calls->add();
                if (!meth.latency) meth.latency = &latency_histogram(*row, cls, m.name);
                req.stat_class = cls;
                req.args.clear();
                for (const Value& a : args) req.args.push_back(self.export_value(a));
                return rpc_.remote_call(self, target_node, *proto, req, *meth.latency,
                                        edge.bytes);
            };
            interp.register_class_native(naming::o_proxy(cls, proto_name), dispatch);
            interp.register_class_native(naming::c_proxy(cls, proto_name), dispatch);
        }
    }
}

Value System::call_static(net::NodeId node_id, const std::string& cls,
                          const std::string& method, const std::string& desc,
                          std::vector<Value> args) {
    return transform::call_transformed_static(node(node_id).interp(), prepared_,
                                              result_.report, cls, method, desc,
                                              std::move(args));
}

Value System::construct(net::NodeId node_id, const std::string& cls,
                        const std::string& ctor_desc, std::vector<Value> args) {
    if (!result_.report.substituted(cls))
        return node(node_id).interp().construct(cls, ctor_desc, std::move(args));
    vm::Interpreter& interp = node(node_id).interp();
    Value obj =
        interp.call_static(naming::o_factory(cls), "make", "()L" + naming::o_int(cls) + ";");
    std::string mapped = result_.report.map_method_desc(prepared_, ctor_desc);
    // init takes the created object as the extra first parameter.
    std::string init_desc = "(L" + naming::o_int(cls) + ";" + mapped.substr(1);
    std::vector<Value> init_args;
    init_args.reserve(args.size() + 1);
    init_args.push_back(obj);
    for (Value& a : args) init_args.push_back(std::move(a));
    interp.call_static(naming::o_factory(cls), "init", init_desc, std::move(init_args));
    return obj;
}

vm::ObjId System::migrate_instance(net::NodeId from, vm::ObjId oid, net::NodeId to,
                                   const std::string& protocol) {
    const std::string proto = locator_.protocol(protocol);
    Node& f = node(from);
    Node& t = node(to);
    const std::string& cls_name = f.interp().class_of(oid).name;
    auto iface = naming::local_to_interface(cls_name);
    if (!iface)
        throw RuntimeError("can only migrate local implementations, not " + cls_name);

    obs::ScopedSpan span(tracer_, [&] { return "runtime.migrate " + cls_name; }, from);
    tracer_.note("from", from);
    tracer_.note("to", to);

    // Migration uses a reliable control channel: account the transfer cost
    // (an injected "drop" still draws from the PRNG and occupies the link,
    // but the move proceeds regardless).  It is a stop-the-world control
    // operation — the vacated slot and the policy tables are global state —
    // so it is a synchronization barrier at the landing time (DESIGN.md
    // §13), which is exactly the old global-clock behaviour.
    const ShippedState state = ship_state(f, oid, to, proto);
    barrier(state.landed.at_us);
    // Replicas of the moved object lose their provenance at the same
    // barrier — the primary no longer lives at (from, oid).
    if (replicas_.active()) replicas_.drop_primary(from, oid);
    const vm::ObjId new_oid = install_state(t, state, proto);

    // Swap the vacated slot for a proxy: local references on `from` now go
    // remote, and proxies elsewhere chain through it (Figure 1).
    const model::ClassFile& proxy_cls =
        result_.pool.get(naming::interface_to_proxy(*iface, proto));
    std::vector<Value> routing(2);
    routing[naming::kProxyNodeSlot] = Value::of_int(to);
    routing[naming::kProxyOidSlot] = Value::of_long(static_cast<std::int64_t>(new_oid));
    f.interp().heap().transmute(oid, proxy_cls, std::move(routing));
    // The transmute bypasses the VM's mutation paths (it is a runtime
    // substitution, not guest code), so the WAL must hear about it
    // explicitly or a recovered `from` would resurrect the migrated object.
    if (f.durable())
        f.wal()->append_transmute(f.clock_us(), oid, proxy_cls.name, to, new_oid);

    migrations_counter_->add();
    migration_bytes_counter_->add(state.bytes);
    locator_.object_moved(from, oid, to, new_oid);
    locator_.publish();
    journal_.record(obs::JournalEvent::Kind::Migrate, state.landed.at_us, from, to, oid,
                    new_oid, cls_name);
    log_info("runtime", "migrated ", cls_name, " (", from, ",", oid, ") -> (", to, ",",
             new_oid, ")");
    return new_oid;
}

void System::migrate_singleton(const std::string& cls, net::NodeId to,
                               const std::string& protocol) {
    const std::string proto = locator_.protocol(protocol);
    const net::NodeId from = locator_.singleton_node(cls);
    // The instance (if one exists yet) moves first: a state that cannot
    // ship throws before the placement names `to`, leaving both as they were.
    if (from != to) {
        Node& home = node(from);
        if (const vm::ObjId oid = home.singleton(cls)) {
            const vm::ObjId new_oid = migrate_instance(from, oid, to, proto);
            Node& tgt = node(to);
            tgt.adopt_singleton(cls, new_oid, tgt.clock_us());
            home.drop_singleton(cls, home.clock_us());
        }
    }
    locator_.singleton_moved(cls, to, proto);
    locator_.publish();
}

std::size_t System::recover_node_onto(net::NodeId crashed, net::NodeId target,
                                      const std::string& protocol) {
    if (crashed == target)
        throw RuntimeError("recover_node_onto: target is the crashed node itself");
    if (locator_.relocation_of(crashed)) return 0;  // already relocated this crash
    const std::string proto = locator_.protocol(protocol);
    Node& c = node(crashed);
    Node& t = node(target);
    if (!c.durable() || c.wal()->empty())
        throw RuntimeError("node " + std::to_string(crashed) +
                           " has no durable image to recover from");

    obs::ScopedSpan span(tracer_, "runtime.recover_onto", target);
    tracer_.note("crashed", crashed);

    // Decode the durable image offline — the crashed node itself is not
    // touched (it is down; its own in-memory state is dead anyway).  A
    // record naming an object the image never allocated throws here,
    // before the target is touched.  Statics and class-init marks are
    // per-address-space: the target's own <clinit> runs govern there.
    const Wal& wal = *c.wal();
    WalImage img;
    for (const Bytes* stream : {&wal.snapshot(), &wal.log(), &wal.replies()})
        Wal::replay(*stream, img);

    // Reading the image is a bulk transfer from the crashed node's stable
    // storage to the target: charged on the wire like a migration, and
    // like migration it is a stop-the-world control operation (DESIGN.md
    // §13 barrier).
    const std::size_t image_bytes =
        wal.snapshot().size() + wal.log().size() + wal.replies().size();
    net::Delivery landed =
        network_.transfer_at(crashed, target, image_bytes, t.clock_us());
    barrier(landed.at_us);

    // Every object lands after the target's heap, in image (arena) order:
    // old oid k becomes base + k.
    const vm::ObjId base = t.restore_objects(img, /*journal=*/true);
    std::map<vm::ObjId, vm::ObjId> remap;
    for (vm::ObjId old_oid = 1; old_oid <= img.objects.size(); ++old_oid) {
        remap.emplace_hint(remap.end(), old_oid, base + old_oid);
        if (replicas_.active()) replicas_.drop_primary(crashed, old_oid);
    }

    // Singleton registry: the recovered instances are the authoritative
    // singletons, and future discover() traffic goes to their new home.
    for (const auto& [cls, old_oid] : img.singletons) {
        t.adopt_singleton(cls, base + old_oid, t.clock_us());
        locator_.singleton_moved(cls, target, proto);
    }

    // Imported-proxy table: the copies of the crashed node's proxies keep
    // deduplicating against the same origin keys on the target (existing
    // target entries win — they already point at live local proxies).
    for (const auto& [key, local_oid] : img.imports) {
        const auto& [origin_node, origin_oid, iface, ip] = key;
        if (t.imported_.emplace(key, base + local_oid).second && t.durable())
            t.wal()->append_proxy_import(t.clock_us(), origin_node, origin_oid, iface, ip,
                                         base + local_oid);
    }

    // Reply cache, FIFO order: retried requests the crashed node already
    // executed keep deduplicating — exactly-once survives the node's
    // death, not just its restart.  Replies that exported crashed-local
    // references are remapped to the objects' new home.
    for (auto& [rid, reply] : img.replies) {
        if (reply.result.tag == net::ValueTag::Ref &&
            reply.result.ref_node == crashed) {
            const auto it = remap.find(reply.result.ref_oid);
            if (it != remap.end()) {
                reply.result.ref_node = target;
                reply.result.ref_oid = it->second;
            }
        }
        t.cache_reply(reply);
    }

    // Relocation records into the *crashed* node's own WAL: when it
    // eventually restarts, replay transmutes every moved slot into a proxy
    // to the new home — the recovery analogue of migrate_instance's
    // vacated-slot substitution, and relocations chain exactly like
    // migrations do.  Non-substitutable classes (and arrays) have no proxy
    // family, and no external references either; the restarted node keeps
    // its local copy of those.
    std::size_t relocated = 0;
    std::map<vm::ObjId, std::string> singleton_of;
    for (const auto& [cls, old_oid] : img.singletons) singleton_of[old_oid] = cls;
    for (std::size_t i = 0; i < img.objects.size(); ++i) {
        const WalImage::Object& o = img.objects[i];
        const vm::ObjId old_oid = static_cast<vm::ObjId>(i + 1);
        if (o.is_array || naming::parse_proxy(o.cls)) continue;
        auto iface = naming::local_to_interface(o.cls);
        if (!iface) continue;
        c.wal()->append_relocate(landed.at_us, old_oid,
                                 naming::interface_to_proxy(*iface, proto), target,
                                 base + old_oid);
        // A relocated singleton is no longer this node's: the drop record
        // makes the restart replay erase the registration, as after
        // migrate_singleton.
        const auto sit = singleton_of.find(old_oid);
        if (sit != singleton_of.end()) c.drop_singleton(sit->second, landed.at_us);
        locator_.object_moved(crashed, old_oid, target, base + old_oid);
        ++relocated;
    }

    // Live proxies elsewhere still aim at the dead node; repoint them at
    // the new home (set_field runs the owner's own observer, so durable
    // peers journal the repoint themselves).
    for (const auto& n : nodes_) {
        if (n->id() == crashed) continue;
        const vm::Heap& heap = n->interp().heap();
        for (vm::ObjId id = 1; id <= heap.size(); ++id) {
            const vm::Object& o = heap.get(id);
            if (o.is_array || !o.cls || !naming::parse_proxy(o.cls->name)) continue;
            const auto [to_node, old_oid] = n->proxy_target(id);
            if (to_node != crashed) continue;
            const auto it = remap.find(old_oid);
            if (it == remap.end()) continue;
            n->set_proxy_target(id, target, it->second);
        }
    }

    locator_.publish();
    if (durability_.enabled) metrics_.counter("wal.relocated_objects").add(relocated);
    journal_.record(obs::JournalEvent::Kind::Recover, landed.at_us, crashed, target,
                    img.objects.size(), image_bytes, {});
    log_info("runtime", "recovered node ", crashed, " onto ", target, ": ",
             img.objects.size(), " objects (", relocated, " relocated, ",
             img.replies.size(), " cached replies) from a ", image_bytes,
             "-byte durable image");
    locator_.node_relocated(crashed, Relocation{target, std::move(remap)});
    return img.objects.size();
}

void System::enable_adaptation(AdaptPolicy policy) {
    policy.enabled = true;
    ensure_replica_counters();
    adapt_ = std::make_unique<AdaptationEngine>(*this, policy);
}

std::pair<net::NodeId, vm::ObjId> System::find_singleton(const std::string& cls) {
    const net::NodeId home = locator_.singleton_node(cls);
    const vm::ObjId oid =
        static_cast<std::size_t>(home) < nodes_.size() ? node(home).singleton(cls) : 0;
    if (!oid) return {-1, 0};
    return {home, oid};
}

void System::ensure_replica_counters() {
    if (adapt_invalidations_) return;
    adapt_invalidations_ = &metrics_.counter("adapt.invalidations");
    adapt_replica_reads_ = &metrics_.counter("adapt.replica_reads");
    adapt_replica_refreshes_ = &metrics_.counter("adapt.replica_refreshes");
}

vm::ObjId System::create_replica(net::NodeId primary, vm::ObjId oid,
                                 const std::string& cls, net::NodeId reader) {
    if (primary == reader)
        throw RuntimeError("replica reader is the primary's own node");
    ensure_replica_counters();
    Node& r = node(reader);
    const std::string proto = locator_.protocol();
    // Reliable control channel, like migration — but NOT a barrier: only
    // the reader learns (its clock reconciles to the landing).
    const ShippedState state = ship_state(node(primary), oid, reader, proto);
    r.reconcile_clock(state.landed.at_us);
    const vm::ObjId copy = install_state(r, state, proto);
    replicas_.put(primary, oid, cls, Replica{reader, copy, true});
    log_info("runtime", "replicated ", cls, " (", primary, ",", oid, ") -> node ",
             reader);
    return copy;
}

void System::refresh_replica(const std::string& cls, net::NodeId primary,
                             vm::ObjId oid, Replica& r) {
    ensure_replica_counters();
    Node& reader = node(r.node);
    const std::string proto = locator_.protocol();
    const ShippedState state = ship_state(node(primary), oid, r.node, proto);
    reader.reconcile_clock(state.landed.at_us);
    install_state(reader, state, proto, r.oid);
    r.valid = true;
    adapt_replica_refreshes_->add();
    journal_.record(obs::JournalEvent::Kind::Adapt, state.landed.at_us, primary, r.node,
                    4, state.bytes, cls);
}

System::ShippedState System::ship_state(Node& from, vm::ObjId oid, net::NodeId to,
                                        const std::string& proto) {
    ShippedState s;
    s.cls = &from.interp().class_of(oid).name;
    s.layout = &result_.pool.layout_of(*s.cls);
    net::CallRequest msg;  // marshalled state; encoded for wire-size accounting
    msg.kind = net::RequestKind::Create;
    msg.request_id = rpc_.next_request_id();
    msg.src_node = from.id();
    msg.cls = *s.cls;
    for (const model::FieldSlot& slot : s.layout->slots)
        msg.args.push_back(from.export_value(from.interp().get_field(oid, slot.name)));
    s.bytes = rpc_.protocol(proto).codec->encode_request(msg).size();
    s.landed = network_.transfer_at(from.id(), to, s.bytes, from.clock_us());
    s.fields = std::move(msg.args);
    return s;
}

vm::ObjId System::install_state(Node& to, const ShippedState& s,
                                const std::string& proto, vm::ObjId into) {
    if (!into) into = to.interp().allocate(*s.cls);
    for (std::size_t k = 0; k < s.layout->slots.size(); ++k)
        to.interp().set_field(into, s.layout->slots[k].name,
                              to.import_value(s.fields[k], proto));
    return into;
}

void System::barrier(std::uint64_t t_us) {
    for (const auto& n : nodes_) n->reconcile_clock(t_us);
    // The barrier also quiesces the wire model: a batch lane still marked
    // joinable refers to a frame opened before the control operation, and
    // a later call must never coalesce onto a frame addressed to an old
    // home (§17 composed with migration; regression-tested).
    rpc_.close_batch_lanes();
}

void System::invalidate_replicas(net::NodeId primary, vm::ObjId oid,
                                 const std::string& cls) {
    const std::vector<Replica*> flipped = replicas_.invalidate(primary, oid);
    if (flipped.empty()) return;
    ensure_replica_counters();
    Node& p = node(primary);

    // Write-invalidate routes through the shard owning the object's
    // directory entry when the directory is on; the writer is not stalled
    // (invalidations are asynchronous control messages), but each
    // recipient reconciles to the arrival — it processed the message.
    net::NodeId origin = primary;
    std::uint64_t origin_clock = p.clock_us();
    const net::NodeId owner = locator_.entry_owner(primary, oid);
    if (owner != primary) {
        net::Delivery hop =
            network_.transfer_at(primary, owner, kDirectoryLookupBytes, origin_clock);
        node(owner).reconcile_clock(hop.at_us);
        origin = owner;
        origin_clock = node(owner).clock_us();
    }
    std::uint64_t last_t = origin_clock;
    for (Replica* rep : flipped) {
        if (rep->node == origin) continue;  // colocated with the origin
        net::Delivery d =
            network_.transfer_at(origin, rep->node, kDirectoryLookupBytes, origin_clock);
        node(rep->node).reconcile_clock(d.at_us);
        last_t = d.at_us;
    }
    adapt_invalidations_->add(flipped.size());
    journal_.record(obs::JournalEvent::Kind::Adapt, last_t, primary, -1, 3, flipped.size(),
                    cls);
}

void System::note_local_discover(const std::string& cls, net::NodeId node_id) {
    obs::Counter*& local = traffic_[cls].local_discovers;
    if (!local) local = &metrics_.counter("runtime.local_discovers." + cls);
    local->add();
    if (!replicas_.active()) return;
    // A raw local reference just escaped the dispatch seam on this node;
    // conservatively assume the holder may write through it.
    for (const auto& [pn, poid] : replicas_.primaries_of_class(cls))
        if (pn == node_id) invalidate_replicas(pn, poid, cls);
}

std::size_t System::migrate_closure(net::NodeId from, vm::ObjId oid, net::NodeId to,
                                    const std::string& protocol) {
    Node& f = node(from);
    // Collect the local-implementation closure via BFS over reference
    // fields.  Proxies and the prelude's non-substitutable objects are
    // boundaries: they stay behind (references to them re-proxy normally).
    std::vector<vm::ObjId> order;
    std::set<vm::ObjId> seen;
    std::vector<vm::ObjId> work{oid};
    while (!work.empty()) {
        vm::ObjId cur = work.back();
        work.pop_back();
        if (!seen.insert(cur).second) continue;
        const std::string& cls = f.interp().class_of(cur).name;
        if (!naming::local_to_interface(cls)) continue;  // proxy or raw: boundary
        order.push_back(cur);
        const model::Layout& layout = result_.pool.layout_of(cls);
        for (const model::FieldSlot& slot : layout.slots) {
            if (!slot.type.is_ref()) continue;
            Value v = f.interp().get_field(cur, slot.name);
            if (v.is_ref()) work.push_back(v.as_ref());
        }
    }
    if (order.empty())
        throw RuntimeError("migrate_closure root is not a local implementation");

    // Migrate every member; intra-cluster references heal themselves: when
    // a later member moves, earlier members' proxies back to `from` chain
    // through the transmuted slot.  To keep the cluster truly co-located we
    // migrate members first, then collapse the chains the moves created.
    std::vector<vm::ObjId> new_oids;
    new_oids.reserve(order.size());
    for (vm::ObjId member : order)
        new_oids.push_back(migrate_instance(from, member, to, protocol));

    // Fix-up: fields of the moved copies that point back at `from`-side
    // slots which are now proxies into this same cluster are re-pointed
    // locally on `to`.
    Node& t = node(to);
    for (vm::ObjId moved : new_oids) {
        const std::string& cls = t.interp().class_of(moved).name;
        const model::Layout& layout = result_.pool.layout_of(cls);
        for (const model::FieldSlot& slot : layout.slots) {
            if (!slot.type.is_ref()) continue;
            Value v = t.interp().get_field(moved, slot.name);
            if (!v.is_ref()) continue;
            const std::string& vcls = t.interp().class_of(v.as_ref()).name;
            if (!naming::parse_proxy(vcls)) continue;
            const auto [via_node, via_oid] = t.proxy_target(v.as_ref());
            auto [term_node, term_oid] = resolve_terminal(via_node, via_oid);
            if (term_node == to)
                t.interp().set_field(moved, slot.name, Value::of_ref(term_oid));
        }
    }
    return order.size();
}

std::pair<net::NodeId, vm::ObjId> System::resolve_terminal(net::NodeId node_id,
                                                           vm::ObjId oid, int* hops) {
    // Cycle guard: a chain can visit each (node, oid) at most once.
    std::set<std::pair<net::NodeId, vm::ObjId>> seen;
    while (true) {
        if (!seen.insert({node_id, oid}).second)
            throw RuntimeError("proxy chain cycle at node " + std::to_string(node_id));
        Node& n = node(node_id);
        if (!naming::parse_proxy(n.interp().class_of(oid).name)) return {node_id, oid};
        std::tie(node_id, oid) = n.proxy_target(oid);
        if (hops) ++*hops;
    }
}

int System::shorten_chain(net::NodeId node_id, vm::ObjId oid) {
    Node& n = node(node_id);
    if (!naming::parse_proxy(n.interp().class_of(oid).name)) return 0;
    // Every proxy past this one is an intermediate hop being bypassed.
    const auto [first_node, first_oid] = n.proxy_target(oid);
    int hops = 0;
    const auto [term_node, term_oid] = resolve_terminal(first_node, first_oid, &hops);
    if (hops == 0) return 0;
    n.set_proxy_target(oid, term_node, term_oid);
    chain_shortenings_counter_->add();
    chain_hops_removed_counter_->add(static_cast<std::uint64_t>(hops));
    return hops;
}

EdgeTraffic System::traffic_edge(ClassTraffic& row, const std::string& cls,
                                 net::NodeId src, net::NodeId dst) {
    const auto it = row.edges.find({src, dst});
    if (it != row.edges.end()) return it->second;
    if (class_matrix_cap_ != 0 && matrix_edges_ >= class_matrix_cap_) {
        if (!matrix_overflow_.calls) {
            // The aggregate bucket: traffic past the cap is exactly
            // accounted here, just without per-edge attribution (and
            // without a table edge).
            matrix_overflow_ = {&metrics_.counter("rpc.class_calls.overflow"),
                                &metrics_.counter("rpc.class_bytes.overflow")};
            matrix_overflow_entries_ =
                &metrics_.counter("rpc.class_matrix.overflow_entries");
        }
        matrix_overflow_entries_->add();
        return matrix_overflow_;
    }
    ++matrix_edges_;
    const std::string key = cls + "." + std::to_string(src) + "." + std::to_string(dst);
    return row.edges[{src, dst}] = {&metrics_.counter("rpc.class_calls." + key),
                                    &metrics_.counter("rpc.class_bytes." + key)};
}

obs::Histogram& System::latency_histogram(ClassTraffic& row, const std::string& cls,
                                          const std::string& method) {
    obs::Histogram*& h = row.latency[method];
    if (!h) h = &metrics_.histogram("rpc.latency." + cls + "." + method);
    return *h;
}

std::uint64_t System::migrations() const noexcept {
    return migrations_counter_ ? migrations_counter_->value() : 0;
}

void System::reset_stats() {
    metrics_.reset();
    tracer_.clear();
    network_.reset_stats();
    // The journal's observation window starts at the utilization epoch
    // the network just set: both describe "since the reset", so timeline
    // events and windowed rates stay comparable (DESIGN.md §16).
    journal_.rebase(network_.stats_epoch_us());
    // The adaptation windows are deltas of the counters just zeroed.
    if (adapt_) adapt_->rebase();
}

}  // namespace rafda::runtime
