#include "runtime/node.hpp"

#include "runtime/system.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "transform/naming.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {

using transform::naming::interface_to_proxy;
using transform::naming::kProxyNodeField;
using transform::naming::kProxyNodeSlot;
using transform::naming::kProxyOidField;
using transform::naming::kProxyOidSlot;
using vm::Value;

Node::Node(System& system, net::NodeId id, const model::ClassPool& pool)
    : system_(&system), id_(id), interp_(pool) {
    vm::bind_prelude_natives(interp_);
}

void Node::advance_clock(std::uint64_t us) {
    if (!us) return;
    clock_us_ += us;
    clock_changed();
}

void Node::reconcile_clock(std::uint64_t t) {
    if (t <= clock_us_) return;
    clock_us_ = t;
    clock_changed();
}

void Node::set_pipeline(bool on) {
    if (!on && pipeline_horizon_us_) {
        reconcile_clock(pipeline_horizon_us_);
        pipeline_horizon_us_ = 0;
    }
    pipeline_ = on;
}

void Node::reconcile_reply(std::uint64_t t) {
    if (pipeline_) {
        if (t > pipeline_horizon_us_) pipeline_horizon_us_ = t;
        return;
    }
    reconcile_clock(t);
}

void Node::clock_changed() {
    const std::int64_t now = static_cast<std::int64_t>(clock_us_);
    if (interp_.logical_time() < now) interp_.advance_time(now - interp_.logical_time());
}

net::MarshalledValue Node::export_value(Value&& v) {
    using net::MarshalledValue;
    if (v.is_null()) return MarshalledValue::null();
    if (v.is_bool()) return MarshalledValue::of_bool(v.as_bool());
    if (v.is_int()) return MarshalledValue::of_int(v.as_int());
    if (v.is_long()) return MarshalledValue::of_long(v.as_long());
    if (v.is_double()) return MarshalledValue::of_double(v.as_double());
    if (v.is_str()) return MarshalledValue::of_str(v.take_str());

    vm::ObjId oid = v.as_ref();
    if (interp_.heap().get(oid).is_array)
        throw RuntimeError(
            "arrays cannot cross address spaces (see DESIGN.md: the paper defers "
            "arrays; our partial solution keeps them node-local)");
    const std::string& cls = interp_.class_of(oid).name;
    // A proxy re-exports its own target, so references travel transitively.
    if (auto proxy = transform::naming::parse_proxy(cls)) {
        const auto [target_node, target_oid] = proxy_target(oid);
        std::string iface = proxy->family == 'O'
                                ? transform::naming::o_int(proxy->original)
                                : transform::naming::c_int(proxy->original);
        return MarshalledValue::of_ref(target_node, target_oid, std::move(iface));
    }
    if (auto iface = transform::naming::local_to_interface(cls))
        return MarshalledValue::of_ref(id_, oid, *iface);
    throw RuntimeError("cannot marshal reference to non-substitutable class " + cls);
}

Value Node::import_value(net::MarshalledValue&& m, const std::string& protocol) {
    switch (m.tag) {
        case net::ValueTag::Null: return Value::null();
        case net::ValueTag::Bool: return Value::of_bool(m.b);
        case net::ValueTag::Int: return Value::of_int(m.i);
        case net::ValueTag::Long: return Value::of_long(m.j);
        case net::ValueTag::Double: return Value::of_double(m.d);
        case net::ValueTag::Str: return Value::of_str(std::move(m.s));
        case net::ValueTag::Ref: return import_ref(m.ref_node, m.ref_oid, m.ref_class, protocol);
    }
    throw RuntimeError("bad marshalled value tag");
}

Value Node::import_ref(net::NodeId node, std::uint64_t oid, const std::string& iface,
                       const std::string& protocol) {
    if (node == id_) return Value::of_ref(oid);
    auto key = std::make_tuple(node, oid, iface, protocol);
    auto it = imported_.find(key);
    if (it != imported_.end()) return Value::of_ref(it->second);

    const std::string proxy_cls = interface_to_proxy(iface, protocol);
    Value proxy = interp_.construct(proxy_cls, "()V", {});
    set_proxy_target(proxy.as_ref(), node, oid);
    imported_.emplace(std::move(key), proxy.as_ref());
    if (durable_)
        wal_.append_proxy_import(clock_us_, node, oid, iface, protocol, proxy.as_ref());
    log_debug("node", "node ", id_, " imported proxy ", proxy_cls, " for (", node, ",",
              oid, ")");
    return proxy;
}

std::pair<net::NodeId, vm::ObjId> Node::proxy_target(vm::ObjId proxy) {
    // get_field_at does not bounds-check; as_int/as_long check the tags.
    const vm::Object& o = interp_.heap().get(proxy);
    if (o.is_array || o.fields.size() < 2)
        throw RuntimeError("object " + std::to_string(proxy) + " on node " +
                           std::to_string(id_) + " is not a proxy");
    return {interp_.get_field_at(proxy, kProxyNodeSlot).as_int(),
            static_cast<vm::ObjId>(interp_.get_field_at(proxy, kProxyOidSlot).as_long())};
}

void Node::set_proxy_target(vm::ObjId proxy, net::NodeId node, vm::ObjId oid) {
    interp_.set_field(proxy, kProxyNodeField, Value::of_int(node));
    interp_.set_field(proxy, kProxyOidField, Value::of_long(static_cast<std::int64_t>(oid)));
}

Value Node::local_singleton(const std::string& cls) {
    if (const vm::ObjId oid = singleton(cls)) return Value::of_ref(oid);
    const std::string c_int_desc = "L" + transform::naming::c_int(cls) + ";";
    Value me = interp_.call_static(transform::naming::c_local(cls),
                                   transform::naming::kSingletonGetter, "()" + c_int_desc);
    // Record before clinit so initialisation cycles terminate (JVM-style).
    adopt_singleton(cls, me.as_ref(), clock_us_);
    interp_.call_static(transform::naming::c_factory(cls), "clinit",
                        "(" + c_int_desc + ")V", {me});
    return me;
}

vm::ObjId Node::singleton(const std::string& cls) const {
    const auto it = singletons_.find(cls);
    return it == singletons_.end() ? 0 : it->second;
}

void Node::adopt_singleton(const std::string& cls, vm::ObjId oid, std::uint64_t t_us) {
    singletons_[cls] = oid;
    if (durable_) wal_.append_singleton(t_us, cls, oid);
}

void Node::drop_singleton(const std::string& cls, std::uint64_t t_us) {
    singletons_.erase(cls);
    if (durable_) wal_.append_singleton_drop(t_us, cls);
}

void Node::throw_remote_fault(const std::string& msg) {
    Value fault = interp_.construct(kRemoteFaultClass, "(S)V", {Value::of_str(msg)});
    interp_.throw_guest(fault);
    throw RuntimeError("unreachable");  // throw_guest never returns
}

void Node::rethrow_fault(const net::CallReply& reply) {
    const model::ClassFile* cls = interp_.pool().find(reply.fault_class);
    std::string throw_cls =
        (cls && cls->find_method("<init>", "(S)V")) ? reply.fault_class : "Throwable";
    Value fault =
        interp_.construct(throw_cls, "(S)V", {Value::of_str(reply.fault_msg)});
    interp_.throw_guest(fault);
    throw RuntimeError("unreachable");
}

void Node::apply_restarts(std::uint64_t restarts) {
    if (restarts <= restarts_seen_) return;
    restarts_seen_ = restarts;
    if (durable_) {
        recover_from_wal();
        return;
    }
    if (wal_.reply_count())
        log_info("node", "node ", id_, " restarted: dropping ", wal_.reply_count(),
                 " cached replies");
    wal_.trim_replies(0);
}

// ---------------------------------------------------------------------------
// Durability (DESIGN.md §20)

void Node::enable_durability() {
    if (durable_) return;
    durable_ = true;
    obs::Registry& m = system_->metrics();
    wal_.attach_counters(&m.counter("wal.records"), &m.counter("wal.bytes"),
                         &m.counter("wal.snapshots"));
    last_snapshot_us_ = clock_us_;
    interp_.set_observer(this);
}

void Node::on_alloc(vm::ObjId, const std::string& cls) {
    wal_.append_alloc(clock_us_, cls);
}

void Node::on_alloc_array(vm::ObjId, const std::string& elem_desc, std::size_t length) {
    wal_.append_alloc_array(clock_us_, elem_desc, length);
}

void Node::on_field_put(vm::ObjId id, std::size_t slot, const vm::Value& v) {
    wal_.append_field_put(clock_us_, id, slot, v);
}

void Node::on_array_put(vm::ObjId id, std::size_t index, const vm::Value& v) {
    wal_.append_array_put(clock_us_, id, index, v);
}

void Node::on_static_put(const std::string& cls, const std::string& field,
                         const vm::Value& v) {
    wal_.append_static_put(clock_us_, cls, field, v);
}

void Node::on_class_init(const std::string& cls) {
    wal_.append_class_init(clock_us_, cls);
}

void Node::cache_reply(const net::CallReply& reply) {
    // handle_request only caches with a nonzero capacity, but
    // recover_node_onto reaches here whatever the capacity is now.
    const std::size_t capacity = system_->rpc_path().reliability().dedup_capacity;
    if (capacity == 0 || wal_.holds_reply(reply.request_id)) return;
    wal_.trim_replies(capacity - 1);
    wal_.append_reply(clock_us_, reply.request_id, reply);
}

void Node::take_snapshot() {
    if (!durable_) return;
    const std::uint64_t t = clock_us_;
    wal_.begin_snapshot();
    // Heap, in id order: the arena allocates ids sequentially, so replaying
    // these allocations verbatim reproduces every id.  Transmuted objects
    // are checkpointed under their *current* class (a proxy), which is
    // exactly the state a restart must come back to.
    const vm::Heap& heap = interp_.heap();
    for (vm::ObjId id = 1; id <= heap.size(); ++id) {
        const vm::Object& o = heap.get(id);
        if (o.is_array) {
            wal_.append_alloc_array(t, o.elem_type.descriptor(), o.fields.size());
            for (std::size_t i = 0; i < o.fields.size(); ++i)
                wal_.append_array_put(t, id, i, o.fields[i]);
        } else {
            wal_.append_alloc(t, o.cls->name);
            for (std::size_t i = 0; i < o.fields.size(); ++i)
                wal_.append_field_put(t, id, i, o.fields[i]);
        }
    }
    interp_.visit_statics(
        [&](const std::string& cls, const std::string& field, const vm::Value& v) {
            wal_.append_static_put(t, cls, field, v);
        });
    interp_.visit_initialized(
        [&](const std::string& cls) { wal_.append_class_init(t, cls); });
    for (const auto& [cls, oid] : singletons_) wal_.append_singleton(t, cls, oid);
    for (const auto& [key, local_oid] : imported_)
        wal_.append_proxy_import(t, std::get<0>(key), std::get<1>(key),
                                 std::get<2>(key), std::get<3>(key), local_oid);
    wal_.commit_snapshot();
    last_snapshot_us_ = clock_us_;
    log_debug("node", "node ", id_, " checkpoint: ", wal_.snapshot().size(),
              " bytes, log truncated");
}

vm::ObjId Node::restore_objects(const WalImage& img, bool journal) {
    const vm::ObjId base = interp_.heap().size();
    const bool log = journal && durable_;
    // Every object is allocated before any field is written: a checkpoint
    // records an object's fields right after its allocation, so they may
    // refer to objects allocated later, and the journalled copy must
    // replay the same way.
    for (const WalImage::Object& o : img.objects) {
        if (o.is_array) {
            interp_.restore_array(o.cls, static_cast<std::size_t>(o.length));
            if (log) wal_.append_alloc_array(clock_us_, o.cls, o.length);
        } else {
            interp_.restore_object(o.cls);
            if (log) wal_.append_alloc(clock_us_, o.cls);
        }
    }
    // References are image-local object ids; proxy node/oid fields are
    // plain ints/longs and copy verbatim.
    for (std::size_t i = 0; i < img.objects.size(); ++i) {
        const WalImage::Object& o = img.objects[i];
        const vm::ObjId id = base + i + 1;
        for (const auto& [slot, v] : o.fields) {
            Value w = v;
            if (v.is_ref()) {
                if (v.as_ref() == 0 || v.as_ref() > img.objects.size())
                    throw RuntimeError("durable image has a dangling reference");
                w = Value::of_ref(base + v.as_ref());
            }
            interp_.restore_field(id, static_cast<std::size_t>(slot), w);
            if (!log) continue;
            if (o.is_array)
                wal_.append_array_put(clock_us_, id, slot, w);
            else
                wal_.append_field_put(clock_us_, id, slot, w);
        }
    }
    return base;
}

void Node::recover_from_wal() {
    // Crash semantics: everything volatile dies; the durable image is the
    // snapshot and the log, decoded before anything is wiped, and the
    // reply stream, which stays the cache (counted, not decoded), trimmed
    // to the current capacity.  The observer is detached so the restore
    // does not re-journal itself.
    WalImage img;
    const Wal::ReplayResult res = wal_.recover(img);
    interp_.set_observer(nullptr);
    interp_.reset_vm_state();
    wal_.trim_replies(system_->rpc_path().reliability().dedup_capacity);
    restore_objects(img, /*journal=*/false);
    for (const auto& [key, v] : img.statics) interp_.restore_static(key.first, key.second, v);
    for (const std::string& cls : img.initialized) interp_.mark_initialized(cls);
    singletons_ = img.singletons;
    imported_.clear();
    for (const auto& [key, local_oid] : img.imports) imported_[key] = local_oid;
    interp_.set_observer(this);
    log_info("node", "node ", id_, " recovered from WAL: ", res.records,
             " records replayed (", res.bytes, " bytes), ", wal_.reply_count(),
             " cached replies restored", res.clean ? "" : "; torn tail discarded");
    system_->note_recovery(id_, res, clock_us_);
}

net::CallReply Node::handle_request(net::CallRequest& req,
                                    const std::string& protocol, std::uint64_t arrival_us) {
    const RetryPolicy& rp = system_->rpc_path().reliability();
    const bool dedup = rp.dedup && rp.dedup_capacity > 0;
    if (dedup) {
        if (std::optional<net::CallReply> hit = wal_.find_reply(req.request_id)) {
            // A retry of a request this node already executed: replay the
            // reply.  This is the arm that turns at-most-once into
            // exactly-once — the retried Create/Invoke must NOT run again
            // (it would leak an instance / duplicate a side effect).
            system_->rpc_path().note_dedup_hit(req.request_id, id_, clock_us_);
            return std::move(*hit);
        }
    }
    net::CallReply reply;
    reply.request_id = req.request_id;
    // An expired request must not execute: the caller has already given
    // up, and running it anyway would be a side effect nobody awaits.
    // The rejection is not cached — expiry is stable across retries.
    if (req.deadline_us && arrival_us > req.deadline_us) {
        system_->rpc_path().note_server_timeout(req.request_id, id_, clock_us_);
        reply.is_fault = true;
        reply.fault_class = kRemoteFaultClass;
        reply.fault_msg = "deadline expired before dispatch on node " +
                          std::to_string(id_);
        return reply;
    }
    try {
        switch (req.kind) {
            case net::RequestKind::Invoke: {
                // This depth's reused buffer; the decoded arguments move
                // into it, and its values into the callee's frame.
                const auto args = import_args_.lease();
                args->clear();
                for (net::MarshalledValue& a : req.args)
                    args->push_back(import_value(std::move(a), protocol));
                obs::ScopedSpan span(
                    system_->tracer(), [&] { return "vm.execute " + req.method; }, id_);
                Value result = interp_.call_virtual(Value::of_ref(req.target_oid),
                                                    req.method, req.desc,
                                                    std::span<Value>(*args));
                reply.result = export_value(std::move(result));  // void returns null
                break;
            }
            case net::RequestKind::Create: {
                Value obj = interp_.construct(transform::naming::o_local(req.cls), "()V", {});
                reply.result = export_value(std::move(obj));
                break;
            }
            case net::RequestKind::Discover: {
                reply.result = export_value(local_singleton(req.cls));
                break;
            }
        }
    } catch (const vm::GuestException& e) {
        reply.is_fault = true;
        reply.fault_class = e.class_name();
        reply.fault_msg = e.message();
    }
    if (dedup) cache_reply(reply);
    // Request boundaries are the clean checkpoint points: no guest frame
    // is live, so the heap is a consistent cut.
    const std::uint64_t interval = system_->durability().snapshot_interval_us;
    if (durable_ && interval && clock_us_ - last_snapshot_us_ >= interval) take_snapshot();
    return reply;
}

}  // namespace rafda::runtime
