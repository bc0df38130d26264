#include "runtime/system.hpp"

#include <cmath>
#include <set>
#include <tuple>
#include <unordered_map>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
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

/// The (node, oid) the proxy object `proxy` forwards to.
std::pair<net::NodeId, vm::ObjId> proxy_target(vm::Interpreter& interp, vm::ObjId proxy) {
    return {interp.get_field(proxy, naming::kProxyNodeField).as_int(),
            static_cast<vm::ObjId>(interp.get_field(proxy, naming::kProxyOidField).as_long())};
}

void set_proxy_target(vm::Interpreter& interp, vm::ObjId proxy, net::NodeId node,
                      vm::ObjId oid) {
    interp.set_field(proxy, naming::kProxyNodeField, Value::of_int(node));
    interp.set_field(proxy, naming::kProxyOidField,
                     Value::of_long(static_cast<std::int64_t>(oid)));
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
      reliability_(options.reliability),
      batching_(options.batching),
      class_matrix_cap_(options.class_matrix_cap),
      retry_jitter_rng_(Rng::mix(options.network_seed, 0x6a697474ULL)) {
    network_.set_default_link(options.default_link);
    network_.attach_metrics(&metrics_);
    network_.attach_journal(&journal_);
    tracer_.set_clock([this](std::int32_t n) {
        return n >= 0 ? node(n).clock_us() : network_.now_us();
    });
    set_log_time_source(
        [this] { return static_cast<std::int64_t>(network_.now_us()); }, this);
    migrations_counter_ = &metrics_.counter("runtime.migrations");
    migration_bytes_counter_ = &metrics_.counter("runtime.migration_bytes");
    chain_shortenings_counter_ = &metrics_.counter("runtime.chain_shortenings");
    chain_hops_removed_counter_ = &metrics_.counter("runtime.chain_hops_removed");
    rpc_retries_ = &metrics_.counter("rpc.retries");
    rpc_retries_reply_loss_ = &metrics_.counter("rpc.retries_reply_loss");
    rpc_timeouts_ = &metrics_.counter("rpc.timeouts");
    rpc_dedup_hits_ = &metrics_.counter("rpc.dedup_hits");
    rpc_breaker_open_ = &metrics_.counter("rpc.breaker_open");
    batch_frames_ = &metrics_.counter("rpc.batch.frames");
    batch_coalesced_ = &metrics_.counter("rpc.batch.coalesced");
    batch_entry_bytes_ = &metrics_.counter("rpc.batch.entry_bytes");
    batch_latency_saved_us_ = &metrics_.counter("rpc.batch.latency_saved_us");
    // Pool traffic is sampled live at snapshot time (cumulative over the
    // process, unaffected by reset_stats — zero hot-path cost).
    metrics_.register_probe("rpc.pool.acquires", [this] {
        return static_cast<std::int64_t>(buffer_pool_.acquires());
    });
    metrics_.register_probe("rpc.pool.reuses", [this] {
        return static_cast<std::int64_t>(buffer_pool_.reuses());
    });
    metrics_.register_probe("rpc.pool.retained", [this] {
        return static_cast<std::int64_t>(buffer_pool_.retained());
    });
    for (const std::string& proto : result_.report.protocols())
        codecs_[proto] = net::make_codec(proto);
    // The read/write classifier judges ORIGINAL bytecode — the
    // pre-transformation truth about what each method touches.
    replicas_.configure(original_);
    durability_ = options.durability;
    // Restart observation flows through one seam: any notify_restarts call
    // (RPC arrival, driver sweep) lands on the node's apply_restarts,
    // which decides soft-state shedding vs WAL recovery (DESIGN.md §20).
    network_.fault_plan().set_restart_callback(
        [this](net::NodeId n, std::uint64_t restarts, std::uint64_t) {
            if (n >= 0 && static_cast<std::size_t>(n) < nodes_.size())
                nodes_[static_cast<std::size_t>(n)]->apply_restarts(restarts);
        });
    if (durability_.enabled) enable_durability(durability_);
}

System::~System() { clear_log_time_source(this); }

System::ProtoMetrics& System::proto_metrics(const std::string& protocol) {
    auto it = proto_metrics_.find(protocol);
    if (it == proto_metrics_.end()) {
        const std::string prefix = "rpc.proto." + protocol + ".";
        ProtoMetrics m;
        m.calls = &metrics_.counter(prefix + "calls");
        m.creates = &metrics_.counter(prefix + "creates");
        m.discovers = &metrics_.counter(prefix + "discovers");
        m.faults = &metrics_.counter(prefix + "faults");
        m.drops = &metrics_.counter(prefix + "drops");
        m.request_bytes = &metrics_.counter(prefix + "request_bytes");
        m.reply_bytes = &metrics_.counter(prefix + "reply_bytes");
        m.request_size = &metrics_.histogram(prefix + "request_size");
        m.reply_size = &metrics_.histogram(prefix + "reply_size");
        it = proto_metrics_.emplace(protocol, m).first;
    }
    return it->second;
}

void System::enable_method_profiling(bool on) {
    method_profiling_ = on;
    for (const auto& n : nodes_) n->interp().set_method_profiling(on);
}

net::Codec& System::codec(const std::string& protocol) {
    auto it = codecs_.find(protocol);
    if (it == codecs_.end()) throw RuntimeError("no codec for protocol " + protocol);
    return *it->second;
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
    node.clock_gauge_ =
        &metrics_.gauge("runtime.node" + std::to_string(node.id()) + ".clock_us");
    wire_node(node);
    if (durability_.enabled) {
        node.enable_durability(durability_);
        node.wal()->attach_counters(wal_records_, wal_bytes_, wal_snapshots_);
    }
    return node;
}

void System::enable_durability(DurabilityPolicy policy) {
    policy.enabled = true;
    durability_ = policy;
    if (!wal_records_) {
        wal_records_ = &metrics_.counter("wal.records");
        wal_bytes_ = &metrics_.counter("wal.bytes");
        wal_snapshots_ = &metrics_.counter("wal.snapshots");
        wal_recoveries_ = &metrics_.counter("wal.recoveries");
        wal_replayed_ = &metrics_.counter("wal.replayed_records");
        wal_relocated_ = &metrics_.counter("wal.relocated_objects");
    }
    for (const auto& n : nodes_) {
        n->enable_durability(durability_);
        n->wal()->attach_counters(wal_records_, wal_bytes_, wal_snapshots_);
    }
}

void System::observe_restarts() {
    if (!durability_.enabled) return;
    const net::FaultPlan& plan = network_.fault_plan();
    if (plan.empty()) return;
    const std::uint64_t now = network_.now_us();
    for (const auto& n : nodes_) plan.notify_restarts(n->id(), now);
}

void System::note_recovery(net::NodeId node_id, const Wal::ReplayResult& res,
                           std::uint64_t t_us) {
    // The node is alive again and its replay applied any Relocate records,
    // so it forwards for itself now — the relocation entry has served.
    relocations_.erase(node_id);
    if (wal_recoveries_) {
        wal_recoveries_->add();
        wal_replayed_->add(res.records);
    }
    journal_.record(obs::JournalEvent::Kind::Recover, t_us, node_id, -1, res.records,
                    res.bytes, {});
}

CircuitBreaker& System::breaker(net::NodeId dst, const std::string& protocol) {
    auto it = breakers_.find({dst, protocol});
    if (it == breakers_.end()) {
        CircuitBreaker b;
        b.state_gauge = &metrics_.gauge("rpc.breaker." + std::to_string(dst) + "." +
                                        protocol + ".state");
        it = breakers_.emplace(std::make_pair(dst, protocol), b).first;
    }
    return it->second;
}

void System::visit_breakers(
    const std::function<void(net::NodeId, const std::string&, const CircuitBreaker&)>&
        fn) const {
    for (const auto& [key, b] : breakers_) fn(key.first, key.second, b);
}

net::CallReply System::rpc(net::NodeId src, net::NodeId dst, const std::string& protocol,
                           net::CallRequest& req) {
    ProtoMetrics& pm = proto_metrics(protocol);
    Node& caller = node(src);
    switch (req.kind) {
        case net::RequestKind::Invoke: pm.calls->add(); break;
        case net::RequestKind::Create: pm.creates->add(); break;
        case net::RequestKind::Discover: pm.discovers->add(); break;
    }
    const RetryPolicy& rp = reliability_;
    if (rp.deadline_us && req.deadline_us == 0)
        req.deadline_us = caller.clock_us() + rp.deadline_us;
    const std::uint32_t max_attempts = std::max<std::uint32_t>(1, rp.attempts);
    CircuitBreaker* br = rp.breaker_threshold ? &breaker(dst, protocol) : nullptr;
    const net::FaultPlan& plan = network_.fault_plan();

    Dropped last{"", false};
    for (std::uint32_t attempt = 0;; ++attempt) {
        // Circuit breaker gate: while open, fail fast with no wire traffic
        // until the cooldown has elapsed, then let one half-open probe
        // through.  Fast-fails are not failure evidence (nothing was
        // learned about the transport), so they don't bump the counter.
        if (br && br->state == CircuitBreaker::State::Open) {
            if (caller.clock_us() >= br->opened_at_us + rp.breaker_cooldown_us) {
                br->set_state(CircuitBreaker::State::HalfOpen);
                journal_.record(obs::JournalEvent::Kind::Breaker, caller.clock_us(), dst,
                                src, 2, 0, protocol);
            } else {
                rpc_breaker_open_->add();
                throw Dropped{"breaker open for node " + std::to_string(dst) + " via " +
                                  protocol,
                              last.executed_remotely, /*fast_fail=*/true};
            }
        }
        bool failed = false;
        // A destination known to be crashed fails fast (the simulation
        // analogue of connection-refused): no latency is charged and no
        // PRNG is drawn, but the attempt still counts against the policy.
        if (plan.node_down(dst, caller.clock_us())) {
            pm.drops->add();
            note_node_fault(dst, true, caller.clock_us());
            last = Dropped{"node " + std::to_string(dst) + " is down",
                           /*executed_remotely=*/false, /*fast_fail=*/true};
            failed = true;
        } else {
            note_node_fault(dst, false, caller.clock_us());
            req.attempt = attempt;
            try {
                obs::ScopedSpan span;
                if (attempt > 0) {
                    span = obs::ScopedSpan(
                        tracer_, [&] { return "rpc.attempt " + std::to_string(attempt); },
                        src);
                    tracer_.note("request_id", req.request_id);
                }
                net::CallReply reply = rpc_attempt(src, dst, protocol, req, pm);
                // Any decoded reply — fault or not — proves the transport
                // round-trip works; guest-level faults never trip the
                // breaker and are never retried.
                if (br) {
                    const bool reopened = br->state != CircuitBreaker::State::Closed;
                    br->record_success();
                    if (reopened)
                        journal_.record(obs::JournalEvent::Kind::Breaker,
                                        caller.clock_us(), dst, src, 0, 0, protocol);
                }
                return reply;
            } catch (const Dropped& d) {
                last = d;
                failed = true;
            }
        }
        if (failed && br &&
            br->record_failure(rp.breaker_threshold, caller.clock_us())) {
            log_info("runtime", "breaker opened for node ", dst, " via ", protocol);
            journal_.record(obs::JournalEvent::Kind::Breaker, caller.clock_us(), dst, src,
                            1, 0, protocol);
        }
        // Retry decision.  Reply-loss means the callee already executed:
        // without dedup a retry would re-execute (the §12 instance leak),
        // so the loss surfaces instead.
        if (last.executed_remotely && !rp.dedup) break;
        if (attempt + 1 >= max_attempts) break;
        if (rp.retry_budget && retries_spent_ >= rp.retry_budget) break;
        std::uint64_t delay = rp.backoff_base_us;
        for (std::uint32_t k = 0; k < attempt && delay < rp.backoff_cap_us; ++k)
            delay = static_cast<std::uint64_t>(
                static_cast<double>(delay) * rp.backoff_multiplier);
        if (rp.backoff_cap_us) delay = std::min(delay, rp.backoff_cap_us);
        if (rp.jitter_us) delay += retry_jitter_rng_.below(rp.jitter_us + 1);
        if (req.deadline_us && caller.clock_us() + delay >= req.deadline_us) {
            rpc_timeouts_->add();
            journal_.record(obs::JournalEvent::Kind::RpcTimeout, caller.clock_us(), src,
                            dst, req.request_id, 0, "client");
            last.what = "deadline exceeded after " + std::to_string(attempt + 1) +
                        " attempt(s): " + last.what;
            break;
        }
        caller.advance_clock(delay);
        caller.sync_guest_time();
        ++retries_spent_;
        rpc_retries_->add();
        if (last.executed_remotely) rpc_retries_reply_loss_->add();
        journal_.record(obs::JournalEvent::Kind::RpcRetry, caller.clock_us(), src, dst,
                        req.request_id, attempt + 1, {});
    }
    throw last;
}

void System::note_node_fault(net::NodeId dst, bool down, std::uint64_t t_us) {
    if (!journal_.enabled()) return;
    auto [it, inserted] = node_fault_seen_.try_emplace(dst, false);
    if (it->second != down || (inserted && down))
        journal_.record(obs::JournalEvent::Kind::FaultEdge, t_us, dst, -1,
                        down ? 1 : 0, 0, "node");
    it->second = down;
}

net::CallReply System::rpc_attempt(net::NodeId src, net::NodeId dst,
                                   const std::string& protocol, net::CallRequest& req,
                                   ProtoMetrics& pm) {
    net::Codec& c = codec(protocol);
    Node& caller = node(src);
    Node& callee = node(dst);
    // The caller's trace context travels host-side, like the sim_* times:
    // it is set on the decoded request, never encoded, so tracing cannot
    // change a wire byte.  The server parents its dispatch span from it.
    const std::uint64_t trace_id = tracer_.current_trace();
    const std::uint64_t parent_span = tracer_.current_span();

    // Codec CPU for a payload, split so the node that serialises pays the
    // encode half and the node that parses pays the decode half.  The two
    // halves sum to the exact legacy combined charge, so one sequential
    // client reduces to the old global-clock arithmetic to the microsecond.
    auto codec_cost = [&](std::size_t size) {
        const std::uint64_t total = static_cast<std::uint64_t>(
            std::llround(2.0 * c.cpu_cost_ns_per_byte() * static_cast<double>(size) /
                         1000.0));  // encode + decode
        return std::pair<std::uint64_t, std::uint64_t>{total / 2, total - total / 2};
    };
    // A message lost at `at_us` on the link from -> to: the caller observes
    // the failure then.  `executed` marks the reply-loss arm of
    // at-most-once, where the callee already ran the call (DESIGN.md §12).
    auto lose = [&](std::uint64_t at_us, net::NodeId from, net::NodeId to,
                    const char* where, bool executed, std::string what) {
        pm.drops->add();
        tracer_.note("dropped", where);
        journal_.record(obs::JournalEvent::Kind::RpcDrop, at_us, from, to,
                        req.request_id, 0, where);
        caller.reconcile_clock(at_us);
        caller.sync_guest_time();
        if (executed) callee.sync_guest_time();
        return Dropped{std::move(what), executed};
    };

    // The request frame encodes straight into a pooled buffer; no
    // per-call vector churn (DESIGN.md §17).
    support::PooledBuffer request_frame(buffer_pool_);
    Bytes& request_bytes = request_frame.bytes();
    // Batch lanes exist only while batching is on.  With it off nothing
    // can join a frame, so the lookup is skipped; lanes left over from an
    // earlier batching-on stretch are closed, so re-enabling starts clean.
    BatchLane* lane = nullptr;
    if (batching_.enabled)
        lane = &batch_lanes_[{src, dst}];
    else if (!batch_lanes_.empty())
        batch_lanes_.clear();
    bool coalesce = false;
    net::BatchContext entry_ctx;
    {
        obs::ScopedSpan span(tracer_, [&] { return "codec.encode_request " + protocol; },
                             src);
        // Batch join: if the directed link still carries an earlier
        // same-protocol request frame with room, tentatively encode this
        // call as a compact continuation entry.  The join must be decided
        // against the clock *after* the encode charge (the entry's own
        // size sets the charge), so encode first and fall back to a full
        // frame when the link turns out to be free by then.
        if (lane && lane->joinable && lane->protocol == protocol &&
            c.supports_batch_entries() &&
            1 + lane->entries < std::max<std::uint32_t>(2, batching_.max_frame_calls)) {
            ByteWriter w(request_bytes);
            c.encode_batch_entry(req, lane->ctx, w);
            coalesce = caller.clock_us() + codec_cost(request_bytes.size()).first <
                       network_.link_busy_until(src, dst);
            if (coalesce) entry_ctx = lane->ctx;
        }
        if (!coalesce) {
            ByteWriter w(request_bytes);
            c.encode_request_into(req, w);
        }
        pm.request_bytes->add(request_bytes.size());
        pm.request_size->record(request_bytes.size());
        req.sim_wire_bytes += request_bytes.size();
        caller.advance_clock(codec_cost(request_bytes.size()).first);
    }
    req.sim_send_us = caller.clock_us();
    if (journal_.enabled())  // the only detail built per call
        journal_.record(obs::JournalEvent::Kind::RpcSend, req.sim_send_us, src, dst,
                        req.request_id, request_bytes.size(),
                        req.stat_class.empty()
                            ? protocol
                            : req.stat_class +
                                  (req.method.empty() ? "" : "." + req.method));
    net::Delivery inbound;
    {
        obs::ScopedSpan span(
            tracer_,
            [&] { return "net.transfer " + std::to_string(src) + "->" + std::to_string(dst); },
            src);
        tracer_.note("bytes", request_bytes.size());
        inbound = coalesce ? network_.transfer_coalesced_at(src, dst,
                                                            request_bytes.size(),
                                                            req.sim_send_us)
                           : network_.transfer_at(src, dst, request_bytes.size(),
                                                  req.sim_send_us);
        tracer_.pin(span.id(), req.sim_send_us, inbound.at_us);
        if (!lane) {
            // Batching off: no frame is ever joinable.
        } else if (inbound.delivered && coalesce) {
            if (++lane->entries == 1) batch_frames_->add();
            batch_coalesced_->add();
            batch_entry_bytes_->add(request_bytes.size());
            // The entry rode the open frame's propagation window instead
            // of paying its own.
            batch_latency_saved_us_->add(network_.link(src, dst).latency_us);
            tracer_.note("coalesced", "request");
        } else if (inbound.delivered) {
            // This full frame now occupies the link; a same-protocol
            // follower may append to it while it is in flight.
            *lane = BatchLane{protocol, net::BatchContext{src, req.request_id}, 0,
                              c.supports_batch_entries()};
        } else {
            // The frame (or the frame this entry joined) died on the
            // wire; nothing in flight is joinable any more.
            lane->joinable = false;
        }
        // The decode half of the codec budget is never spent on a lost
        // request — it never reached a parser.
        if (!inbound.delivered)
            throw lose(inbound.at_us, src, dst, "request", false,
                       "request lost on link " + std::to_string(src) + "->" +
                           std::to_string(dst));
    }
    req.sim_arrival_us = inbound.at_us;
    // A request landing on a crashed node dies there — never executed.
    // (The caller observes the failure at the arrival time; a restarted
    // node first sheds its soft state, which is how reply-cache loss
    // across a crash is modelled.)
    const net::FaultPlan& plan = network_.fault_plan();
    plan.notify_restarts(dst, inbound.at_us);
    if (plan.node_down(dst, inbound.at_us)) {
        note_node_fault(dst, true, inbound.at_us);
        throw lose(inbound.at_us, src, dst, "dest_crashed", false,
                   "request reached crashed node " + std::to_string(dst));
    }
    journal_.record(obs::JournalEvent::Kind::RpcArrive, inbound.at_us, dst, src,
                    req.request_id, request_bytes.size(), {});
    // The server cannot see the request before both its own prior work and
    // the wire delivery are done: clock reconciliation, join point one.
    callee.reconcile_clock(inbound.at_us);
    net::CallRequest decoded;
    {
        obs::ScopedSpan span(tracer_, [&] { return "codec.decode_request " + protocol; },
                             dst);
        decoded = coalesce ? c.decode_batch_entry(request_bytes, entry_ctx)
                           : c.decode_request(request_bytes);
        decoded.sim_send_us = req.sim_send_us;
        decoded.sim_arrival_us = req.sim_arrival_us;
        decoded.trace_id = trace_id;
        decoded.parent_span = parent_span;
        callee.advance_clock(codec_cost(request_bytes.size()).second);
    }
    net::CallReply reply;
    {
        const std::string& what =
            decoded.kind == net::RequestKind::Invoke ? decoded.method : decoded.cls;
        obs::ScopedSpan span = obs::ScopedSpan::remote(
            tracer_, [&] { return "rpc.dispatch " + what; }, dst, decoded.trace_id,
            decoded.parent_span);
        if (decoded.attempt) tracer_.note("attempt", decoded.attempt);
        // Dispatch is charged on the destination node's clock; its guest
        // code observes the server's own time, not the caller's.
        callee.sync_guest_time();
        journal_.record(obs::JournalEvent::Kind::RpcDispatch, callee.clock_us(), dst, src,
                        decoded.request_id, decoded.attempt, what);
        reply = callee.handle_request(decoded, protocol);
    }

    support::PooledBuffer reply_frame(buffer_pool_);
    Bytes& reply_bytes = reply_frame.bytes();
    {
        obs::ScopedSpan span(tracer_, [&] { return "codec.encode_reply " + protocol; },
                             dst);
        ByteWriter w(reply_bytes);
        c.encode_reply_into(reply, w);
        pm.reply_bytes->add(reply_bytes.size());
        pm.reply_size->record(reply_bytes.size());
        req.sim_wire_bytes += reply_bytes.size();
        callee.advance_clock(codec_cost(reply_bytes.size()).first);
    }
    net::Delivery outbound;
    {
        obs::ScopedSpan span(
            tracer_,
            [&] { return "net.transfer " + std::to_string(dst) + "->" + std::to_string(src); },
            dst);
        tracer_.note("bytes", reply_bytes.size());
        const std::uint64_t reply_send_us = callee.clock_us();
        outbound = network_.transfer_at(dst, src, reply_bytes.size(), reply_send_us);
        tracer_.pin(span.id(), reply_send_us, outbound.at_us);
        // The reply frame is what now occupies the reverse link; a later
        // request on that link must open its own frame.
        if (lane) batch_lanes_[{dst, src}].joinable = false;
        if (!outbound.delivered)
            throw lose(outbound.at_us, dst, src, "reply", true,
                       "reply lost on link " + std::to_string(dst) + "->" +
                           std::to_string(src));
    }
    // Join point two: the caller resumes no earlier than the reply arrival.
    // The server is NOT pulled forward by the reply's flight time — it is
    // free to serve the next client the moment it finished encoding, which
    // is exactly where multi-client overlap comes from.  In pipeline mode
    // this join is deferred into the caller's horizon (drained when the
    // pipeline closes), which is what lets its next request depart while
    // the link still carries this one.
    caller.reconcile_reply(outbound.at_us);
    journal_.record(obs::JournalEvent::Kind::RpcReply, outbound.at_us, src, dst,
                    req.request_id, reply_bytes.size(), {});
    net::CallReply decoded_reply;
    {
        obs::ScopedSpan span(tracer_, [&] { return "codec.decode_reply " + protocol; },
                             src);
        decoded_reply = c.decode_reply(reply_bytes);
        caller.advance_clock(codec_cost(reply_bytes.size()).second);
    }
    if (decoded_reply.is_fault) pm.faults->add();
    caller.sync_guest_time();
    callee.sync_guest_time();
    return decoded_reply;
}

Value System::remote_call(Node& self, net::NodeId dst, const std::string& protocol,
                          net::CallRequest& req, obs::Histogram& latency,
                          obs::Counter* edge_bytes) {
    const std::uint64_t t0 = self.clock_us();
    auto account = [&] {
        if (edge_bytes) edge_bytes->add(req.sim_wire_bytes);
        latency.record(self.clock_us() - t0);
    };
    net::CallReply reply;
    try {
        reply = rpc(self.id(), dst, protocol, req);
    } catch (const Dropped& d) {
        account();
        self.throw_remote_fault(d.what);
    }
    account();
    if (reply.is_fault) self.rethrow_fault(reply);
    return self.import_value(reply.result, protocol);
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
            req.request_id = next_request_id();
            req.src_node = node_id;
            req.cls = cls;
            req.stat_class = cls;
            return remote_call(node(node_id), p.node, p.protocol, req,
                               latency_histogram(*row, cls, create ? "make" : "discover"));
        };

        // A_O_Factory.make(): the policy decides where the instance lives.
        interp.register_native(
            naming::o_factory(cls), "make", "()" + o_int_desc,
            [this, cls, node_id, o_local, factory_call](vm::Interpreter& vm, const Value&,
                                                        std::vector<Value>) {
                Placement p = policy_.instance_placement(cls, node_id);
                if (p.node == node_id) return vm.construct(o_local, "()V", {});
                return factory_call(net::RequestKind::Create, p);
            });

        // A_C_Factory.discover(): singleton lookup with one-shot clinit.
        const std::string c_int_desc = "L" + naming::c_int(cls) + ";";
        interp.register_native(
            naming::c_factory(cls), "discover", "()" + c_int_desc,
            [this, cls, node_id, factory_call](vm::Interpreter&, const Value&,
                                               std::vector<Value>) {
                // With the sharded directory enabled the singleton home is
                // resolved through the owning shard (a modelled control
                // round-trip) instead of the free host-side policy oracle.
                Placement p = directory_.enabled()
                                  ? directory_discover(cls, node_id)
                                  : policy_.singleton_placement(cls, node_id);
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
        for (const std::string& proto : result_.report.protocols()) {
            auto dispatch = [this, node_id, proto, cls, row,
                             edges = std::map<net::NodeId, EdgeTraffic>{},
                             methods = std::unordered_map<const model::Method*,
                                                          ProxyMethod>{},
                             local_counter = static_cast<obs::Counter*>(nullptr)](
                                vm::Interpreter& vm, const model::Method& m,
                                const Value& receiver,
                                std::vector<Value> args) mutable {
                Node& self = node(node_id);
                ProxyMethod& meth = methods[&m];
                if (meth.gen != vm.pool().generation()) {
                    meth.gen = vm.pool().generation();
                    meth.desc = m.descriptor();
                    meth.latency = nullptr;
                }
                net::CallRequest req;
                req.kind = net::RequestKind::Invoke;
                req.request_id = next_request_id();
                req.src_node = node_id;
                req.target_oid = static_cast<std::uint64_t>(
                    vm.get_field(receiver.as_ref(), naming::kProxyOidField).as_long());
                std::int32_t target_node =
                    vm.get_field(receiver.as_ref(), naming::kProxyNodeField).as_int();
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
                                                   std::move(args));
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
                                           meth.desc, std::move(args));
                }
                // Resolved through the matrix cap: past class_matrix_cap
                // distinct edges this is the overflow aggregate pair.
                EdgeTraffic& edge = edges[target_node];
                if (!edge.calls) edge = traffic_edge(*row, cls, node_id, target_node);
                edge.calls->add();
                if (!meth.latency) meth.latency = &latency_histogram(*row, cls, m.name);
                req.stat_class = cls;
                req.args.reserve(args.size());
                for (const Value& a : args) req.args.push_back(self.export_value(a));
                return remote_call(self, target_node, proto, req, *meth.latency,
                                   edge.bytes);
            };
            interp.register_class_native(naming::o_proxy(cls, proto), dispatch);
            interp.register_class_native(naming::c_proxy(cls, proto), dispatch);
        }
    }
}

Value System::call_static(net::NodeId node_id, const std::string& cls,
                          const std::string& method, const std::string& desc,
                          std::vector<Value> args) {
    vm::Interpreter& interp = node(node_id).interp();
    if (!result_.report.substituted(cls))
        return interp.call_static(cls, method, desc, std::move(args));
    Value me = interp.call_static(naming::c_factory(cls), "discover",
                                  "()L" + naming::c_int(cls) + ";");
    return interp.call_virtual(me, method,
                               result_.report.map_method_desc(prepared_, desc),
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
    const std::string proto = protocol.empty() ? policy_.default_protocol() : protocol;
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
    f.interp().heap().transmute(
        oid, proxy_cls,
        {Value::of_int(to), Value::of_long(static_cast<std::int64_t>(new_oid))});
    // The transmute bypasses the VM's mutation paths (it is a runtime
    // substitution, not guest code), so the WAL must hear about it
    // explicitly or a recovered `from` would resurrect the migrated object.
    if (f.durable())
        f.wal()->append_transmute(f.clock_us(), oid, proxy_cls.name, to, new_oid);

    migrations_counter_->add();
    migration_bytes_counter_->add(state.bytes);
    if (directory_.enabled()) {
        // The owning shard learns the relocation, so directory lookups for
        // (from, oid) resolve straight to the new home instead of chasing
        // the proxy chain.
        directory_.put_object(from, oid, to, new_oid);
        directory_changed();
    }
    journal_.record(obs::JournalEvent::Kind::Migrate, state.landed.at_us, from, to, oid,
                    new_oid, cls_name);
    f.sync_guest_time();
    t.sync_guest_time();
    log_info("runtime", "migrated ", cls_name, " (", from, ",", oid, ") -> (", to, ",",
             new_oid, ")");
    return new_oid;
}

void System::migrate_singleton(const std::string& cls, net::NodeId to,
                               const std::string& protocol) {
    const std::string proto = protocol.empty() ? policy_.default_protocol() : protocol;
    Placement current = policy_.singleton_placement(cls, to);
    policy_.set_singleton_home(cls, to, proto);
    if (directory_.enabled()) {
        directory_.put_singleton(cls, to, proto);
        directory_changed();
    }
    if (current.node == to) return;
    Node& home = node(current.node);
    auto it = home.singletons_.find(cls);
    if (it == home.singletons_.end()) return;  // not created yet: policy is enough
    vm::ObjId new_oid = migrate_instance(current.node, it->second, to, proto);
    Node& tgt = node(to);
    tgt.singletons_[cls] = new_oid;
    if (tgt.durable()) tgt.wal()->append_singleton(tgt.clock_us(), cls, new_oid);
    home.singletons_.erase(cls);
    if (home.durable()) home.wal()->append_singleton_drop(home.clock_us(), cls);
}

namespace {

/// Offline decode of a crashed node's durable image (snapshot + log) into
/// a materializable picture: the heap as last-write-wins field maps, the
/// singleton registry, the imported-proxy table and the reply cache in
/// FIFO order.  Statics and class-init marks are deliberately ignored —
/// they are per-address-space and the *target* node's own <clinit> runs
/// govern there; all object state that matters lives in instance fields.
struct RecoveredImage final : WalVisitor {
    struct Obj {
        bool is_array = false;
        std::string cls;          // class name; element descriptor for arrays
        std::uint64_t length = 0;  // arrays only
        std::map<std::uint64_t, vm::Value> fields;  // slot -> last value
    };
    std::vector<Obj> objects;  // index = oid - 1 (arena order)
    std::map<std::string, std::uint64_t> singletons;
    std::vector<std::tuple<std::int32_t, std::uint64_t, std::string, std::string,
                           std::uint64_t>>
        imports;
    std::vector<std::pair<std::uint64_t, net::CallReply>> replies;  // FIFO

    void on_alloc(std::uint64_t, const std::string& cls) override {
        objects.push_back({false, cls, 0, {}});
    }
    void on_alloc_array(std::uint64_t, const std::string& elem_desc,
                        std::uint64_t length) override {
        objects.push_back({true, elem_desc, length, {}});
    }
    void on_field_put(std::uint64_t, std::uint64_t oid, std::uint64_t slot,
                      const vm::Value& v) override {
        if (oid && oid <= objects.size()) objects[oid - 1].fields[slot] = v;
    }
    void on_array_put(std::uint64_t t, std::uint64_t oid, std::uint64_t index,
                      const vm::Value& v) override {
        on_field_put(t, oid, index, v);
    }
    void on_singleton(std::uint64_t, const std::string& cls,
                      std::uint64_t oid) override {
        singletons[cls] = oid;
    }
    void on_singleton_drop(std::uint64_t, const std::string& cls) override {
        singletons.erase(cls);
    }
    void on_proxy_import(std::uint64_t, std::int32_t origin_node,
                         std::uint64_t origin_oid, const std::string& iface,
                         const std::string& protocol,
                         std::uint64_t local_oid) override {
        imports.emplace_back(origin_node, origin_oid, iface, protocol, local_oid);
    }
    void on_reply(std::uint64_t, std::uint64_t request_id,
                  const net::CallReply& reply) override {
        replies.emplace_back(request_id, reply);
    }
    void on_transmute(std::uint64_t, std::uint64_t oid, const std::string& proxy_cls,
                      std::int32_t node, std::uint64_t remote_oid) override {
        if (!oid || oid > objects.size()) return;
        // The slot became a proxy before the crash: its state lives at
        // (node, remote_oid), so the image carries only the proxy.
        Obj& o = objects[oid - 1];
        o.is_array = false;
        o.cls = proxy_cls;
        o.fields.clear();
        o.fields[0] = Value::of_int(node);
        o.fields[1] = Value::of_long(static_cast<std::int64_t>(remote_oid));
    }
    void on_relocate(std::uint64_t t, std::uint64_t oid, const std::string& proxy_cls,
                     std::int32_t node, std::uint64_t remote_oid) override {
        on_transmute(t, oid, proxy_cls, node, remote_oid);
    }
};

}  // namespace

std::size_t System::recover_node_onto(net::NodeId crashed, net::NodeId target,
                                      const std::string& protocol) {
    if (crashed == target)
        throw RuntimeError("recover_node_onto: target is the crashed node itself");
    if (relocations_.count(crashed)) return 0;  // already relocated this crash
    const std::string proto = protocol.empty() ? policy_.default_protocol() : protocol;
    Node& c = node(crashed);
    Node& t = node(target);
    if (!c.durable() || c.wal()->empty())
        throw RuntimeError("node " + std::to_string(crashed) +
                           " has no durable image to recover from");

    obs::ScopedSpan span(tracer_, "runtime.recover_onto", target);
    tracer_.note("crashed", crashed);

    // Decode the durable image offline — the crashed node itself is not
    // touched (it is down; its own in-memory state is dead anyway).
    RecoveredImage img;
    Wal::replay(c.wal()->snapshot(), img);
    Wal::replay(c.wal()->log(), img);

    // Reading the image is a bulk transfer from the crashed node's stable
    // storage to the target: charged on the wire like a migration, and
    // like migration it is a stop-the-world control operation (DESIGN.md
    // §13 barrier).
    const std::size_t image_bytes = c.wal()->snapshot().size() + c.wal()->log().size();
    net::Delivery landed =
        network_.transfer_at(crashed, target, image_bytes, t.clock_us());
    barrier(landed.at_us);

    // Pass 1 — allocate every object on the target in image (arena)
    // order; the remap table carries old oid -> new oid.
    std::map<vm::ObjId, vm::ObjId> remap;
    for (std::size_t i = 0; i < img.objects.size(); ++i) {
        const RecoveredImage::Obj& o = img.objects[i];
        vm::ObjId new_id;
        if (o.is_array) {
            new_id = t.interp().restore_array(o.cls,
                                              static_cast<std::size_t>(o.length));
            if (t.durable())
                t.wal()->append_alloc_array(t.clock_us(), o.cls, o.length);
        } else {
            new_id = t.interp().restore_object(o.cls);
            if (t.durable()) t.wal()->append_alloc(t.clock_us(), o.cls);
        }
        remap[static_cast<vm::ObjId>(i + 1)] = new_id;
        if (replicas_.active())
            replicas_.drop_primary(crashed, static_cast<vm::ObjId>(i + 1));
    }

    // Pass 2 — fill fields.  References were crashed-local object ids, so
    // they remap; proxy node/oid fields are plain ints/longs (global
    // values) and copy verbatim.
    for (std::size_t i = 0; i < img.objects.size(); ++i) {
        const RecoveredImage::Obj& o = img.objects[i];
        const vm::ObjId new_id = remap.at(static_cast<vm::ObjId>(i + 1));
        for (const auto& [slot, v] : o.fields) {
            vm::Value w = v;
            if (v.is_ref()) {
                const auto it = remap.find(v.as_ref());
                if (it == remap.end())
                    throw RuntimeError("recovered image has a dangling reference");
                w = Value::of_ref(it->second);
            }
            t.interp().restore_field(new_id, static_cast<std::size_t>(slot), w);
            if (t.durable()) {
                if (o.is_array)
                    t.wal()->append_array_put(t.clock_us(), new_id, slot, w);
                else
                    t.wal()->append_field_put(t.clock_us(), new_id, slot, w);
            }
        }
    }

    // Singleton registry: the recovered instances are the authoritative
    // singletons, and policy + directory must send future discover()
    // traffic to their new home.
    for (const auto& [cls, old_oid] : img.singletons) {
        const auto it = remap.find(old_oid);
        if (it == remap.end()) continue;
        t.singletons_[cls] = it->second;
        if (t.durable()) t.wal()->append_singleton(t.clock_us(), cls, it->second);
        policy_.set_singleton_home(cls, target, proto);
        if (directory_.enabled()) directory_.put_singleton(cls, target, proto);
    }

    // Imported-proxy table: the copies of the crashed node's proxies keep
    // deduplicating against the same origin keys on the target (existing
    // target entries win — they already point at live local proxies).
    for (const auto& [origin_node, origin_oid, iface, ip, local_oid] : img.imports) {
        const auto it = remap.find(local_oid);
        if (it == remap.end()) continue;
        auto key = std::make_tuple(static_cast<net::NodeId>(origin_node), origin_oid,
                                   iface, ip);
        if (t.imported_.emplace(key, it->second).second && t.durable())
            t.wal()->append_proxy_import(t.clock_us(), origin_node, origin_oid, iface,
                                         ip, it->second);
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
        t.cache_reply(rid, reply, /*journal=*/true);
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
        const RecoveredImage::Obj& o = img.objects[i];
        const vm::ObjId old_oid = static_cast<vm::ObjId>(i + 1);
        if (o.is_array || naming::parse_proxy(o.cls)) continue;
        auto iface = naming::local_to_interface(o.cls);
        if (!iface) continue;
        c.wal()->append_relocate(landed.at_us, old_oid,
                                 naming::interface_to_proxy(*iface, proto), target,
                                 remap.at(old_oid));
        // A relocated singleton is no longer this node's singleton: the
        // drop record makes the restart replay erase the registration
        // (mirroring migrate_singleton), and the in-memory erase keeps
        // find_singleton from reporting the dead node as home meanwhile —
        // that memory is volatile state the restart wipes anyway.
        const auto sit = singleton_of.find(old_oid);
        if (sit != singleton_of.end()) {
            c.wal()->append_singleton_drop(landed.at_us, sit->second);
            c.singletons_.erase(sit->second);
        }
        if (directory_.enabled()) directory_.put_object(crashed, old_oid, target,
                                                        remap.at(old_oid));
        ++relocated;
    }

    // Live proxies elsewhere still aim at the dead node; repoint them at
    // the new home (set_field runs the owner's own observer, so durable
    // peers journal the repoint themselves).
    for (const auto& n : nodes_) {
        if (n->id() == crashed) continue;
        vm::Interpreter& interp = n->interp();
        for (vm::ObjId id = 1; id <= interp.heap().size(); ++id) {
            const vm::Object& o = interp.heap().get(id);
            if (o.is_array || !o.cls || !naming::parse_proxy(o.cls->name)) continue;
            const auto [to_node, old_oid] = proxy_target(interp, id);
            if (to_node != crashed) continue;
            const auto it = remap.find(old_oid);
            if (it == remap.end()) continue;
            set_proxy_target(interp, id, target, it->second);
        }
    }

    if (directory_.enabled()) directory_changed();
    if (wal_relocated_) wal_relocated_->add(relocated);
    journal_.record(obs::JournalEvent::Kind::Recover, landed.at_us, crashed, target,
                    img.objects.size(), image_bytes, {});
    for (const auto& n : nodes_) n->sync_guest_time();
    log_info("runtime", "recovered node ", crashed, " onto ", target, ": ",
             img.objects.size(), " objects (", relocated, " relocated, ",
             img.replies.size(), " cached replies) from a ", image_bytes,
             "-byte durable image");
    relocations_[crashed] = Relocation{target, std::move(remap)};
    return img.objects.size();
}

void System::enable_adaptation(AdaptPolicy policy) {
    policy.enabled = true;
    ensure_replica_counters();
    adapt_ = std::make_unique<AdaptationEngine>(*this, policy);
}

bool System::adaptation_tick(bool force) {
    return adapt_ ? adapt_->tick(network_.now_us(), force) : false;
}

void System::adaptation_finalize() {
    if (adapt_) adapt_->finalize();
}

std::pair<net::NodeId, vm::ObjId> System::find_singleton(const std::string& cls) {
    for (const auto& n : nodes_) {
        auto it = n->singletons_.find(cls);
        if (it != n->singletons_.end()) return {n->id(), it->second};
    }
    return {-1, 0};
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
    const std::string proto = policy_.default_protocol();
    // Reliable control channel, like migration — but NOT a barrier: only
    // the reader learns (its clock reconciles to the landing).
    const ShippedState state = ship_state(node(primary), oid, reader, proto);
    r.reconcile_clock(state.landed.at_us);
    const vm::ObjId copy = install_state(r, state, proto);
    replicas_.put(primary, oid, cls, Replica{reader, copy, true});
    r.sync_guest_time();
    log_info("runtime", "replicated ", cls, " (", primary, ",", oid, ") -> node ",
             reader);
    return copy;
}

void System::refresh_replica(const std::string& cls, net::NodeId primary,
                             vm::ObjId oid, Replica& r) {
    ensure_replica_counters();
    Node& reader = node(r.node);
    const std::string proto = policy_.default_protocol();
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
    msg.request_id = next_request_id();
    msg.src_node = from.id();
    msg.cls = *s.cls;
    for (const model::FieldSlot& slot : s.layout->slots)
        msg.args.push_back(from.export_value(from.interp().get_field(oid, slot.name)));
    s.bytes = codec(proto).encode_request(msg).size();
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
    for (auto& [_, lane] : batch_lanes_) lane.joinable = false;
}

void System::directory_changed() {
    // Stale per-node caches are shed at the barrier the control operation
    // already imposes.
    directory_.invalidate_caches();
    dir_updates_->add();
    dir_entries_->set(static_cast<std::int64_t>(directory_.total_entries()));
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
    if (directory_.enabled()) {
        const net::NodeId owner = directory_.object_owner(primary, oid);
        if (owner != primary) {
            net::Delivery hop =
                network_.transfer_at(primary, owner, kDirectoryLookupBytes, origin_clock);
            node(owner).reconcile_clock(hop.at_us);
            origin = owner;
            origin_clock = node(owner).clock_us();
        }
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
            const auto [via_node, via_oid] = proxy_target(t.interp(), v.as_ref());
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
        vm::Interpreter& interp = node(node_id).interp();
        if (!naming::parse_proxy(interp.class_of(oid).name)) return {node_id, oid};
        std::tie(node_id, oid) = proxy_target(interp, oid);
        if (hops) ++*hops;
    }
}

int System::shorten_chain(net::NodeId node_id, vm::ObjId oid) {
    vm::Interpreter& interp = node(node_id).interp();
    if (!naming::parse_proxy(interp.class_of(oid).name)) return 0;
    // Every proxy past this one is an intermediate hop being bypassed.
    const auto [first_node, first_oid] = proxy_target(interp, oid);
    int hops = 0;
    const auto [term_node, term_oid] = resolve_terminal(first_node, first_oid, &hops);
    if (hops == 0) return 0;
    set_proxy_target(interp, oid, term_node, term_oid);
    chain_shortenings_counter_->add();
    chain_hops_removed_counter_->add(static_cast<std::uint64_t>(hops));
    return hops;
}

System::RpcTotals System::rpc_totals() const {
    RpcTotals t;
    for (const auto& [_, pm] : proto_metrics_) {
        t.calls += pm.calls->value() + pm.creates->value() + pm.discovers->value();
        t.bytes += pm.request_bytes->value() + pm.reply_bytes->value();
    }
    return t;
}

void System::enable_directory(DirectoryPolicy policy) {
    const std::size_t shards =
        policy.shards == 0
            ? nodes_.size()
            : std::min<std::size_t>(policy.shards, nodes_.size());
    if (shards == 0)
        throw RuntimeError("enable_directory requires at least one node");
    std::vector<net::NodeId> owners;
    owners.reserve(shards);
    for (std::size_t k = 0; k < shards; ++k)
        owners.push_back(static_cast<net::NodeId>(k));
    directory_.configure(std::move(owners));
    dir_lookups_ = &metrics_.counter("directory.lookups");
    dir_remote_ = &metrics_.counter("directory.remote");
    dir_cache_hits_ = &metrics_.counter("directory.cache_hits");
    dir_updates_ = &metrics_.counter("directory.updates");
    dir_entries_ = &metrics_.gauge("directory.entries");
}

void System::directory_control_trip(net::NodeId asker, net::NodeId owner) {
    dir_remote_->add();
    Node& a = node(asker);
    Node& o = node(owner);
    net::Delivery query =
        network_.transfer_at(asker, owner, kDirectoryLookupBytes, a.clock_us());
    o.reconcile_clock(query.at_us);
    // Serving the lookup costs the shard node CPU — the serialization a
    // single-shard directory concentrates and the ring spreads.
    o.advance_clock(kDirectoryLookupCpuUs);
    net::Delivery answer =
        network_.transfer_at(owner, asker, kDirectoryLookupBytes, o.clock_us());
    a.reconcile_clock(answer.at_us);
}

Placement System::directory_discover(const std::string& cls, net::NodeId asker) {
    dir_lookups_->add();
    if (const DirLocation* hit = directory_.cached_singleton(asker, cls)) {
        dir_cache_hits_->add();
        return Placement{hit->node, hit->protocol};
    }
    const net::NodeId owner = directory_.singleton_owner(cls);
    if (owner != asker) directory_control_trip(asker, owner);
    const DirLocation* entry = directory_.find_singleton(cls);
    if (!entry) {
        // First demand: the shard materializes the entry from the
        // placement policy's initial assignment.
        Placement p = policy_.singleton_placement(cls, asker);
        directory_.put_singleton(cls, p.node, p.protocol);
        dir_updates_->add();
        dir_entries_->set(static_cast<std::int64_t>(directory_.total_entries()));
        entry = directory_.find_singleton(cls);
    }
    directory_.cache_singleton(asker, cls, *entry);
    return Placement{entry->node, entry->protocol};
}

std::pair<net::NodeId, vm::ObjId> System::directory_resolve(net::NodeId asker,
                                                            net::NodeId node_id,
                                                            vm::ObjId oid) {
    if (!directory_.enabled())
        throw RuntimeError("directory_resolve requires enable_directory()");
    dir_lookups_->add();
    const net::NodeId owner =
        directory_.object_owner(node_id, static_cast<std::uint64_t>(oid));
    if (owner != asker) directory_control_trip(asker, owner);
    auto [n, o] = directory_.chase_object(node_id, static_cast<std::uint64_t>(oid));
    return {n, static_cast<vm::ObjId>(o)};
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
    // The journal's observation window must rebase together with the
    // utilization epoch: both now describe "since the reset", so timeline
    // events and windowed rates stay comparable (DESIGN.md §16).
    journal_.rebase(network_.now_us());
    // The adaptation windows are deltas of the counters just zeroed.
    if (adapt_) adapt_->rebase();
    // Breaker *state* is semantic, not accounting: re-publish it so the
    // zeroed gauges don't claim every breaker is closed.
    for (auto& [key, b] : breakers_) b.set_state(b.state);
}

}  // namespace rafda::runtime
