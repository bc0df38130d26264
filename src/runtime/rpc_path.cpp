#include "runtime/rpc_path.hpp"

#include <cmath>

#include "runtime/node.hpp"
#include "runtime/system.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace rafda::runtime {

using vm::Value;

RpcPath::RpcPath(System& system, const std::vector<std::string>& protocols,
                 const RetryPolicy& reliability, const BatchPolicy& batching,
                 std::uint64_t seed)
    : system_(system),
      metrics_(system.metrics()),
      tracer_(system.tracer()),
      journal_(system.journal()),
      network_(system.network()),
      reliability_(reliability),
      batching_(batching),
      retry_jitter_rng_(Rng::mix(seed, 0x6a697474ULL)),
      retries_(&metrics_.counter("rpc.retries")),
      retries_reply_loss_(&metrics_.counter("rpc.retries_reply_loss")),
      timeouts_(&metrics_.counter("rpc.timeouts")),
      dedup_hits_(&metrics_.counter("rpc.dedup_hits")),
      breaker_open_(&metrics_.counter("rpc.breaker_open")),
      batch_frames_(&metrics_.counter("rpc.batch.frames")),
      batch_coalesced_(&metrics_.counter("rpc.batch.coalesced")),
      batch_entry_bytes_(&metrics_.counter("rpc.batch.entry_bytes")),
      batch_latency_saved_us_(&metrics_.counter("rpc.batch.latency_saved_us")) {
    for (const std::string& name : protocols)
        protocols_.emplace(name, Protocol{name, net::make_codec(name)});
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
}

Protocol& RpcPath::protocol(const std::string& name) {
    const auto it = protocols_.find(name);
    if (it == protocols_.end()) throw RuntimeError("no codec for protocol " + name);
    return it->second;
}

CircuitBreaker& RpcPath::breaker(net::NodeId dst, const std::string& protocol) {
    auto it = breakers_.find({dst, protocol});
    if (it == breakers_.end()) {
        // Map entries never move, so the probe can hold the breaker.
        it = breakers_.emplace(std::make_pair(dst, protocol), CircuitBreaker{}).first;
        metrics_.register_probe(
            "rpc.breaker." + std::to_string(dst) + "." + protocol + ".state",
            [&b = it->second] { return static_cast<std::int64_t>(b.state); });
    }
    return it->second;
}

void RpcPath::visit_breakers(
    const std::function<void(net::NodeId, const std::string&, const CircuitBreaker&)>&
        fn) const {
    for (const auto& [key, b] : breakers_) fn(key.first, key.second, b);
}

net::CallReply RpcPath::rpc(net::NodeId src, net::NodeId dst, Protocol& proto,
                            net::CallRequest& req) {
    if (!proto.calls) {
        const std::string prefix = "rpc.proto." + proto.name + ".";
        proto.calls = &metrics_.counter(prefix + "calls");
        proto.creates = &metrics_.counter(prefix + "creates");
        proto.discovers = &metrics_.counter(prefix + "discovers");
        proto.faults = &metrics_.counter(prefix + "faults");
        proto.drops = &metrics_.counter(prefix + "drops");
        proto.request_bytes = &metrics_.counter(prefix + "request_bytes");
        proto.reply_bytes = &metrics_.counter(prefix + "reply_bytes");
        proto.request_size = &metrics_.histogram(prefix + "request_size");
        proto.reply_size = &metrics_.histogram(prefix + "reply_size");
    }
    Node& caller = system_.node(src);
    switch (req.kind) {
        case net::RequestKind::Invoke: proto.calls->add(); break;
        case net::RequestKind::Create: proto.creates->add(); break;
        case net::RequestKind::Discover: proto.discovers->add(); break;
    }
    const RetryPolicy& rp = reliability_;
    if (rp.deadline_us && req.deadline_us == 0)
        req.deadline_us = caller.clock_us() + rp.deadline_us;
    const std::uint32_t max_attempts = std::max<std::uint32_t>(1, rp.attempts);
    CircuitBreaker* br = rp.breaker_threshold ? &breaker(dst, proto.name) : nullptr;
    const net::FaultPlan& plan = network_.fault_plan();

    Dropped last{"", false};
    net::CallReply reply;
    for (std::uint32_t attempt = 0;; ++attempt) {
        // Circuit breaker gate: while open, fail fast with no wire traffic
        // until the cooldown has elapsed, then let one half-open probe
        // through.  Fast-fails are not failure evidence (nothing was
        // learned about the transport), so they don't bump the counter.
        if (br && br->state == CircuitBreaker::State::Open) {
            if (caller.clock_us() >= br->opened_at_us + rp.breaker_cooldown_us) {
                br->state = CircuitBreaker::State::HalfOpen;
                journal_.record(obs::JournalEvent::Kind::Breaker, caller.clock_us(), dst,
                                src, 2, 0, proto.name);
            } else {
                breaker_open_->add();
                throw Dropped{"breaker open for node " + std::to_string(dst) + " via " +
                                  proto.name,
                              last.executed_remotely, /*fast_fail=*/true};
            }
        }
        // A destination known to be crashed fails fast (the simulation
        // analogue of connection-refused): no latency is charged and no
        // PRNG is drawn, but the attempt still counts against the policy.
        if (plan.node_down(dst, caller.clock_us())) {
            proto.drops->add();
            note_node_fault(dst, true, caller.clock_us());
            last = Dropped{"node " + std::to_string(dst) + " is down",
                           /*executed_remotely=*/false, /*fast_fail=*/true};
        } else {
            note_node_fault(dst, false, caller.clock_us());
            req.attempt = attempt;
            bool delivered;
            {
                obs::ScopedSpan span;
                if (attempt > 0) {
                    span = obs::ScopedSpan(
                        tracer_, [&] { return "rpc.attempt " + std::to_string(attempt); },
                        src);
                    tracer_.note("request_id", req.request_id);
                }
                delivered = rpc_attempt(src, dst, proto, req, reply, last);
            }
            if (delivered) {
                // Any decoded reply — fault or not — proves the transport
                // round-trip works; guest-level faults never trip the
                // breaker and are never retried.
                if (br) {
                    const bool reopened = br->state != CircuitBreaker::State::Closed;
                    br->record_success();
                    if (reopened)
                        journal_.record(obs::JournalEvent::Kind::Breaker,
                                        caller.clock_us(), dst, src, 0, 0, proto.name);
                }
                return reply;
            }
        }
        if (br && br->record_failure(rp.breaker_threshold, caller.clock_us())) {
            log_info("runtime", "breaker opened for node ", dst, " via ", proto.name);
            journal_.record(obs::JournalEvent::Kind::Breaker, caller.clock_us(), dst, src,
                            1, 0, proto.name);
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
            timeouts_->add();
            journal_.record(obs::JournalEvent::Kind::RpcTimeout, caller.clock_us(), src,
                            dst, req.request_id, 0, "client");
            last.what = "deadline exceeded after " + std::to_string(attempt + 1) +
                        " attempt(s): " + last.what;
            break;
        }
        caller.advance_clock(delay);
        ++retries_spent_;
        retries_->add();
        if (last.executed_remotely) retries_reply_loss_->add();
        journal_.record(obs::JournalEvent::Kind::RpcRetry, caller.clock_us(), src, dst,
                        req.request_id, attempt + 1, {});
    }
    throw last;
}

void RpcPath::note_node_fault(net::NodeId dst, bool down, std::uint64_t t_us) {
    if (!journal_.enabled()) return;
    auto [it, inserted] = node_fault_seen_.try_emplace(dst, false);
    if (it->second != down || (inserted && down))
        journal_.record(obs::JournalEvent::Kind::FaultEdge, t_us, dst, -1,
                        down ? 1 : 0, 0, "node");
    it->second = down;
}

bool RpcPath::rpc_attempt(net::NodeId src, net::NodeId dst, Protocol& proto,
                          net::CallRequest& req, net::CallReply& out, Dropped& loss) {
    const net::Codec& c = *proto.codec;
    Node& caller = system_.node(src);
    Node& callee = system_.node(dst);
    // The caller's trace context travels host-side, never on the wire, so
    // tracing cannot change a wire byte.  The server parents its dispatch
    // span from it.
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
    // the failure then, and the attempt reports it in `loss`.  `executed`
    // marks the reply-loss arm of at-most-once, where the callee already
    // ran the call (DESIGN.md §12).
    auto lose = [&](std::uint64_t at_us, net::NodeId from, net::NodeId to,
                    const char* where, bool executed, std::string what) {
        proto.drops->add();
        tracer_.note("dropped", where);
        journal_.record(obs::JournalEvent::Kind::RpcDrop, at_us, from, to,
                        req.request_id, 0, where);
        caller.reconcile_clock(at_us);
        loss = Dropped{std::move(what), executed};
        return false;
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
        obs::ScopedSpan span(
            tracer_, [&] { return "codec.encode_request " + proto.name; }, src);
        // Batch join: if the directed link still carries an earlier
        // same-protocol request frame with room, tentatively encode this
        // call as a compact continuation entry.  The join must be decided
        // against the clock *after* the encode charge (the entry's own
        // size sets the charge), so encode first and fall back to a full
        // frame when the link turns out to be free by then.
        if (lane && lane->joinable && lane->protocol == &proto &&
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
        proto.request_bytes->add(request_bytes.size());
        proto.request_size->record(request_bytes.size());
        req.sim_wire_bytes += request_bytes.size();
        caller.advance_clock(codec_cost(request_bytes.size()).first);
    }
    const std::uint64_t send_us = caller.clock_us();
    if (journal_.enabled())  // the only detail built per call
        journal_.record(obs::JournalEvent::Kind::RpcSend, send_us, src, dst,
                        req.request_id, request_bytes.size(),
                        req.stat_class.empty()
                            ? proto.name
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
                                                            send_us)
                           : network_.transfer_at(src, dst, request_bytes.size(),
                                                  send_us);
        tracer_.pin(span.id(), send_us, inbound.at_us);
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
            *lane = BatchLane{&proto, net::BatchContext{src, req.request_id}, 0,
                              c.supports_batch_entries()};
        } else {
            // The frame (or the frame this entry joined) died on the
            // wire; nothing in flight is joinable any more.
            lane->joinable = false;
        }
        // The decode half of the codec budget is never spent on a lost
        // request — it never reached a parser.
        if (!inbound.delivered)
            return lose(inbound.at_us, src, dst, "request", false,
                        "request lost on link " + std::to_string(src) + "->" +
                            std::to_string(dst));
    }
    // A request landing on a crashed node dies there — never executed.
    // (The caller observes the failure at the arrival time; a node whose
    // crash window ended by then restarts first — shedding its soft state,
    // or recovering from its WAL when durable.)
    const net::FaultPlan& plan = network_.fault_plan();
    callee.apply_restarts(plan.restarts_before(dst, inbound.at_us));
    if (plan.node_down(dst, inbound.at_us)) {
        note_node_fault(dst, true, inbound.at_us);
        return lose(inbound.at_us, src, dst, "dest_crashed", false,
                    "request reached crashed node " + std::to_string(dst));
    }
    journal_.record(obs::JournalEvent::Kind::RpcArrive, inbound.at_us, dst, src,
                    req.request_id, request_bytes.size(), {});
    // The server cannot see the request before both its own prior work and
    // the wire delivery are done: clock reconciliation, join point one.
    callee.reconcile_clock(inbound.at_us);
    // Decoded into this depth's reused request, so a warm call allocates
    // no argument vector.
    const auto decoded_slot = decoded_.lease();
    net::CallRequest& decoded = *decoded_slot;
    {
        obs::ScopedSpan span(
            tracer_, [&] { return "codec.decode_request " + proto.name; }, dst);
        if (coalesce)
            c.decode_batch_entry_into(request_bytes, entry_ctx, decoded);
        else
            c.decode_request_into(request_bytes, decoded);
        callee.advance_clock(codec_cost(request_bytes.size()).second);
    }
    net::CallReply reply;
    {
        const std::string& what =
            decoded.kind == net::RequestKind::Invoke ? decoded.method : decoded.cls;
        obs::ScopedSpan span = obs::ScopedSpan::remote(
            tracer_, [&] { return "rpc.dispatch " + what; }, dst, trace_id, parent_span);
        if (decoded.attempt) tracer_.note("attempt", decoded.attempt);
        // Dispatch is charged on the destination node's clock; its guest
        // code observes the server's own time, not the caller's.
        journal_.record(obs::JournalEvent::Kind::RpcDispatch, callee.clock_us(), dst, src,
                        decoded.request_id, decoded.attempt, what);
        reply = callee.handle_request(decoded, proto.name, inbound.at_us);
    }

    support::PooledBuffer reply_frame(buffer_pool_);
    Bytes& reply_bytes = reply_frame.bytes();
    {
        obs::ScopedSpan span(tracer_, [&] { return "codec.encode_reply " + proto.name; },
                             dst);
        ByteWriter w(reply_bytes);
        c.encode_reply_into(reply, w);
        proto.reply_bytes->add(reply_bytes.size());
        proto.reply_size->record(reply_bytes.size());
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
            return lose(outbound.at_us, dst, src, "reply", true,
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
    {
        obs::ScopedSpan span(tracer_, [&] { return "codec.decode_reply " + proto.name; },
                             src);
        out = c.decode_reply(reply_bytes);
        caller.advance_clock(codec_cost(reply_bytes.size()).second);
    }
    // The callee answers from the request it decoded, which a nested call
    // must not have overwritten (DESIGN.md §11).
    if (out.request_id != req.request_id)
        throw RuntimeError("reply carries request id " + std::to_string(out.request_id) +
                           ", expected " + std::to_string(req.request_id));
    if (out.is_fault) proto.faults->add();
    return true;
}

Value RpcPath::remote_call(Node& self, net::NodeId dst, Protocol& proto,
                          net::CallRequest& req, obs::Histogram& latency,
                          obs::Counter* edge_bytes) {
    const std::uint64_t t0 = self.clock_us();
    auto account = [&] {
        if (edge_bytes) edge_bytes->add(req.sim_wire_bytes);
        latency.record(self.clock_us() - t0);
    };
    net::CallReply reply;
    try {
        reply = rpc(self.id(), dst, proto, req);
    } catch (const Dropped& d) {
        account();
        self.throw_remote_fault(d.what);
    }
    account();
    if (reply.is_fault) self.rethrow_fault(reply);
    return self.import_value(std::move(reply.result), proto.name);
}

void RpcPath::note_dedup_hit(std::uint64_t request_id, net::NodeId node,
                             std::uint64_t t_us) {
    dedup_hits_->add();
    journal_.record(obs::JournalEvent::Kind::DedupHit, t_us, node, -1, request_id, 0, {});
}

void RpcPath::note_server_timeout(std::uint64_t request_id, net::NodeId node,
                                  std::uint64_t t_us) {
    timeouts_->add();
    journal_.record(obs::JournalEvent::Kind::RpcTimeout, t_us, node, -1, request_id, 0,
                    "server");
}

void RpcPath::close_batch_lanes() {
    for (auto& [_, lane] : batch_lanes_) lane.joinable = false;
}

RpcTotals RpcPath::totals() const {
    RpcTotals t;
    for (const auto& [_, p] : protocols_) {
        if (!p.calls) continue;
        t.calls += p.calls->value() + p.creates->value() + p.discovers->value();
        t.bytes += p.request_bytes->value() + p.reply_bytes->value();
    }
    return t;
}

}  // namespace rafda::runtime
