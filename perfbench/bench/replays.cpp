#include "replays.hpp"

#include <algorithm>
#include <cctype>
#include <memory>
#include <optional>

#include "model/verifier.hpp"
#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "runtime/sched.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "transform/analysis.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rafda;

namespace {

/// Keeps results observable so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

/// Runs `op(i)` for i = 0..n-1 in passes until `budget_s` has elapsed
/// (at least one pass); returns nanoseconds per op.
template <typename Op>
double ns_per_op(std::size_t n, double budget_s, Op&& op) {
    if (n == 0) return 0.0;
    const std::int64_t budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
    std::int64_t spent = 0;
    std::uint64_t ops = 0;
    do {
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < n; ++i) op(i);
        spent += now_ns() - t0;
        ops += n;
    } while (spent < budget_ns);
    return static_cast<double>(spent) / static_cast<double>(ops);
}

net::CallRequest make_request(const CallShape& c, std::uint64_t id) {
    net::CallRequest r;
    r.kind = net::RequestKind::Invoke;
    r.request_id = id;
    r.src_node = 0;
    r.target_oid = 2;
    r.method = c.echo ? "echo" : "work";
    r.desc = c.echo ? "(S)S" : "(J)J";
    r.args.push_back(c.echo ? net::MarshalledValue::of_str(c.payload)
                            : net::MarshalledValue::of_long(c.x));
    return r;
}

net::CallReply make_reply(const CallShape& c, std::uint64_t id) {
    net::CallReply r;
    r.request_id = id;
    r.result = c.echo ? net::MarshalledValue::of_str(c.payload)
                      : net::MarshalledValue::of_long(service_work(0, c.x));
    return r;
}

std::string lower(std::string s) {
    for (char& ch : s) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return s;
}

struct CodecCost {
    double encode_request = 0, decode_request = 0, encode_reply = 0, decode_reply = 0;
    double total() const { return encode_request + decode_request + encode_reply + decode_reply; }
};

CodecCost replay_codec(const std::string& protocol, const std::vector<CallShape>& calls,
                       double budget_s) {
    const std::unique_ptr<net::Codec> codec = net::make_codec(protocol);
    std::vector<net::CallRequest> reqs;
    std::vector<net::CallReply> reps;
    std::vector<Bytes> req_bytes, rep_bytes;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        reqs.push_back(make_request(calls[i], i + 1));
        reps.push_back(make_reply(calls[i], i + 1));
        req_bytes.push_back(codec->encode_request(reqs.back()));
        rep_bytes.push_back(codec->encode_reply(reps.back()));
    }
    Bytes frame;
    CodecCost c;
    c.encode_request = ns_per_op(calls.size(), budget_s, [&](std::size_t i) {
        ByteWriter w(frame);
        codec->encode_request_into(reqs[i], w);
        g_sink = g_sink + frame.size();
    });
    c.decode_request = ns_per_op(calls.size(), budget_s, [&](std::size_t i) {
        g_sink = g_sink + codec->decode_request(req_bytes[i]).request_id;
    });
    c.encode_reply = ns_per_op(calls.size(), budget_s, [&](std::size_t i) {
        ByteWriter w(frame);
        codec->encode_reply_into(reps[i], w);
        g_sink = g_sink + frame.size();
    });
    c.decode_reply = ns_per_op(calls.size(), budget_s, [&](std::size_t i) {
        g_sink = g_sink + codec->decode_reply(rep_bytes[i]).request_id;
    });
    return c;
}

/// SimNetwork::transfer_at over the workload's links: each call's request
/// on its client link and the reply on the reverse link, sized as the
/// call's own protocol encodes them.
double replay_transfer(const LayerShapes& s, double budget_s) {
    std::map<std::string, std::unique_ptr<net::Codec>> codecs;
    std::vector<std::pair<std::size_t, std::size_t>> sizes;
    for (std::size_t i = 0; i < s.calls.size(); ++i) {
        auto& codec = codecs[s.calls[i].protocol];
        if (!codec) codec = net::make_codec(s.calls[i].protocol);
        sizes.emplace_back(codec->encode_request(make_request(s.calls[i], i + 1)).size(),
                           codec->encode_reply(make_reply(s.calls[i], i + 1)).size());
    }
    net::SimNetwork network(1);
    for (const auto& [link, params] : s.link_params)
        network.set_link(link.first, link.second, params);
    std::uint64_t t = 0;
    const double per_call = ns_per_op(s.calls.size(), budget_s, [&](std::size_t i) {
        const net::NodeId client = s.calls[i].client, server = s.calls[i].server;
        const net::Delivery in = network.transfer_at(client, server, sizes[i].first, t);
        const net::Delivery out =
            network.transfer_at(server, client, sizes[i].second, in.at_us);
        t = in.at_us;
        g_sink = g_sink + out.at_us;
    });
    return per_call / 2.0;
}

/// EventHeap post + pop at a steady depth of `depth` pending events.
double replay_heap(std::size_t depth, double budget_s) {
    depth = std::max<std::size_t>(depth, 1);
    runtime::EventHeap heap;
    const std::uint32_t kind = heap.register_handler([](const runtime::Event&) {});
    Rng rng(7);
    for (std::size_t i = 0; i < depth; ++i)
        heap.post(rng.below(depth * 16 + 1), static_cast<std::int32_t>(i % 104), kind);
    return ns_per_op(std::max<std::size_t>(depth, 1024), budget_s, [&](std::size_t) {
        const runtime::Event e = heap.pop();
        heap.post(e.at_us + 1 + rng.below(1024), e.node, kind, e.a, e.b);
    });
}

/// Interpreter::call_virtual on a local (transformed, O_Local) Service:
/// the dispatch the server runs for each remote call.
double replay_local_call(const std::vector<CallShape>& calls, double budget_s) {
    const model::ClassPool pool = service_pool();
    transform::PipelineOptions options;
    options.threads = 1;
    const transform::PipelineResult result = transform::run_pipeline(pool, options);
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, result.report);
    const vm::Value svc =
        interp.call_static("Service_O_Factory", "make", "()LService_O_Int;");
    interp.call_static("Service_O_Factory", "init", "(LService_O_Int;)V", {svc});
    std::vector<vm::Value> args;
    for (const CallShape& c : calls)
        args.push_back(c.echo ? vm::Value::of_str(c.payload) : vm::Value::of_long(c.x));
    return ns_per_op(calls.size(), budget_s, [&](std::size_t i) {
        const vm::Value v = calls[i].echo
                                ? interp.call_virtual(svc, "echo", "(S)S", {args[i]})
                                : interp.call_virtual(svc, "work", "(J)J", {args[i]});
        g_sink = g_sink + (v.is_null() ? 0u : 1u);
    });
}

double replay_journal(const LayerShapes& s, double budget_s) {
    obs::Journal journal;
    journal.set_capacity(s.journal_capacity);
    journal.set_enabled(true);
    return ns_per_op(s.journal.size(), budget_s, [&](std::size_t i) {
        const obs::JournalEvent& e = s.journal[i];
        journal.record(e.kind, e.t_us, e.node, e.peer, e.a, e.b, e.detail);
    });
}

/// Appends the record mix into a fresh Wal per pass, so the log does not
/// grow without bound.
double replay_wal(const LayerShapes& s, double budget_s) {
    const std::int64_t budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
    std::int64_t spent = 0;
    std::uint64_t ops = 0;
    do {
        runtime::Wal wal;
        const std::int64_t t0 = now_ns();
        for (const auto& append : s.wal) append(wal);
        spent += now_ns() - t0;
        ops += s.wal.size();
        g_sink = g_sink + wal.log().size();
    } while (spent < budget_ns);
    return static_cast<double>(spent) / static_cast<double>(ops);
}

/// The transformation's phases on the workload's input program:
/// analyze and verify timed directly, generation from the pipeline's own
/// phase counter (which excludes its pool start-up).
void replay_transform(const model::ClassPool& input, MetricMap& out, double budget_s) {
    const std::size_t threads = transform_threads();
    std::optional<support::ThreadPool> pool_storage;
    support::ThreadPool* workers = threads > 1 ? &pool_storage.emplace(threads) : nullptr;
    obs::Registry registry;
    transform::PipelineOptions options;
    options.threads = threads;
    options.verify_output = false;
    options.metrics = &registry;
    const std::int64_t budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
    const std::int64_t start = now_ns();
    std::int64_t analyze_ns = 0, verify_ns = 0;
    std::uint64_t runs = 0;
    do {
        const std::int64_t t0 = now_ns();
        const transform::Analysis analysis = transform::analyze(input, workers);
        const std::int64_t t1 = now_ns();
        const transform::PipelineResult result = transform::run_pipeline(input, options);
        const std::int64_t t2 = now_ns();
        model::verify_pool(result.pool, workers);
        const std::int64_t t3 = now_ns();
        analyze_ns += t1 - t0;
        verify_ns += t3 - t2;
        ++runs;
        g_sink = g_sink + analysis.total();
    } while (now_ns() - start < budget_ns);
    const double n = static_cast<double>(runs);
    out["transform.analyze_ms"] = {static_cast<double>(analyze_ns) / n / 1e6, "ms"};
    out["transform.generate_ms"] = {
        static_cast<double>(registry.counter("transform.generate_us").value()) / n / 1e3,
        "ms"};
    out["model.verify_ms"] = {static_cast<double>(verify_ns) / n / 1e6, "ms"};
}

/// The rpc_small call: one work(J)J over RMI.
void apply_fallbacks(LayerShapes& s) {
    if (s.calls.empty()) {
        for (std::int64_t x = 1; x <= 64; ++x) s.calls.push_back(CallShape{"RMI", false, x, {}, 0, 1});
    }
    if (s.journal.empty()) {
        using K = obs::JournalEvent::Kind;
        for (std::uint64_t id = 1; id <= 64; ++id) {
            const std::uint64_t t = id * 250;
            s.journal.push_back({K::RpcSend, 0, t, 0, 1, id, 40, "Service.work"});
            s.journal.push_back({K::RpcArrive, 0, t + 100, 1, 0, id, 40, {}});
            s.journal.push_back({K::RpcDispatch, 0, t + 101, 1, 0, id, 0, "work"});
            s.journal.push_back({K::RpcReply, 0, t + 202, 0, 1, id, 30, {}});
        }
    }
    if (s.wal.empty()) {
        // What one work() call journals on a durable server: two field
        // writes and the cached reply.
        for (std::uint64_t id = 1; id <= 64; ++id) {
            const std::uint64_t t = id * 250;
            s.wal.push_back([t](runtime::Wal& w) {
                w.append_field_put(t, 2, 1, vm::Value::of_int(static_cast<std::int32_t>(t)));
            });
            s.wal.push_back([t](runtime::Wal& w) {
                w.append_field_put(t, 2, 0, vm::Value::of_long(static_cast<std::int64_t>(t)));
            });
            s.wal.push_back([t, id](runtime::Wal& w) {
                net::CallReply r;
                r.request_id = id;
                r.result = net::MarshalledValue::of_long(static_cast<std::int64_t>(t));
                w.append_reply(t, id, r);
            });
        }
    }
}

/// Re-append closures for every record kind a node's WAL holds.
class WalCollector : public runtime::WalVisitor {
public:
    explicit WalCollector(std::vector<std::function<void(runtime::Wal&)>>& out) : out_(out) {}
    void on_alloc(std::uint64_t t, const std::string& cls) override {
        out_.push_back([=](runtime::Wal& w) { w.append_alloc(t, cls); });
    }
    void on_alloc_array(std::uint64_t t, const std::string& elem, std::uint64_t n) override {
        out_.push_back([=](runtime::Wal& w) { w.append_alloc_array(t, elem, n); });
    }
    void on_field_put(std::uint64_t t, std::uint64_t oid, std::uint64_t slot,
                      const vm::Value& v) override {
        out_.push_back([=](runtime::Wal& w) { w.append_field_put(t, oid, slot, v); });
    }
    void on_array_put(std::uint64_t t, std::uint64_t oid, std::uint64_t index,
                      const vm::Value& v) override {
        out_.push_back([=](runtime::Wal& w) { w.append_array_put(t, oid, index, v); });
    }
    void on_static_put(std::uint64_t t, const std::string& cls, const std::string& field,
                       const vm::Value& v) override {
        out_.push_back([=](runtime::Wal& w) { w.append_static_put(t, cls, field, v); });
    }
    void on_class_init(std::uint64_t t, const std::string& cls) override {
        out_.push_back([=](runtime::Wal& w) { w.append_class_init(t, cls); });
    }
    void on_singleton(std::uint64_t t, const std::string& cls, std::uint64_t oid) override {
        out_.push_back([=](runtime::Wal& w) { w.append_singleton(t, cls, oid); });
    }
    void on_singleton_drop(std::uint64_t t, const std::string& cls) override {
        out_.push_back([=](runtime::Wal& w) { w.append_singleton_drop(t, cls); });
    }
    void on_proxy_import(std::uint64_t t, std::int32_t node, std::uint64_t oid,
                         const std::string& iface, const std::string& protocol,
                         std::uint64_t local) override {
        out_.push_back([=](runtime::Wal& w) {
            w.append_proxy_import(t, node, oid, iface, protocol, local);
        });
    }
    void on_reply(std::uint64_t t, std::uint64_t id, const net::CallReply& reply) override {
        out_.push_back([=](runtime::Wal& w) { w.append_reply(t, id, reply); });
    }
    void on_transmute(std::uint64_t t, std::uint64_t oid, const std::string& cls,
                      std::int32_t node, std::uint64_t remote) override {
        out_.push_back([=](runtime::Wal& w) { w.append_transmute(t, oid, cls, node, remote); });
    }
    void on_relocate(std::uint64_t t, std::uint64_t oid, const std::string& cls,
                     std::int32_t node, std::uint64_t remote) override {
        out_.push_back([=](runtime::Wal& w) { w.append_relocate(t, oid, cls, node, remote); });
    }

private:
    std::vector<std::function<void(runtime::Wal&)>>& out_;
};

}  // namespace

void collect_wal_records(const Bytes& stream,
                         std::vector<std::function<void(runtime::Wal&)>>& out) {
    WalCollector collector(out);
    runtime::Wal::replay(stream, collector);
}

void replay_layers(LayerShapes s, MetricMap& out, double budget_s) {
    apply_fallbacks(s);
    std::map<std::string, double> weight;
    for (const CallShape& c : s.calls) weight[c.protocol] += 1.0 / static_cast<double>(s.calls.size());

    double codec_ns = 0.0;
    for (const std::string protocol : {"RMI", "CORBA", "SOAP"}) {
        const CodecCost c = replay_codec(protocol, s.calls, budget_s);
        const std::string p = "codec." + lower(protocol) + ".";
        out[p + "encode_request_ns"] = {c.encode_request, "ns"};
        out[p + "decode_request_ns"] = {c.decode_request, "ns"};
        out[p + "encode_reply_ns"] = {c.encode_reply, "ns"};
        out[p + "decode_reply_ns"] = {c.decode_reply, "ns"};
        const auto w = weight.find(protocol);
        if (w != weight.end()) codec_ns += w->second * c.total();
    }
    const double transfer_ns = replay_transfer(s, budget_s);
    const double local_ns = replay_local_call(s.calls, budget_s);
    out["net.transfer_at_ns"] = {transfer_ns, "ns"};
    out["vm.local_call_ns"] = {local_ns, "ns"};
    out["sched.post_pop_ns"] = {replay_heap(s.heap_depth, budget_s), "ns"};
    out["journal.record_ns"] = {replay_journal(s, budget_s), "ns"};
    out["wal.append_ns"] = {replay_wal(s, budget_s), "ns"};
    if (s.input) {
        replay_transform(*s.input, out, budget_s);
    } else {
        const model::ClassPool pool = service_pool();
        replay_transform(pool, out, budget_s);
    }
    const auto call = out.find("rpc.call_ns");
    if (call != out.end())
        out["rpc.self_ns_est"] = {call->second.value - codec_ns - 2.0 * transfer_ns - local_ns,
                                  "ns"};
}

}  // namespace perfbench
