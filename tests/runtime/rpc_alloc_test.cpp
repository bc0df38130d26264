// Allocation guard for the call path.
//
// A remote call runs a native proxy frame on the caller and the
// transformed guest frames on the callee; a local call runs only the
// guest frames.  Once the interpreter's per-depth frame buffers, inline
// caches and native bindings are warm, neither path builds a vector or a
// string per frame, and a warm remote call allocates nothing.  The
// reliable path (dedup, WAL, journal, batching) allocates nothing more:
// a string argument and result move from decode to guest and back, and
// only the copies value semantics need remain.  This binary replaces the
// global operator new with a counting one and checks those counts, that a
// durable restart leaves its cached replies encoded, and that the
// transformed program still computes what the original one does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "transform/naming.hpp"
#include "vm/prelude.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kServiceApp = R"(
class Service {
  field acc J
  field calls I
  ctor ()V {
    return
  }
  method work (J)J {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 0
    load 0
    getfield Service.acc J
    const 3L
    mul
    load 1
    add
    putfield Service.acc J
    load 0
    getfield Service.acc J
    returnvalue
  }
  method echo (S)S {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    returnvalue
  }
}
)";

model::ClassPool service_pool() {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kServiceApp);
    model::verify_pool(pool);
    return pool;
}

/// Two nodes, Service homed on node 1 over RMI, runtime defaults.
struct TwoNodes {
    model::ClassPool pool = service_pool();
    std::unique_ptr<System> system;
    Value proxy;

    TwoNodes() {
        SystemOptions options;
        options.pipeline.threads = 1;
        system = std::make_unique<System>(pool, options);
        system->add_node();
        system->add_node();
        system->policy().set_instance_home("Service", 1, "RMI");
        proxy = system->construct(0, "Service", "()V");
    }
};

std::int64_t arg(int k) { return 1'000'003 * k - 77; }

/// Allocations made by one `work` call on `receiver` in `interp`, after
/// `warm` calls; the argument vector is built before the counted window.
std::uint64_t call_allocations(vm::Interpreter& interp, const Value& receiver, int warm) {
    for (int k = 0; k < warm; ++k)
        interp.call_virtual(receiver, "work", "(J)J", {Value::of_long(arg(k))});
    std::vector<Value> args{Value::of_long(arg(warm))};
    const std::uint64_t before = g_allocations.load();
    const Value r = interp.call_virtual(receiver, "work", "(J)J", std::move(args));
    const std::uint64_t made = g_allocations.load() - before;
    EXPECT_TRUE(r.is_long());
    return made;
}

TEST(RpcAlloc, WarmRemoteCallAllocatesNothing) {
    TwoNodes f;
    const std::uint64_t made = call_allocations(f.system->node(0).interp(), f.proxy, 16);
    EXPECT_EQ(made, 0u);
}

TEST(RpcAlloc, WarmLocalGuestCallAllocatesNothing) {
    TwoNodes f;
    const auto [home, oid] = f.system->node(0).proxy_target(f.proxy.as_ref());
    ASSERT_EQ(home, 1);
    vm::Interpreter& callee = f.system->node(home).interp();
    ASSERT_EQ(callee.class_of(oid).name, transform::naming::o_local("Service"));
    EXPECT_EQ(call_allocations(callee, Value::of_ref(oid), 16), 0u);
}

/// rpc_reliable's shape without its losses: node 0 serves, durable, with
/// dedup on and a cache smaller than the warm-up, batching on and the
/// journal on with a ring smaller than the warm-up; nodes 1-3 each hold a
/// proxy to their own Service instance on it, over RMI, CORBA and SOAP.
struct ReliableNodes {
    static constexpr const char* kProtocols[3] = {"RMI", "CORBA", "SOAP"};
    model::ClassPool pool;
    std::unique_ptr<System> system;
    std::vector<Value> proxies;  // proxies[k] lives on node k + 1

    explicit ReliableNodes(std::size_t dedup_capacity = 64) : pool(service_pool()) {
        SystemOptions options;
        options.pipeline.threads = 1;
        options.pipeline.generator.protocols.emplace_back("CORBA");
        options.reliability.attempts = 12;
        options.reliability.dedup = true;
        options.reliability.dedup_capacity = dedup_capacity;
        options.batching.enabled = true;
        system = std::make_unique<System>(pool, options);
        for (int k = 0; k <= 3; ++k) system->add_node();
        system->enable_durability();
        system->journal().set_capacity(256);
        system->journal().set_enabled(true);
        for (int k = 1; k <= 3; ++k) {
            system->policy().set_instance_home("Service", 0, kProtocols[k - 1]);
            proxies.push_back(system->construct(k, "Service", "()V"));
        }
    }

    std::uint64_t snapshots() { return system->metrics().counter("wal.snapshots").value(); }
};

/// Allocations made by one call; the argument vector is built before the
/// counted window and the result freed after it.  `checkpointed` is set
/// when the server took a checkpoint inside the window: a checkpoint
/// allocates once, in take_snapshot's visit_initialized.
std::uint64_t reliable_call(ReliableNodes& f, std::size_t k, Value arg, bool& checkpointed) {
    vm::Interpreter& caller = f.system->node(static_cast<net::NodeId>(k + 1)).interp();
    const bool echo = arg.is_str();
    std::vector<Value> args{std::move(arg)};
    const std::uint64_t snapshots = f.snapshots();
    const std::uint64_t before = g_allocations.load();
    const Value r = caller.call_virtual(f.proxies[k], echo ? "echo" : "work",
                                        echo ? "(S)S" : "(J)J", std::move(args));
    const std::uint64_t made = g_allocations.load() - before;
    checkpointed = f.snapshots() != snapshots;
    EXPECT_TRUE(echo ? r.is_str() : r.is_long());
    return made;
}

TEST(RpcAlloc, WarmReliableCallAllocatesNothing) {
    // A 64-byte string cannot live inline in a std::string, so each
    // distinct copy of it allocates.  Value semantics need three:
    //   1. the server's decoded argument (the wire bytes become a string);
    //   2. echo's `load 1`, which copies the local onto the operand stack;
    //   3. the caller's decoded result.
    // Everything else moves: the proxy's argument onto the wire, the
    // decoded argument into the callee's frame, the result onto the wire
    // and the decoded result to the guest.  The journal's RpcSend detail,
    // "Service.work" or "Service.echo", is short enough to live inline.
    constexpr std::uint64_t kEchoAllocations = 3;
    const std::string payload(64, 'p');
    ReliableNodes f;
    bool checkpointed = false;
    for (int round = 0; round < 200; ++round)
        for (std::size_t k = 0; k < 3; ++k) {
            reliable_call(f, k, Value::of_long(arg(round)), checkpointed);
            reliable_call(f, k, Value::of_str(payload), checkpointed);
        }
    for (std::size_t k = 0; k < 3; ++k) {
        int clean = 0;
        for (int n = 0; n < 16; ++n) {
            const std::uint64_t work = reliable_call(f, k, Value::of_long(arg(n)), checkpointed);
            if (!checkpointed) {
                ++clean;
                EXPECT_EQ(work, 0u) << "work via " << ReliableNodes::kProtocols[k];
            }
            const std::uint64_t echo = reliable_call(f, k, Value::of_str(payload), checkpointed);
            if (!checkpointed) {
                ++clean;
                EXPECT_EQ(echo, kEchoAllocations) << "echo via " << ReliableNodes::kProtocols[k];
            }
        }
        EXPECT_GE(clean, 24) << "too few calls ran without a checkpoint";
    }
}

TEST(RpcAlloc, DurableRestartLeavesItsCachedRepliesEncoded) {
    // A durable node's reply stream is its dedup cache as it stands, so its
    // own restart counts the stream's records and decodes none of them:
    // the same calls cost the same restart whether the cache kept one
    // reply or all of them.  Each 64-byte reply it decoded would allocate.
    const std::string payload(64, 'r');
    std::uint64_t restart_allocations[2] = {};
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{256}}) {
        ReliableNodes f(capacity);
        f.system->journal().set_enabled(false);
        for (int n = 0; n < 128; ++n) {
            bool checkpointed = false;
            reliable_call(f, 0, Value::of_str(payload), checkpointed);
        }
        // The three constructs are cached calls too.
        const std::size_t cached = std::min<std::size_t>(capacity, 3 + 128);
        Node& server = f.system->node(0);
        ASSERT_EQ(server.wal()->reply_count(), cached);
        const std::uint64_t before = g_allocations.load();
        server.apply_restarts(1);
        restart_allocations[capacity > 1] = g_allocations.load() - before;
        EXPECT_EQ(server.wal()->reply_count(), cached);
        EXPECT_EQ(f.system->metrics().counter("wal.recoveries").value(), 1u);
    }
    EXPECT_EQ(restart_allocations[1], restart_allocations[0]);
}

TEST(RpcAlloc, RemoteResultsMatchTheUntransformedProgram) {
    TwoNodes f;
    vm::Interpreter& caller = f.system->node(0).interp();
    vm::Interpreter reference(f.pool);
    vm::bind_prelude_natives(reference);
    const Value ref_svc = reference.construct("Service", "()V", {});
    // The guest's long arithmetic wraps, so the sums wrap too.
    std::uint64_t remote_sum = 0, reference_sum = 0;
    for (int k = 0; k < 1000; ++k) {
        remote_sum += static_cast<std::uint64_t>(
            caller.call_virtual(f.proxy, "work", "(J)J", {Value::of_long(arg(k))}).as_long());
        reference_sum += static_cast<std::uint64_t>(
            reference.call_virtual(ref_svc, "work", "(J)J", {Value::of_long(arg(k))})
                .as_long());
    }
    EXPECT_EQ(remote_sum, reference_sum);
    EXPECT_NE(reference_sum, 0u);
}

}  // namespace
}  // namespace rafda::runtime
