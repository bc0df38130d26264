// Allocation guard for the call path.
//
// A remote call runs a native proxy frame on the caller and the
// transformed guest frames on the callee; a local call runs only the
// guest frames.  Once the interpreter's per-depth frame buffers, inline
// caches and native bindings are warm, neither path builds a vector or a
// string per frame: the only heap allocations left on a remote call are
// the wire model's argument vectors.  This binary replaces the global
// operator new with a counting one and checks both counts, and that the
// transformed program still computes what the original one does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
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
