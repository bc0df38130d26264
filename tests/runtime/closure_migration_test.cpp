// migrate_closure: moving a whole object cluster in one step, so chatty
// intra-cluster calls stay local after the move.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Engine {
  field cache LCache;
  field stats LStats;
  ctor ()V {
    return
  }
  method wire (LCache;LStats;)V {
    load 0
    load 1
    putfield Engine.cache LCache;
    load 0
    load 2
    putfield Engine.stats LStats;
    return
  }
  method query (I)I {
    load 0
    getfield Engine.stats LStats;
    invokevirtual Stats.count ()V
    load 0
    getfield Engine.cache LCache;
    load 1
    invokevirtual Cache.lookup (I)I
    returnvalue
  }
}
class Cache {
  field hits I
  ctor ()V {
    return
  }
  method lookup (I)I {
    load 0
    load 0
    getfield Cache.hits I
    const 1
    add
    putfield Cache.hits I
    load 1
    const 10
    mul
    returnvalue
  }
}
class Stats {
  field queries I
  ctor ()V {
    return
  }
  method count ()V {
    load 0
    load 0
    getfield Stats.queries I
    const 1
    add
    putfield Stats.queries I
    return
  }
  method queries ()I {
    load 0
    getfield Stats.queries I
    returnvalue
  }
}
)";

struct ClosureFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;
    Value engine, cache, stats;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
        engine = system->construct(0, "Engine", "()V");
        cache = system->construct(0, "Cache", "()V");
        stats = system->construct(0, "Stats", "()V");
        system->node(0).interp().call_virtual(
            engine, "wire", "(LCache_O_Int;LStats_O_Int;)V", {cache, stats});
    }
};

TEST_F(ClosureFixture, MovesWholeCluster) {
    std::size_t moved = system->migrate_closure(0, engine.as_ref(), 1, "RMI");
    EXPECT_EQ(moved, 3u);  // engine + cache + stats
    // All three slots on node 0 are now proxies.
    vm::Interpreter& n0 = system->node(0).interp();
    EXPECT_EQ(n0.class_of(engine.as_ref()).name, "Engine_O_Proxy_RMI");
    EXPECT_EQ(n0.class_of(cache.as_ref()).name, "Cache_O_Proxy_RMI");
    EXPECT_EQ(n0.class_of(stats.as_ref()).name, "Stats_O_Proxy_RMI");
}

TEST_F(ClosureFixture, IntraClusterCallsStayLocalAfterMove) {
    vm::Interpreter& n0 = system->node(0).interp();
    n0.call_virtual(engine, "query", "(I)I", {Value::of_int(1)});

    system->migrate_closure(0, engine.as_ref(), 1, "RMI");
    system->reset_stats();
    EXPECT_EQ(n0.call_virtual(engine, "query", "(I)I", {Value::of_int(2)}).as_int(), 20);

    // Exactly one remote hop: the driver's call to the engine.  The
    // engine->cache and engine->stats calls are local on node 1 because
    // the closure moved as a unit and back-references were re-pointed.
    EXPECT_EQ(system->metrics().snapshot().counter_value("rpc.proto.RMI.calls"), 1u);
}

TEST_F(ClosureFixture, SingleMigrationLeavesChatter) {
    // Ablation for the same workload: moving only the engine leaves its
    // cache and stats behind, so each query pays three hops.
    vm::Interpreter& n0 = system->node(0).interp();
    system->migrate_instance(0, engine.as_ref(), 1, "RMI");
    system->reset_stats();
    EXPECT_EQ(n0.call_virtual(engine, "query", "(I)I", {Value::of_int(2)}).as_int(), 20);
    EXPECT_EQ(system->metrics().snapshot().counter_value("rpc.proto.RMI.calls"),
              3u);  // query + count + lookup
}

TEST_F(ClosureFixture, StatePreservedAcrossClosureMove) {
    vm::Interpreter& n0 = system->node(0).interp();
    n0.call_virtual(engine, "query", "(I)I", {Value::of_int(1)});
    n0.call_virtual(engine, "query", "(I)I", {Value::of_int(2)});
    system->migrate_closure(0, engine.as_ref(), 1);
    n0.call_virtual(engine, "query", "(I)I", {Value::of_int(3)});
    EXPECT_EQ(n0.call_virtual(stats, "queries", "()I").as_int(), 3);
}

TEST_F(ClosureFixture, SharedDiamondMovesOnce) {
    // Two engines sharing one cache: the closure from engine A includes
    // the cache; engine B keeps working through the forwarding proxy.
    Value engine2 = system->construct(0, "Engine", "()V");
    Value stats2 = system->construct(0, "Stats", "()V");
    system->node(0).interp().call_virtual(
        engine2, "wire", "(LCache_O_Int;LStats_O_Int;)V", {cache, stats2});

    std::size_t moved = system->migrate_closure(0, engine.as_ref(), 1, "RMI");
    EXPECT_EQ(moved, 3u);
    // engine2 still answers (its cache ref chains to node 1 now).
    EXPECT_EQ(system->node(0)
                  .interp()
                  .call_virtual(engine2, "query", "(I)I", {Value::of_int(4)})
                  .as_int(),
              40);
}

TEST_F(ClosureFixture, ClosureOfProxyIsRefused) {
    system->migrate_instance(0, engine.as_ref(), 1, "RMI");
    EXPECT_THROW(system->migrate_closure(0, engine.as_ref(), 1), RuntimeError);
}

TEST_F(ClosureFixture, NullFieldsAreFine) {
    Value lone = system->construct(0, "Engine", "()V");  // cache/stats null
    EXPECT_EQ(system->migrate_closure(0, lone.as_ref(), 1), 1u);
}

}  // namespace
}  // namespace rafda::runtime
