// Full-stack integration: one application driven through the complete
// lifecycle the paper envisions — written undistributed, transformed,
// deployed from a textual policy, exercised across three nodes and two
// protocols, adapted at runtime (instance + closure + singleton
// migrations), surviving injected faults, and serialised/reloaded as a
// binary artefact along the way.
#include <gtest/gtest.h>

#include "corpus/program_gen.hpp"
#include "model/assembler.hpp"
#include "model/binio.hpp"
#include "model/verifier.hpp"
#include "runtime/policy_config.hpp"
#include "runtime/system.hpp"
#include "transform/local_binder.hpp"
#include "vm/prelude.hpp"

namespace rafda {
namespace {

using vm::Value;

constexpr const char* kWarehouseApp = R"RIR(
class Item {
  field sku I
  field qty I
  ctor (II)V {
    load 0
    load 1
    putfield Item.sku I
    load 0
    load 2
    putfield Item.qty I
    return
  }
  method take (I)Z {
    load 0
    getfield Item.qty I
    load 1
    cmpge
    iffalse No
    load 0
    load 0
    getfield Item.qty I
    load 1
    sub
    putfield Item.qty I
    const true
    returnvalue
  No:
    const false
    returnvalue
  }
}
class Warehouse {
  field a LItem;
  field b LItem;
  static field shipments I
  ctor ()V {
    load 0
    new Item
    dup
    const 1
    const 100
    invokespecial Item.<init> (II)V
    putfield Warehouse.a LItem;
    load 0
    new Item
    dup
    const 2
    const 50
    invokespecial Item.<init> (II)V
    putfield Warehouse.b LItem;
    return
  }
  method ship (II)S {
    locals 3
    load 1
    const 1
    cmpeq
    iffalse UseB
    load 0
    getfield Warehouse.a LItem;
    store 3
    goto Go
  UseB:
    load 0
    getfield Warehouse.b LItem;
    store 3
  Go:
    load 3
    load 2
    invokevirtual Item.take (I)Z
    iffalse Fail
    getstatic Warehouse.shipments I
    const 1
    add
    putstatic Warehouse.shipments I
    const "shipped sku "
    load 1
    concat
    returnvalue
  Fail:
    const "out of stock sku "
    load 1
    concat
    returnvalue
  }
}
)RIR";

struct ScenarioFixture : ::testing::Test {
    model::ClassPool original;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kWarehouseApp);
        model::verify_pool(original);
    }
};

TEST_F(ScenarioFixture, EndToEndLifecycle) {
    // --- deploy from configuration ------------------------------------
    runtime::System system(original);
    system.add_node();
    system.add_node();
    system.add_node();
    runtime::apply_policy_config(R"(
protocol default RMI
instance Warehouse on 1 via RMI
instance Item on 1 via RMI
singleton Warehouse on 1
link 0 -> 1 latency 150
link 1 -> 0 latency 150
link 0 -> 2 latency 800
link 2 -> 0 latency 800
)",
                                 system.policy(), &system.network());

    // --- run from node 0; the warehouse (and its items) are remote ----
    Value wh = system.construct(0, "Warehouse", "()V");
    EXPECT_EQ(system.node(0).interp().class_of(wh.as_ref()).name, "Warehouse_O_Proxy_RMI");
    vm::Interpreter& n0 = system.node(0).interp();
    EXPECT_EQ(n0.call_virtual(wh, "ship", "(II)S",
                              {Value::of_int(1), Value::of_int(10)})
                  .as_str(),
              "shipped sku 1");
    EXPECT_EQ(n0.call_virtual(wh, "ship", "(II)S",
                              {Value::of_int(2), Value::of_int(60)})
                  .as_str(),
              "out of stock sku 2");
    EXPECT_GT(system.metrics().snapshot().counter_value("rpc.proto.RMI.calls"), 0u);

    // --- adapt: pull the warehouse closure to node 0 -------------------
    // The object lives on node 1 (created there by policy); find it via
    // the proxy's terminal and move the whole cluster here.
    auto [home, oid] = system.resolve_terminal(0, wh.as_ref());
    ASSERT_EQ(home, 1);
    std::size_t moved = system.migrate_closure(1, oid, 0, "RMI");
    EXPECT_EQ(moved, 3u);  // warehouse + 2 items
    system.shorten_chain(0, wh.as_ref());

    system.reset_stats();
    EXPECT_EQ(n0.call_virtual(wh, "ship", "(II)S",
                              {Value::of_int(1), Value::of_int(5)})
                  .as_str(),
              "shipped sku 1");
    // Instance calls are local now (the proxy loops back on-node), but the
    // statics singleton is still homed on node 1, so `shipments` bumps
    // still cross the wire.
    EXPECT_GT(system.network().total_stats().messages, 0u);
    EXPECT_EQ(system.call_static(0, "Warehouse", "get_shipments", "()I").as_int(), 2);

    // --- move the static state too; then everything is node-0-local ----
    system.migrate_singleton("Warehouse", 0, "RMI");
    system.reset_stats();
    EXPECT_EQ(n0.call_virtual(wh, "ship", "(II)S",
                              {Value::of_int(2), Value::of_int(1)})
                  .as_str(),
              "shipped sku 2");
    EXPECT_EQ(system.call_static(0, "Warehouse", "get_shipments", "()I").as_int(), 3);
    EXPECT_EQ(system.network().total_stats().messages, 0u);
}

TEST_F(ScenarioFixture, FaultsDoNotCorruptAfterRecovery) {
    runtime::System system(original);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("Warehouse", 1, "SOAP");
    Value wh = system.construct(0, "Warehouse", "()V");
    vm::Interpreter& n0 = system.node(0).interp();

    n0.call_virtual(wh, "ship", "(II)S", {Value::of_int(1), Value::of_int(10)});

    // Outage: everything dropped for a while.
    system.network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});
    for (int k = 0; k < 3; ++k)
        EXPECT_THROW(n0.call_virtual(wh, "ship", "(II)S",
                                     {Value::of_int(1), Value::of_int(10)}),
                     vm::GuestException);

    // Recovery: state on node 1 is exactly as before the outage.
    system.network().set_link(0, 1, net::LinkParams{100, 0.0, 0.0});
    EXPECT_EQ(n0.call_virtual(wh, "ship", "(II)S",
                              {Value::of_int(1), Value::of_int(90)})
                  .as_str(),
              "shipped sku 1");  // 100 - 10 - 90 = 0: just enough
    EXPECT_EQ(n0.call_virtual(wh, "ship", "(II)S",
                              {Value::of_int(1), Value::of_int(1)})
                  .as_str(),
              "out of stock sku 1");
}

TEST_F(ScenarioFixture, TransformedArtefactSurvivesSerialisation) {
    // Transform once, save the artefact, load it elsewhere, run locally.
    transform::PipelineResult result = transform::run_pipeline(original);
    Bytes artefact = model::save_pool(result.pool);
    model::ClassPool loaded = model::load_pool(artefact);
    model::verify_pool(loaded);

    vm::Interpreter interp(loaded);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, result.report);
    Value wh = interp.call_static("Warehouse_O_Factory", "make", "()LWarehouse_O_Int;");
    interp.call_static("Warehouse_O_Factory", "init", "(LWarehouse_O_Int;)V", {wh});
    EXPECT_EQ(interp.call_virtual(wh, "ship", "(II)S",
                                  {Value::of_int(2), Value::of_int(50)})
                  .as_str(),
              "shipped sku 2");
}

TEST_F(ScenarioFixture, AdapterDrivesGeneratedWorkload) {
    // The phase-cost rule steering a generated program's root object
    // between nodes as its dependency (we fake the affinity signal) moves.
    corpus::ProgramParams params;
    params.classes = 3;
    params.seed = 77;
    model::ClassPool pool = corpus::generate_program(params);
    runtime::System system(pool);
    system.add_node();
    system.add_node();

    Value root = system.construct(0, "Gen2", "(J)V", {Value::of_long(9)});
    net::NodeId root_node = 0;
    vm::ObjId root_oid = root.as_ref();
    std::uint64_t prev_cost = 0;
    std::uint64_t moves = 0;
    std::int64_t last = 0;
    for (int phase = 0; phase < 4; ++phase) {
        const net::NodeId affinity = phase % 2;
        std::uint64_t t0 = system.network().now_us();
        for (int k = 0; k < 3; ++k)
            last = system.node(0)
                       .interp()
                       .call_virtual(root, "step", "(J)J", {Value::of_long(k)})
                       .as_long();
        const std::uint64_t cost = system.network().now_us() - t0;
        if (phase > 0 && cost >= prev_cost && root_node != affinity) {
            root_oid = system.migrate_instance(root_node, root_oid, affinity, "RMI");
            root_node = affinity;
            ++moves;
        }
        prev_cost = cost;
    }
    EXPECT_GT(moves, 0u);
    EXPECT_EQ(system.migrations(), moves);
    // Compare against a never-migrated local run.
    transform::PipelineResult local = transform::run_pipeline(pool);
    vm::Interpreter interp(local.pool);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, local.report);
    Value lroot = interp.call_static("Gen2_O_Factory", "make", "()LGen2_O_Int;");
    interp.call_static("Gen2_O_Factory", "init", "(LGen2_O_Int;J)V",
                       {lroot, Value::of_long(9)});
    std::int64_t expected = 0;
    for (int phase = 0; phase < 4; ++phase)
        for (int k = 0; k < 3; ++k)
            expected = interp.call_virtual(lroot, "step", "(J)J", {Value::of_long(k)})
                           .as_long();
    EXPECT_EQ(last, expected);
}

}  // namespace
}  // namespace rafda
