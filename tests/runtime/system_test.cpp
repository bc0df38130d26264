#include "runtime/system.hpp"

#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "transform/local_binder.hpp"
#include "transform/naming.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

// The Figure 1 application: objects of class A and class B hold references
// to a shared instance of class C.
constexpr const char* kFig1App = R"(
class C {
  field state I
  ctor ()V {
    return
  }
  method poke ()V {
    load 0
    load 0
    getfield C.state I
    const 1
    add
    putfield C.state I
    return
  }
  method read ()I {
    load 0
    getfield C.state I
    returnvalue
  }
}
class A {
  field c LC;
  ctor (LC;)V {
    load 0
    load 1
    putfield A.c LC;
    return
  }
  method act ()V {
    load 0
    getfield A.c LC;
    invokevirtual C.poke ()V
    return
  }
}
class B {
  field c LC;
  ctor (LC;)V {
    load 0
    load 1
    putfield B.c LC;
    return
  }
  method observe ()I {
    load 0
    getfield B.c LC;
    invokevirtual C.read ()I
    returnvalue
  }
}
class Registry {
  static field count I
  static method register ()I {
    getstatic Registry.count I
    const 1
    add
    dup
    putstatic Registry.count I
    returnvalue
  }
}
)";

model::ClassPool make_original(const char* app = kFig1App) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, app);
    model::verify_pool(pool);
    return pool;
}

struct SystemFixture : ::testing::Test {
    model::ClassPool original = make_original();
};

TEST_F(SystemFixture, SingleNodeMatchesLocalBinding) {
    // Distributed system with one node.
    System system(original);
    system.add_node();
    Value c = system.construct(0, "C", "()V");
    Value a = system.construct(0, "A", "(LC;)V", {c});
    Value b = system.construct(0, "B", "(LC;)V", {c});
    Node& n0 = system.node(0);
    n0.interp().call_virtual(a, "act", "()V");
    n0.interp().call_virtual(a, "act", "()V");
    std::int32_t distributed = n0.interp().call_virtual(b, "observe", "()I").as_int();

    // Reference: pure local binding of the same transformed program.
    transform::PipelineResult local = transform::run_pipeline(system.original_pool());
    vm::Interpreter interp(local.pool);
    vm::bind_prelude_natives(interp);
    transform::bind_local_factories(interp, local.report);
    Value lc = interp.call_static("C_O_Factory", "make", "()LC_O_Int;");
    interp.call_static("C_O_Factory", "init", "(LC_O_Int;)V", {lc});
    Value la = interp.call_static("A_O_Factory", "make", "()LA_O_Int;");
    interp.call_static("A_O_Factory", "init", "(LA_O_Int;LC_O_Int;)V", {la, lc});
    Value lb = interp.call_static("B_O_Factory", "make", "()LB_O_Int;");
    interp.call_static("B_O_Factory", "init", "(LB_O_Int;LC_O_Int;)V", {lb, lc});
    interp.call_virtual(la, "act", "()V");
    interp.call_virtual(la, "act", "()V");
    std::int32_t local_result = interp.call_virtual(lb, "observe", "()I").as_int();

    EXPECT_EQ(distributed, local_result);
    EXPECT_EQ(distributed, 2);
    // No remote traffic on a single node.
    EXPECT_EQ(system.rpc_totals().calls, 0u);
    EXPECT_EQ(system.rpc_totals().bytes, 0u);
}

TEST_F(SystemFixture, PolicyPlacesInstancesRemotely) {
    System system(original);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("C", 1, "RMI");

    Value c = system.construct(0, "C", "()V");
    // Node 0 holds a proxy; node 1 holds the real object.
    const std::string& cls0 = system.node(0).interp().class_of(c.as_ref()).name;
    EXPECT_EQ(cls0, "C_O_Proxy_RMI");

    Value a = system.construct(0, "A", "(LC;)V", {c});
    Value b = system.construct(0, "B", "(LC;)V", {c});
    system.node(0).interp().call_virtual(a, "act", "()V");
    system.node(0).interp().call_virtual(a, "act", "()V");
    system.node(0).interp().call_virtual(a, "act", "()V");
    EXPECT_EQ(system.node(0).interp().call_virtual(b, "observe", "()I").as_int(), 3);

    const obs::Snapshot stats = system.metrics().snapshot();
    EXPECT_GT(stats.counter_value("rpc.proto.RMI.calls"), 0u);
    EXPECT_EQ(stats.counter_value("rpc.proto.RMI.creates"), 1u);
    EXPECT_EQ(stats.counter_value("rpc.proto.RMI.faults"), 0u);
    EXPECT_GT(stats.counter_value("rpc.proto.RMI.request_bytes"), 0u);
}

TEST_F(SystemFixture, RemoteAndLocalVersionsInterchangeable) {
    // The same program runs unmodified whether C is local or remote — only
    // the policy differs (the paper's central claim).
    auto run = [&](bool remote) {
        System system(original);
        system.add_node();
        system.add_node();
        if (remote) system.policy().set_instance_home("C", 1, "SOAP");
        Value c = system.construct(0, "C", "()V");
        Value a = system.construct(0, "A", "(LC;)V", {c});
        Value b = system.construct(0, "B", "(LC;)V", {c});
        for (int k = 0; k < 5; ++k) system.node(0).interp().call_virtual(a, "act", "()V");
        return system.node(0).interp().call_virtual(b, "observe", "()I").as_int();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST_F(SystemFixture, SingletonIsUniqueAcrossNodes) {
    System system(original);
    system.add_node();
    system.add_node();
    system.add_node();
    // Static state lives on node 0 by default; all nodes see one counter.
    EXPECT_EQ(system.call_static(1, "Registry", "register", "()I").as_int(), 1);
    EXPECT_EQ(system.call_static(2, "Registry", "register", "()I").as_int(), 2);
    EXPECT_EQ(system.call_static(0, "Registry", "register", "()I").as_int(), 3);
    EXPECT_EQ(system.call_static(1, "Registry", "register", "()I").as_int(), 4);
}

TEST_F(SystemFixture, SingletonHomePolicy) {
    System system(original);
    system.add_node();
    system.add_node();
    system.policy().set_singleton_home("Registry", 1, "SOAP");
    EXPECT_EQ(system.call_static(0, "Registry", "register", "()I").as_int(), 1);
    // The singleton object physically lives on node 1.
    EXPECT_GT(system.metrics().snapshot().counter_value("rpc.proto.SOAP.discovers"), 0u);
}

TEST_F(SystemFixture, ProtocolSelectionPerClass) {
    System system(original);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("C", 1, "SOAP");
    Value c = system.construct(0, "C", "()V");
    EXPECT_EQ(system.node(0).interp().class_of(c.as_ref()).name, "C_O_Proxy_SOAP");
    system.node(0).interp().call_virtual(c, "poke", "()V");
    const obs::Snapshot snap = system.metrics().snapshot();
    EXPECT_GT(snap.counter_value("rpc.proto.SOAP.request_bytes"), 0u);
    EXPECT_EQ(snap.counter_value("rpc.proto.RMI.request_bytes"), 0u);
}

TEST_F(SystemFixture, ReferencesTravelBetweenNodes) {
    // C lives on node 1; A lives on node 2; node 0 wires them together.
    System system(original);
    system.add_node();
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("C", 1);
    system.policy().set_instance_home("A", 2);
    Value c = system.construct(0, "C", "()V");
    Value a = system.construct(0, "A", "(LC;)V", {c});
    // a is a proxy on node 0 to node 2; a.c is a proxy on node 2 to node 1.
    system.node(0).interp().call_virtual(a, "act", "()V");
    Value b = system.construct(0, "B", "(LC;)V", {c});
    EXPECT_EQ(system.node(0).interp().call_virtual(b, "observe", "()I").as_int(), 1);
}

TEST_F(SystemFixture, ImportedProxiesAreDeduplicated) {
    System system(original);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("C", 1);
    Value c = system.construct(0, "C", "()V");
    Value a1 = system.construct(0, "A", "(LC;)V", {c});
    Value a2 = system.construct(0, "A", "(LC;)V", {c});
    // Both A instances on node 0 hold the *same* proxy object for C.
    Value c1 = system.node(0).interp().call_virtual(a1, "get_c", "()LC_O_Int;");
    Value c2 = system.node(0).interp().call_virtual(a2, "get_c", "()LC_O_Int;");
    EXPECT_EQ(c1.as_ref(), c2.as_ref());
}

TEST_F(SystemFixture, VirtualTimeAdvancesWithRemoteCalls) {
    System system(original);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("C", 1);
    EXPECT_EQ(system.network().now_us(), 0u);
    Value c = system.construct(0, "C", "()V");
    std::uint64_t after_create = system.network().now_us();
    EXPECT_GT(after_create, 0u);
    system.node(0).interp().call_virtual(c, "poke", "()V");
    EXPECT_GT(system.network().now_us(), after_create);
    // Guest code can observe the time through Sys.time.
    EXPECT_GT(system.node(0).interp().logical_time(), 0);
}

TEST_F(SystemFixture, NonSubstitutedEntryPointsStillWork) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
class RawMain {
  native static method hook ()I
  static method run ()I {
    invokestatic RawMain.hook ()I
    returnvalue
  }
}
)");
    model::verify_pool(pool);
    System system(pool);
    system.add_node();
    system.node(0).interp().register_native(
        "RawMain", "hook", "()I",
        [](vm::Interpreter&, const Value&, std::span<const Value>) {
            return Value::of_int(77);
        });
    EXPECT_EQ(system.call_static(0, "RawMain", "run", "()I").as_int(), 77);
}

TEST_F(SystemFixture, StringsAndDoublesCrossTheWire) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
class Echo {
  ctor ()V {
    return
  }
  method shout (S)S {
    load 1
    const "!"
    concat
    returnvalue
  }
  method half (D)D {
    load 1
    const 0.5
    mul
    returnvalue
  }
}
)");
    model::verify_pool(pool);
    System system(pool);
    system.add_node();
    system.add_node();
    system.policy().set_instance_home("Echo", 1, "SOAP");
    Value e = system.construct(0, "Echo", "()V");
    EXPECT_EQ(system.node(0)
                  .interp()
                  .call_virtual(e, "shout", "(S)S", {Value::of_str("hi <&> there")})
                  .as_str(),
              "hi <&> there!");
    EXPECT_DOUBLE_EQ(system.node(0)
                         .interp()
                         .call_virtual(e, "half", "(D)D", {Value::of_double(5.0)})
                         .as_double(),
                     2.5);
}

// Guest time: Sys.time must read the clock of the node running the code,
// also after control-plane work moved that clock without any RPC.
constexpr const char* kClockApp = R"(
class Box {
  field v I
  ctor ()V {
    return
  }
}
class Clock {
  static method now ()J {
    invokestatic Sys.time ()J
    returnvalue
  }
}
)";

TEST(SystemGuestTime, BarrierMovesTheGuestTimeOfEveryNode) {
    // A migration is a barrier: node 2 takes no part in it, but its clock
    // still moves to the landing time of the slow 0 -> 1 transfer, which
    // the journal's Migrate event records.
    System system(make_original(kClockApp));
    for (int k = 0; k < 3; ++k) system.add_node();
    net::LinkParams slow;
    slow.latency_us = 5000;
    system.network().set_link(0, 1, slow);
    system.policy().set_singleton_home("Clock", 2);
    system.journal().set_enabled(true);
    const Value box = system.construct(0, "Box", "()V");
    const std::uint64_t before = system.node(2).clock_us();
    system.migrate_instance(0, box.as_ref(), 1);

    std::uint64_t landed = 0;
    system.journal().visit([&](const obs::JournalEvent& e) {
        if (e.kind == obs::JournalEvent::Kind::Migrate) landed = e.t_us;
    });
    ASSERT_GE(landed, 5000u);  // at least the slow link's latency
    ASSERT_LT(before, landed);
    const std::uint64_t clock = system.node(2).clock_us();
    ASSERT_EQ(clock, landed);
    EXPECT_EQ(system.call_static(2, "Clock", "now", "()J").as_long(),
              static_cast<std::int64_t>(clock));
}

TEST(SystemGuestTime, DirectoryTripMovesTheAskersGuestTime) {
    // A discover whose singleton is local but whose directory shard lives
    // on another node pays a control round-trip on the asker's clock
    // before the guest code runs there.
    System system(make_original(kClockApp));
    net::LinkParams link;
    link.latency_us = 700;
    system.network().set_default_link(link);
    for (int k = 0; k < 3; ++k) system.add_node();
    DirectoryPolicy policy;
    policy.shards = 3;
    system.enable_directory(policy);
    ASSERT_NE(system.directory().singleton_owner("Clock"), 0);
    ASSERT_EQ(system.node(0).clock_us(), 0u);

    const std::int64_t now = system.call_static(0, "Clock", "now", "()J").as_long();
    EXPECT_GE(now, 1400);
    EXPECT_EQ(now, static_cast<std::int64_t>(system.node(0).clock_us()));
}

TEST_F(SystemFixture, UnknownNodeThrows) {
    System system(original);
    system.add_node();
    EXPECT_THROW(system.node(3), RuntimeError);
    EXPECT_THROW(system.node(-1), RuntimeError);
}

}  // namespace
}  // namespace rafda::runtime
