// E2 — the paper's Figure 1: "Objects of class A and class B hold
// references to a shared instance of class C.  The application is
// transformed so that the instance of C is remote to its reference holders.
// The local instance of C is replaced with a proxy, Cp, to the remote
// implementation, C'."
//
// These tests drive exactly that re-distribution at runtime and check that
// behaviour, state and sharing are preserved.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kFig1App = R"(
class C {
  field state I
  field label S
  ctor ()V {
    load 0
    const "shared"
    putfield C.label S
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
  method describe ()S {
    load 0
    getfield C.label S
    const "="
    concat
    load 0
    getfield C.state I
    concat
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
  static field total I
  static method bump ()I {
    getstatic Registry.total I
    const 1
    add
    dup
    putstatic Registry.total I
    returnvalue
  }
}
)";

struct Fig1Fixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;
    Value c, a, b;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kFig1App);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
        c = system->construct(0, "C", "()V");
        a = system->construct(0, "A", "(LC;)V", {c});
        b = system->construct(0, "B", "(LC;)V", {c});
    }

    vm::Interpreter& n0() { return system->node(0).interp(); }
    vm::Interpreter& n1() { return system->node(1).interp(); }
};

TEST_F(Fig1Fixture, MigrationSwapsLocalInstanceForProxy) {
    EXPECT_EQ(n0().class_of(c.as_ref()).name, "C_O_Local");
    vm::ObjId remote = system->migrate_instance(0, c.as_ref(), 1, "RMI");
    // The vacated slot is now the proxy Cp...
    EXPECT_EQ(n0().class_of(c.as_ref()).name, "C_O_Proxy_RMI");
    // ...and the remote implementation C' lives on node 1.
    EXPECT_EQ(n1().class_of(remote).name, "C_O_Local");
    EXPECT_EQ(system->migrations(), 1u);
}

TEST_F(Fig1Fixture, StatePreservedAcrossMigration) {
    n0().call_virtual(a, "act", "()V");
    n0().call_virtual(a, "act", "()V");
    ASSERT_EQ(n0().call_virtual(b, "observe", "()I").as_int(), 2);

    system->migrate_instance(0, c.as_ref(), 1);

    // Existing state came along; both holders still see the same object.
    EXPECT_EQ(n0().call_virtual(b, "observe", "()I").as_int(), 2);
    n0().call_virtual(a, "act", "()V");
    EXPECT_EQ(n0().call_virtual(b, "observe", "()I").as_int(), 3);
    // The calls after migration were remote.
    EXPECT_GT(system->metrics().snapshot().counter_value("rpc.proto.RMI.calls"), 0u);
    // String state (the label) also moved.
    EXPECT_EQ(n0().call_virtual(c, "describe", "()S").as_str(), "shared=3");
}

TEST_F(Fig1Fixture, ReferenceHoldersAreUntouchedByMigration) {
    // A and B still hold the *same* reference value after migration — the
    // substitution happened behind it (that is the point of Figure 1).
    Value a_c_before = n0().call_virtual(a, "get_c", "()LC_O_Int;");
    system->migrate_instance(0, c.as_ref(), 1);
    Value a_c_after = n0().call_virtual(a, "get_c", "()LC_O_Int;");
    EXPECT_EQ(a_c_before.as_ref(), a_c_after.as_ref());
    EXPECT_EQ(a_c_after.as_ref(), c.as_ref());
}

TEST_F(Fig1Fixture, MigrateBackRestoresLocalExecution) {
    n0().call_virtual(a, "act", "()V");
    vm::ObjId on1 = system->migrate_instance(0, c.as_ref(), 1);
    n0().call_virtual(a, "act", "()V");
    // Bring it home again: node 1's object moves back to node 0.
    system->migrate_instance(1, on1, 0);
    system->reset_stats();
    n0().call_virtual(a, "act", "()V");
    EXPECT_EQ(n0().call_virtual(b, "observe", "()I").as_int(), 3);
    // After returning, calls chain 0 -> (proxy) -> 1 -> (proxy) -> 0: the
    // original local slot still forwards.  State must be consistent even
    // though the path is indirect.
    EXPECT_EQ(system->migrations(), 0u);  // stats were reset
}

TEST_F(Fig1Fixture, ThirdPartyProxiesChainThroughOldHome) {
    // Node 2 imports a proxy to C while it lives on node 0; after C moves
    // to node 1, node 2's calls chain through node 0 transparently.
    system->add_node();
    Value b2 = system->construct(2, "B", "(LC;)V",
                                 {system->node(2).import_ref(0, c.as_ref(), "C_O_Int",
                                                             "RMI")});
    n0().call_virtual(a, "act", "()V");
    EXPECT_EQ(system->node(2).interp().call_virtual(b2, "observe", "()I").as_int(), 1);

    system->migrate_instance(0, c.as_ref(), 1);
    n0().call_virtual(a, "act", "()V");
    EXPECT_EQ(system->node(2).interp().call_virtual(b2, "observe", "()I").as_int(), 2);
}

TEST_F(Fig1Fixture, MigrationChargesTheNetwork) {
    std::uint64_t before = system->network().total_stats().bytes;
    system->migrate_instance(0, c.as_ref(), 1);
    EXPECT_GT(system->network().total_stats().bytes, before);
}

TEST_F(Fig1Fixture, MigrateSingletonMovesStaticState) {
    EXPECT_EQ(system->call_static(0, "Registry", "bump", "()I").as_int(), 1);
    EXPECT_EQ(system->call_static(1, "Registry", "bump", "()I").as_int(), 2);

    system->migrate_singleton("Registry", 1, "RMI");

    // Counter continues where it left off; new discover()s go to node 1.
    EXPECT_EQ(system->call_static(1, "Registry", "bump", "()I").as_int(), 3);
    EXPECT_EQ(system->call_static(0, "Registry", "bump", "()I").as_int(), 4);
    EXPECT_EQ(system->policy().singleton_placement("Registry").node, 1);
}

TEST_F(Fig1Fixture, MigrateSingletonBeforeCreationJustMovesPolicy) {
    system->migrate_singleton("Registry", 1);
    EXPECT_EQ(system->migrations(), 0u);  // nothing existed to move
    EXPECT_EQ(system->call_static(0, "Registry", "bump", "()I").as_int(), 1);
}

TEST_F(Fig1Fixture, CannotMigrateAProxy) {
    system->migrate_instance(0, c.as_ref(), 1);
    // The slot on node 0 is now a proxy; migrating it is refused.
    EXPECT_THROW(system->migrate_instance(0, c.as_ref(), 1), RuntimeError);
}

TEST_F(Fig1Fixture, MigratedObjectWithBackReferences) {
    // Give C a reference back to A before migrating: the moved object's
    // field becomes a proxy back to node 0.
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
class Peer {
  field other LPeer;
  field tag S
  ctor (S)V {
    load 0
    load 1
    putfield Peer.tag S
    return
  }
  method link (LPeer;)V {
    load 0
    load 1
    putfield Peer.other LPeer;
    return
  }
  method chainTag ()S {
    load 0
    getfield Peer.other LPeer;
    const null
    cmpeq
    iffalse Walk
    load 0
    getfield Peer.tag S
    returnvalue
  Walk:
    load 0
    getfield Peer.tag S
    const ">"
    concat
    load 0
    getfield Peer.other LPeer;
    invokevirtual Peer.chainTag ()S
    concat
    returnvalue
  }
}
)");
    model::verify_pool(pool);
    System sys(pool);
    sys.add_node();
    sys.add_node();
    Value p = sys.construct(0, "Peer", "(S)V", {Value::of_str("p")});
    Value q = sys.construct(0, "Peer", "(S)V", {Value::of_str("q")});
    sys.node(0).interp().call_virtual(p, "link", "(LPeer_O_Int;)V", {q});
    sys.node(0).interp().call_virtual(q, "link", "(LPeer_O_Int;)V", {p});
    // p -> q -> p: chainTag from p recurses p>q>p>q... guard: it terminates
    // because chainTag only walks one hop past a cycle?  It does not — so
    // call on q after unlinking p.
    sys.node(0).interp().call_virtual(p, "link", "(LPeer_O_Int;)V", {Value::null()});
    ASSERT_EQ(sys.node(0).interp().call_virtual(q, "chainTag", "()S").as_str(), "q>p");

    sys.migrate_instance(0, q.as_ref(), 1);
    // q now lives on node 1 and holds a proxy back to p on node 0.
    EXPECT_EQ(sys.node(0).interp().call_virtual(q, "chainTag", "()S").as_str(), "q>p");
}

}  // namespace
}  // namespace rafda::runtime
