// Node marshalling unit tests: export_value / import_value / import_ref.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using net::MarshalledValue;
using net::ValueTag;
using vm::Value;

constexpr const char* kApp = R"(
class Widget {
  field n I
  ctor ()V {
    return
  }
}
)";

struct MarshalFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
    }
};

TEST_F(MarshalFixture, PrimitivesRoundTrip) {
    Node& n0 = system->node(0);
    for (const Value& v :
         {Value::null(), Value::of_bool(true), Value::of_int(-3), Value::of_long(1LL << 40),
          Value::of_double(2.5), Value::of_str("hi <&> there")}) {
        MarshalledValue m = n0.export_value(Value(v));
        EXPECT_EQ(n0.import_value(MarshalledValue(m), "RMI"), v);
    }
}

TEST_F(MarshalFixture, LocalImplExportsAsRemoteRef) {
    Node& n0 = system->node(0);
    Value w = system->construct(0, "Widget", "()V");
    MarshalledValue m = n0.export_value(Value(w));
    EXPECT_EQ(m.tag, ValueTag::Ref);
    EXPECT_EQ(m.ref_node, 0);
    EXPECT_EQ(m.ref_oid, w.as_ref());
    EXPECT_EQ(m.ref_class, "Widget_O_Int");
}

TEST_F(MarshalFixture, ImportOnOwningNodeIsIdentity) {
    Node& n0 = system->node(0);
    Value w = system->construct(0, "Widget", "()V");
    Value back = n0.import_value(n0.export_value(Value(w)), "RMI");
    EXPECT_EQ(back.as_ref(), w.as_ref());
    EXPECT_EQ(n0.interp().class_of(back.as_ref()).name, "Widget_O_Local");
}

TEST_F(MarshalFixture, ImportElsewhereCreatesProxyOnce) {
    Node& n0 = system->node(0);
    Node& n1 = system->node(1);
    Value w = system->construct(0, "Widget", "()V");
    MarshalledValue m = n0.export_value(Value(w));
    Value p1 = n1.import_value(MarshalledValue(m), "RMI");
    Value p2 = n1.import_value(MarshalledValue(m), "RMI");
    EXPECT_EQ(p1.as_ref(), p2.as_ref());  // deduplicated
    EXPECT_EQ(n1.interp().class_of(p1.as_ref()).name, "Widget_O_Proxy_RMI");
    // A different protocol gets its own proxy object.
    Value p3 = n1.import_value(MarshalledValue(m), "SOAP");
    EXPECT_NE(p3.as_ref(), p1.as_ref());
    EXPECT_EQ(n1.interp().class_of(p3.as_ref()).name, "Widget_O_Proxy_SOAP");
}

TEST_F(MarshalFixture, ProxyReExportsItsTarget) {
    Node& n0 = system->node(0);
    Node& n1 = system->node(1);
    Value w = system->construct(0, "Widget", "()V");
    Value proxy_on_1 = n1.import_value(n0.export_value(Value(w)), "RMI");
    // Exporting node 1's proxy yields the *original* location, not node 1.
    MarshalledValue m = n1.export_value(Value(proxy_on_1));
    EXPECT_EQ(m.ref_node, 0);
    EXPECT_EQ(m.ref_oid, w.as_ref());
    EXPECT_EQ(m.ref_class, "Widget_O_Int");
}

TEST_F(MarshalFixture, ImportRefDeduplicatesPerKey) {
    // The dedup key is the full (node, oid, iface, protocol) tuple:
    // repeating any key gives the same proxy, varying any component of it
    // gives a fresh one.
    Node& n1 = system->node(1);
    Value a = n1.import_ref(0, 41, "Widget_O_Int", "RMI");
    Value a_again = n1.import_ref(0, 41, "Widget_O_Int", "RMI");
    EXPECT_EQ(a.as_ref(), a_again.as_ref());

    Value other_oid = n1.import_ref(0, 42, "Widget_O_Int", "RMI");
    EXPECT_NE(other_oid.as_ref(), a.as_ref());

    Value other_node = n1.import_ref(2, 41, "Widget_O_Int", "RMI");
    EXPECT_NE(other_node.as_ref(), a.as_ref());

    Value other_protocol = n1.import_ref(0, 41, "Widget_O_Int", "SOAP");
    EXPECT_NE(other_protocol.as_ref(), a.as_ref());
    EXPECT_EQ(n1.interp().class_of(other_protocol.as_ref()).name,
              "Widget_O_Proxy_SOAP");
}

TEST_F(MarshalFixture, TransitiveReferenceKeepsTheOriginalTarget) {
    // widget lives on node 0; node 1 holds a proxy; handing that proxy to
    // node 2 must produce a proxy at node 2 that targets node 0 directly —
    // and it dedups against a reference node 2 received straight from the
    // owner, so reference identity survives any forwarding path.
    system->add_node();
    Node& n0 = system->node(0);
    Node& n1 = system->node(1);
    Node& n2 = system->node(2);
    Value w = system->construct(0, "Widget", "()V");

    Value proxy_on_1 = n1.import_value(n0.export_value(Value(w)), "RMI");
    Value via_1 = n2.import_value(n1.export_value(Value(proxy_on_1)), "RMI");
    Value direct = n2.import_value(n0.export_value(Value(w)), "RMI");
    EXPECT_EQ(via_1.as_ref(), direct.as_ref());

    // And the forwarded proxy still names the owner when node 2 exports it.
    MarshalledValue m = n2.export_value(Value(via_1));
    EXPECT_EQ(m.ref_node, 0);
    EXPECT_EQ(m.ref_oid, w.as_ref());
}

TEST_F(MarshalFixture, NonSubstitutableObjectRefuses) {
    Node& n0 = system->node(0);
    Value t = n0.interp().construct("Throwable", "(S)V", {Value::of_str("x")});
    EXPECT_THROW(n0.export_value(Value(t)), RuntimeError);
}

TEST_F(MarshalFixture, SingletonExportsCFamilyInterface) {
    // Force singleton creation on node 0, then export it.
    Value me = system->node(0).local_singleton("Widget");
    MarshalledValue m = system->node(0).export_value(Value(me));
    EXPECT_EQ(m.ref_class, "Widget_C_Int");
    Value p = system->node(1).import_value(MarshalledValue(m), "SOAP");
    EXPECT_EQ(system->node(1).interp().class_of(p.as_ref()).name, "Widget_C_Proxy_SOAP");
}

}  // namespace
}  // namespace rafda::runtime
