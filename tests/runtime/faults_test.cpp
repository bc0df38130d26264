// Network-failure semantics.  The paper is explicit that distribution makes
// full semantic preservation impossible ("modulo network failure", Sec 1;
// Sec 4).  These tests pin down what our middleware guarantees instead:
// injected message loss surfaces as a guest-level RemoteFault (catchable
// like any throwable), and guest exceptions thrown on a remote node
// propagate to the caller with class and message intact.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Service {
  field calls I
  ctor ()V {
    return
  }
  method work (I)I {
    load 0
    load 0
    getfield Service.calls I
    const 1
    add
    putfield Service.calls I
    load 1
    const 100
    cmplt
    iffalse Boom
    load 1
    const 2
    mul
    returnvalue
  Boom:
    new Throwable
    dup
    const "input too large"
    invokespecial Throwable.<init> (S)V
    throw
  }
  method calls ()I {
    load 0
    getfield Service.calls I
    returnvalue
  }
}
class Client {
  static method guarded (LService;I)S {
  S:
    load 0
    load 1
    invokevirtual Service.work (I)I
    const "ok:"
    swap
    concat
    returnvalue
  E:
    nop
  H:
    invokevirtual Throwable.getMsg ()S
    const "fault:"
    swap
    concat
    returnvalue
    catch Throwable from S to E using H
  }
}
)";

struct FaultsFixture : ::testing::Test {
    model::ClassPool original;
    std::unique_ptr<System> system;

    void SetUp() override {
        vm::install_prelude(original);
        model::assemble_into(original, kApp);
        model::verify_pool(original);
        system = std::make_unique<System>(original);
        system->add_node();
        system->add_node();
        system->policy().set_instance_home("Service", 1, "RMI");
    }
};

TEST_F(FaultsFixture, GuestExceptionCrossesTheWire) {
    Value svc = system->construct(0, "Service", "()V");
    // Normal call works remotely.
    EXPECT_EQ(system->call_static(0, "Client", "guarded", "(LService;I)S", {svc, Value::of_int(5)})
                  .as_str(),
              "ok:10");
    // Guest throw on node 1 arrives as a catchable throwable on node 0.
    EXPECT_EQ(system->call_static(0, "Client", "guarded", "(LService;I)S",
                                  {svc, Value::of_int(1000)})
                  .as_str(),
              "fault:input too large");
    EXPECT_EQ(system->metrics().snapshot().counter_value("rpc.proto.RMI.faults"), 1u);
}

TEST_F(FaultsFixture, UncaughtRemoteGuestExceptionSurfacesAtBoundary) {
    Value svc = system->construct(0, "Service", "()V");
    try {
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1000)});
        FAIL() << "expected GuestException";
    } catch (const vm::GuestException& e) {
        EXPECT_EQ(e.class_name(), "Throwable");
        EXPECT_EQ(e.message(), "input too large");
    }
}

TEST_F(FaultsFixture, TotalLossRaisesRemoteFault) {
    Value svc = system->construct(0, "Service", "()V");
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});  // drop all
    try {
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});
        FAIL() << "expected GuestException(RemoteFault)";
    } catch (const vm::GuestException& e) {
        EXPECT_EQ(e.class_name(), kRemoteFaultClass);
        EXPECT_NE(e.message().find("lost"), std::string::npos);
    }
    EXPECT_GT(system->metrics().snapshot().counter_value("rpc.proto.RMI.drops"), 0u);
}

TEST_F(FaultsFixture, RemoteFaultIsCatchableAsThrowable) {
    // Client.guarded catches Throwable; RemoteFault extends Throwable, so
    // application-level handlers can mask network failure if they choose.
    Value svc = system->construct(0, "Service", "()V");
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});
    std::string out = system
                          ->call_static(0, "Client", "guarded", "(LService;I)S",
                                        {svc, Value::of_int(1)})
                          .as_str();
    EXPECT_EQ(out.rfind("fault:", 0), 0u) << out;
}

TEST_F(FaultsFixture, LostReplyStillExecutedTheCall) {
    // At-most-once is not exactly-once: if only the *reply* is lost, the
    // remote side has already executed the method.  The paper's caveat made
    // concrete.
    Value svc = system->construct(0, "Service", "()V");
    system->network().set_link(1, 0, net::LinkParams{100, 0.0, 1.0});  // replies lost
    EXPECT_THROW(
        system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)}),
        vm::GuestException);
    // Restore the link and check the remote side executed the lost call.
    system->network().set_link(1, 0, net::LinkParams{100, 0.0, 0.0});
    EXPECT_EQ(system->node(0).interp().call_virtual(svc, "calls", "()I").as_int(), 1);
}

TEST_F(FaultsFixture, DroppedDistinguishesRequestLossFromReplyLoss) {
    // The C++-level Dropped marker carries `executed_remotely` so callers
    // can reason about side effects: a lost request never ran, a lost
    // reply means the remote side ran the call and only the result
    // vanished (DESIGN.md §12).  A Create whose reply is lost has leaked
    // an instance on the remote node; a Create whose request is lost has
    // not.
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 1.0});  // requests lost
    net::CallRequest lost_request;
    lost_request.kind = net::RequestKind::Create;
    lost_request.cls = "Service";
    lost_request.src_node = 0;
    try {
        RpcPath& path = system->rpc_path();
        path.rpc(0, 1, path.protocol("RMI"), lost_request);
        FAIL() << "expected Dropped";
    } catch (const System::Dropped& d) {
        EXPECT_FALSE(d.executed_remotely);
    }

    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 0.0});
    system->network().set_link(1, 0, net::LinkParams{100, 0.0, 1.0});  // replies lost
    net::CallRequest lost_reply;
    lost_reply.kind = net::RequestKind::Create;
    lost_reply.cls = "Service";
    lost_reply.src_node = 0;
    try {
        RpcPath& path = system->rpc_path();
        path.rpc(0, 1, path.protocol("RMI"), lost_reply);
        FAIL() << "expected Dropped";
    } catch (const System::Dropped& d) {
        EXPECT_TRUE(d.executed_remotely);
    }
}

TEST_F(FaultsFixture, PartialDropRateEventuallySucceeds) {
    Value svc = system->construct(0, "Service", "()V");
    system->network().set_link(0, 1, net::LinkParams{100, 0.0, 0.5});
    int ok = 0, failed = 0;
    for (int k = 0; k < 50; ++k) {
        try {
            system->node(0).interp().call_virtual(svc, "work", "(I)I", {Value::of_int(1)});
            ++ok;
        } catch (const vm::GuestException&) {
            ++failed;
        }
    }
    EXPECT_GT(ok, 5);
    EXPECT_GT(failed, 5);
}

TEST_F(FaultsFixture, UserDefinedThrowableClassCrossesIfConstructible) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
special class QuotaError extends Throwable {
  ctor (S)V {
    load 0
    load 1
    invokespecial Throwable.<init> (S)V
    return
  }
}
class Thrower {
  ctor ()V {
    return
  }
  method go ()V {
    new QuotaError
    dup
    const "quota"
    invokespecial QuotaError.<init> (S)V
    throw
  }
}
)");
    model::verify_pool(pool);
    System sys(pool);
    sys.add_node();
    sys.add_node();
    sys.policy().set_instance_home("Thrower", 1);
    Value t = sys.construct(0, "Thrower", "()V");
    try {
        sys.node(0).interp().call_virtual(t, "go", "()V");
        FAIL() << "expected GuestException";
    } catch (const vm::GuestException& e) {
        EXPECT_EQ(e.class_name(), "QuotaError");  // exact class reconstructed
        EXPECT_EQ(e.message(), "quota");
    }
}

}  // namespace
}  // namespace rafda::runtime
