// Re-entrant remote calls and the per-depth request buffers.
//
// The RPC path decodes each request into the CallRequest its nesting
// depth used last time, the proxy dispatcher marshals into a per-depth
// request, and a node imports arguments into a per-depth buffer (DESIGN.md
// §11).  A callee's guest code can make a nested remote call while its own
// decoded request is still in use, so one shared buffer would hand the
// outer call the inner call's descriptor and request id.  Here a method on
// node 1 calls node 2, which calls back into node 1 twice — the last time
// a void method — with long and long-string arguments, warmed up and
// repeated.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace rafda::runtime {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Front {
  field back LBack;
  ctor ()V {
    return
  }
  method wire (LBack;)V {
    load 0
    load 1
    putfield Front.back LBack;
    return
  }
  method run (JS)S {
    load 0
    getfield Front.back LBack;
    load 1
    const 7L
    mul
    load 2
    const " went through the front node"
    concat
    invokevirtual Back.relay (JS)J
    store 3
    load 2
    load 3
    concat
    returnvalue
  }
}
class Back {
  field leaf LLeaf;
  ctor ()V {
    return
  }
  method wire (LLeaf;)V {
    load 0
    load 1
    putfield Back.leaf LLeaf;
    return
  }
  method relay (JS)J {
    load 0
    getfield Back.leaf LLeaf;
    invokevirtual Leaf.total ()J
    load 1
    add
    store 3
    load 0
    getfield Back.leaf LLeaf;
    load 3
    load 2
    const " and the back node"
    concat
    invokevirtual Leaf.note (JS)V
    load 3
    returnvalue
  }
}
class Leaf {
  field sum J
  field last S
  ctor ()V {
    return
  }
  method note (JS)V {
    load 0
    load 0
    getfield Leaf.sum J
    load 1
    add
    putfield Leaf.sum J
    load 0
    load 2
    putfield Leaf.last S
    return
  }
  method total ()J {
    load 0
    getfield Leaf.sum J
    returnvalue
  }
  method last ()S {
    load 0
    getfield Leaf.last S
    returnvalue
  }
}
)";

model::ClassPool app_pool() {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    return pool;
}

/// Front and Leaf on node 1, Back on node 2, all over RMI; the test
/// calls from node 0.  The untransformed program runs beside it in one
/// plain interpreter.
struct Reentrant : ::testing::Test {
    model::ClassPool pool = app_pool();
    std::unique_ptr<System> system;
    Value front, leaf;
    vm::Interpreter reference{pool};
    Value ref_front, ref_leaf;

    void SetUp() override {
        SystemOptions options;
        options.pipeline.threads = 1;
        system = std::make_unique<System>(pool, options);
        for (int k = 0; k < 3; ++k) system->add_node();
        system->policy().set_instance_home("Front", 1, "RMI");
        system->policy().set_instance_home("Back", 2, "RMI");
        system->policy().set_instance_home("Leaf", 1, "RMI");
        vm::Interpreter& caller = system->node(0).interp();
        front = system->construct(0, "Front", "()V");
        const Value back = system->construct(0, "Back", "()V");
        leaf = system->construct(0, "Leaf", "()V");
        caller.call_virtual(front, "wire", "(LBack_O_Int;)V", {back});
        caller.call_virtual(back, "wire", "(LLeaf_O_Int;)V", {leaf});

        vm::bind_prelude_natives(reference);
        ref_front = reference.construct("Front", "()V", {});
        const Value ref_back = reference.construct("Back", "()V", {});
        ref_leaf = reference.construct("Leaf", "()V", {});
        reference.call_virtual(ref_front, "wire", "(LBack;)V", {ref_back});
        reference.call_virtual(ref_back, "wire", "(LLeaf;)V", {ref_leaf});
    }

    static std::vector<Value> args(int k) {
        return {Value::of_long(1'000'003LL * k - 77),
                Value::of_str("argument string longer than fifteen characters #" +
                              std::to_string(k))};
    }
};

TEST_F(Reentrant, NestedCallbacksMatchTheUntransformedProgram) {
    vm::Interpreter& caller = system->node(0).interp();
    for (int k = 0; k < 40; ++k) {
        const Value remote = caller.call_virtual(front, "run", "(JS)S", args(k));
        const Value local = reference.call_virtual(ref_front, "run", "(JS)S", args(k));
        ASSERT_TRUE(remote.is_str()) << "call " << k;
        EXPECT_EQ(remote.as_str(), local.as_str()) << "call " << k;
    }
    EXPECT_EQ(caller.call_virtual(leaf, "total", "()J").as_long(),
              reference.call_virtual(ref_leaf, "total", "()J").as_long());
    EXPECT_EQ(caller.call_virtual(leaf, "last", "()S").as_str(),
              reference.call_virtual(ref_leaf, "last", "()S").as_str());
}

TEST_F(Reentrant, EveryReplyAnswersItsOwnRequest) {
    system->journal().set_enabled(true);
    vm::Interpreter& caller = system->node(0).interp();
    for (int k = 0; k < 20; ++k) caller.call_virtual(front, "run", "(JS)S", args(k));
    // Calls nest, so sends, dispatches and replies follow a stack: each
    // dispatch serves the latest unanswered send and each reply closes it.
    std::vector<std::uint64_t> open;
    int replies = 0;
    system->journal().visit([&](const obs::JournalEvent& e) {
        using Kind = obs::JournalEvent::Kind;
        if (e.kind == Kind::RpcSend) {
            open.push_back(e.a);
        } else if (e.kind == Kind::RpcDispatch) {
            ASSERT_FALSE(open.empty());
            EXPECT_EQ(e.a, open.back());
        } else if (e.kind == Kind::RpcReply) {
            ASSERT_FALSE(open.empty());
            EXPECT_EQ(e.a, open.back());
            open.pop_back();
            ++replies;
        }
    });
    EXPECT_TRUE(open.empty());
    EXPECT_EQ(replies, 20 * 4);  // run, relay, and relay's total and note

    // The outermost reply as the caller decodes it.  (The RPC path checks
    // the same of every nested reply and throws on a mismatch.)
    RpcPath& rpc = system->rpc_path();
    net::CallRequest req;
    req.request_id = rpc.next_request_id();
    req.target_oid = system->node(0).proxy_target(front.as_ref()).second;
    req.method = "run";
    req.desc = "(JS)S";
    req.args = {net::MarshalledValue::of_long(5),
                net::MarshalledValue::of_str("a direct request past the small-string size")};
    const net::CallReply reply = rpc.rpc(0, 1, rpc.protocol("RMI"), req);
    EXPECT_EQ(reply.request_id, req.request_id);
    ASSERT_FALSE(reply.is_fault) << reply.fault_msg;
    EXPECT_EQ(reply.result.s.rfind("a direct request past the small-string size", 0), 0u);
}

}  // namespace
}  // namespace rafda::runtime
