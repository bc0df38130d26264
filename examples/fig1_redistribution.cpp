// fig1_redistribution — the paper's Figure 1, live.
//
//   "Objects of class A and class B hold references to a shared instance
//    of class C.  The application is transformed so that the instance of C
//    is remote to its reference holders.  The local instance of C is
//    replaced with a proxy, Cp, to the remote implementation, C'."
//
// The program starts fully local on node 0, then C is migrated to node 1
// *while the application keeps running*.  A and B never learn about it:
// their reference value is unchanged, the heap slot behind it became the
// proxy.
#include <iostream>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace {

constexpr const char* kApp = R"(
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
)";

}  // namespace

int main() {
    using namespace rafda;
    using vm::Value;

    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, kApp);
    model::verify_pool(original);

    runtime::System system(original);
    system.add_node();  // node 0: where A and B live
    system.add_node();  // node 1: where C will move

    Value c = system.construct(0, "C", "()V");
    Value a = system.construct(0, "A", "(LC;)V", {c});
    Value b = system.construct(0, "B", "(LC;)V", {c});
    vm::Interpreter& n0 = system.node(0).interp();

    auto phase = [&](const char* title, int pokes) {
        for (int k = 0; k < pokes; ++k) n0.call_virtual(a, "act", "()V");
        std::cout << title << "  C is a " << n0.class_of(c.as_ref()).name
                  << ", B observes " << n0.call_virtual(b, "observe", "()I").as_int()
                  << ", virtual time " << system.network().now_us() << "us\n";
    };

    std::cout << "--- phase 1: everything local on node 0 ---\n";
    phase("after 3 pokes:", 3);

    std::cout << "\n--- migrating the shared C to node 1 (Figure 1) ---\n";
    vm::ObjId c_on_1 = system.migrate_instance(0, c.as_ref(), 1, "RMI");
    std::cout << "node 0 slot " << c.as_ref() << " is now "
              << n0.class_of(c.as_ref()).name << "; C' is object " << c_on_1
              << " on node 1 (" << system.node(1).interp().class_of(c_on_1).name << ")\n\n";

    std::cout << "--- phase 2: same objects, same code, C now remote ---\n";
    phase("after 3 more pokes:", 3);

    const obs::Snapshot snap = system.metrics().snapshot();
    std::cout << "\nremote calls over RMI: " << snap.counter_value("rpc.proto.RMI.calls")
              << " ("
              << snap.counter_value("rpc.proto.RMI.request_bytes") +
                     snap.counter_value("rpc.proto.RMI.reply_bytes")
              << " bytes on the wire), "
              << "migrations: " << system.migrations() << "\n";
    std::cout << "\nA and B were never told; their reference to C is value "
              << c.as_ref() << " in both phases.\n";
    return 0;
}
