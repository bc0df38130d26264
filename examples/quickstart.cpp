// Quickstart — the RAFDA workflow end to end:
//
//   1. write an ordinary, non-distributed guest program (RIR assembly);
//   2. hand it to the middleware, which transforms it automatically;
//   3. run it in one address space — output X;
//   4. change ONLY the distribution policy and run the identical program
//      across two address spaces — output X again, now with real remote
//      calls underneath.
//
// No line of the application mentions distribution; that is the paper's
// point.
#include <iostream>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace {

// A small order-processing app.  Note: plain classes, plain `new`, plain
// field access and static members — nothing distribution-aware.
constexpr const char* kApp = R"RIR(
class Inventory {
  field stock I
  ctor (I)V {
    load 0
    load 1
    putfield Inventory.stock I
    return
  }
  method reserve (I)Z {
    load 0
    getfield Inventory.stock I
    load 1
    cmpge
    iffalse Fail
    load 0
    load 0
    getfield Inventory.stock I
    load 1
    sub
    putfield Inventory.stock I
    const true
    returnvalue
  Fail:
    const false
    returnvalue
  }
  method remaining ()I {
    load 0
    getfield Inventory.stock I
    returnvalue
  }
}
class OrderDesk {
  field inv LInventory;
  static field processed I
  ctor (LInventory;)V {
    load 0
    load 1
    putfield OrderDesk.inv LInventory;
    return
  }
  method place (I)S {
    load 0
    getfield OrderDesk.inv LInventory;
    load 1
    invokevirtual Inventory.reserve (I)Z
    iffalse Rejected
    getstatic OrderDesk.processed I
    const 1
    add
    putstatic OrderDesk.processed I
    const "ok("
    load 1
    concat
    const ")"
    concat
    returnvalue
  Rejected:
    const "rejected("
    load 1
    concat
    const ")"
    concat
    returnvalue
  }
}
class Main {
  static method main ()V {
    locals 2
    new Inventory
    dup
    const 10
    invokespecial Inventory.<init> (I)V
    store 0
    new OrderDesk
    dup
    load 0
    invokespecial OrderDesk.<init> (LInventory;)V
    store 1
    load 1
    const 4
    invokevirtual OrderDesk.place (I)S
    invokestatic Sys.println (S)V
    load 1
    const 5
    invokevirtual OrderDesk.place (I)S
    invokestatic Sys.println (S)V
    load 1
    const 5
    invokevirtual OrderDesk.place (I)S
    invokestatic Sys.println (S)V
    const "left="
    load 0
    invokevirtual Inventory.remaining ()I
    concat
    const " processed="
    concat
    getstatic OrderDesk.processed I
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)RIR";

void run(bool distribute) {
    using namespace rafda;

    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, kApp);
    model::verify_pool(original);

    runtime::System system(original);
    system.add_node();
    system.add_node();

    if (distribute) {
        // The ONLY difference between the two runs: inventory objects live
        // on node 1, spoken to over the RMI-like protocol.
        system.policy().set_instance_home("Inventory", 1, "RMI");
    }

    system.call_static(0, "Main", "main", "()V");
    std::cout << system.node(0).interp().output();

    // Only Inventory ever goes remote, and only over RMI.
    const obs::Snapshot snap = system.metrics().snapshot();
    const std::uint64_t calls = snap.counter_value("rpc.proto.RMI.calls");
    if (calls == 0) {
        std::cout << "  (no remote traffic: everything ran in one address space)\n";
    } else {
        std::cout << "  (RMI: " << calls << " remote calls, "
                  << snap.counter_value("rpc.proto.RMI.request_bytes") +
                         snap.counter_value("rpc.proto.RMI.reply_bytes")
                  << " bytes, virtual time " << system.network().now_us() << "us)\n";
    }
}

}  // namespace

int main() {
    std::cout << "=== run 1: single address space ===\n";
    run(false);
    std::cout << "\n=== run 2: same program, Inventory remote on node 1 ===\n";
    run(true);
    std::cout << "\nIdentical application output; only the policy changed.\n";
    return 0;
}
