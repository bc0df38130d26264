// policy_deployment — distribution captured as configuration, not code.
//
// The same transformed order-processing program is deployed three times
// from three *textual* policy descriptions (the paper's long-term goal of
// "capturing distribution policy"): all-local, split across two nodes over
// RMI, and split over SOAP with a slow lossy link.  The application output
// is identical each time; the cost profile is not.
#include <iostream>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/policy_config.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace {

constexpr const char* kApp = R"RIR(
class Ledger {
  field balance J
  ctor (J)V {
    load 0
    load 1
    putfield Ledger.balance J
    return
  }
  method post (J)J {
    load 0
    load 0
    getfield Ledger.balance J
    load 1
    add
    putfield Ledger.balance J
    load 0
    getfield Ledger.balance J
    returnvalue
  }
}
class Teller {
  field ledger LLedger;
  ctor (LLedger;)V {
    load 0
    load 1
    putfield Teller.ledger LLedger;
    return
  }
  method day ()J {
    locals 2
    const 0
    store 1
  Top:
    load 1
    const 10
    cmpge
    iftrue Done
    load 0
    getfield Teller.ledger LLedger;
    load 1
    const 100
    mul
    conv J
    invokevirtual Ledger.post (J)J
    pop
    load 1
    const 1
    add
    store 1
    goto Top
  Done:
    load 0
    getfield Teller.ledger LLedger;
    const 0L
    invokevirtual Ledger.post (J)J
    returnvalue
  }
}
)RIR";

constexpr const char* kDeployLocal = R"(
# development: one box
protocol default RMI
)";

constexpr const char* kDeploySplitRmi = R"(
# production: ledger on the database node, binary protocol
protocol default RMI
instance Ledger on 1
link 0 -> 1 latency 120
link 1 -> 0 latency 120
)";

constexpr const char* kDeploySplitSoapLossy = R"(
# interop deployment: SOAP across a slow WAN with loss
protocol default SOAP
instance Ledger on 1 via SOAP
link 0 -> 1 latency 900 bandwidth 12.5
link 1 -> 0 latency 900 bandwidth 12.5
)";

void deploy(const char* title, const char* config) {
    using namespace rafda;

    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, kApp);
    model::verify_pool(original);

    runtime::System system(original);
    system.add_node();
    system.add_node();
    runtime::apply_policy_config(config, system.policy(), &system.network());

    vm::Value ledger = system.construct(0, "Ledger", "(J)V", {vm::Value::of_long(1000)});
    vm::Value teller = system.construct(0, "Teller", "(LLedger;)V", {ledger});
    std::int64_t balance =
        system.node(0).interp().call_virtual(teller, "day", "()J").as_long();

    std::cout << title << "\n  final balance: " << balance
              << "   virtual time: " << system.network().now_us() << "us";
    std::cout << "   wire bytes: " << system.rpc_totals().bytes << "\n";
}

}  // namespace

int main() {
    std::cout << "one program, three textual deployment descriptions:\n\n";
    deploy("[local]          ", kDeployLocal);
    deploy("[split via RMI]  ", kDeploySplitRmi);
    deploy("[split via SOAP] ", kDeploySplitSoapLossy);
    std::cout << "\nsame balance everywhere; only cost changed with the deployment.\n";
    return 0;
}
