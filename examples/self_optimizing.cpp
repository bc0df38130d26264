// self_optimizing — closing the paper's loop: the middleware *observes* who
// talks to whom, *decides* new placements (the AdaptationEngine), and *acts*
// by migrating or replicating the live objects.  No application change, no
// operator.
//
// Deployment starts wrong on purpose: the three services live on node 2
// while all the callers are on node 0.  After one observation window a
// single controller tick moves the written-to services (Catalog, Audit) to
// node 0 and gives node 0 a local replica of the read-only Pricer.  The
// next window costs (almost) nothing.  Exits non-zero unless it costs less
// than the first.
#include <iostream>
#include <utility>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "runtime/system.hpp"
#include "vm/prelude.hpp"

namespace {

constexpr const char* kApp = R"RIR(
class Catalog {
  field items I
  ctor ()V {
    return
  }
  method count ()I {
    load 0
    load 0
    getfield Catalog.items I
    const 1
    add
    putfield Catalog.items I
    load 0
    getfield Catalog.items I
    returnvalue
  }
}
class Pricer {
  ctor ()V {
    return
  }
  method quote (I)I {
    load 1
    const 3
    mul
    returnvalue
  }
}
class Audit {
  field entries I
  ctor ()V {
    return
  }
  method log ()V {
    load 0
    load 0
    getfield Audit.entries I
    const 1
    add
    putfield Audit.entries I
    return
  }
}
)RIR";

}  // namespace

int main() {
    using namespace rafda;
    using vm::Value;

    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, kApp);
    model::verify_pool(original);

    runtime::System system(original);
    system.add_node();  // node 0: the web tier (all the callers)
    system.add_node();  // node 1: spare
    system.add_node();  // node 2: where everything was (mis)deployed

    for (const char* cls : {"Catalog", "Pricer", "Audit"})
        system.policy().set_instance_home(cls, 2, "RMI");

    Value catalog = system.construct(0, "Catalog", "()V");
    Value pricer = system.construct(0, "Pricer", "()V");
    Value audit = system.construct(0, "Audit", "()V");
    vm::Interpreter& web = system.node(0).interp();

    auto window = [&](int requests) {
        std::uint64_t t0 = system.network().now_us();
        for (int r = 0; r < requests; ++r) {
            web.call_virtual(catalog, "count", "()I");
            web.call_virtual(pricer, "quote", "(I)I", {Value::of_int(r)});
            web.call_virtual(audit, "log", "()V");
        }
        return system.network().now_us() - t0;
    };

    // The engine watches the three live instances; singletons it would
    // find by itself.
    system.enable_adaptation();
    runtime::AdaptationEngine& engine = *system.adaptation();
    for (auto [cls, obj] : {std::pair{"Catalog", catalog}, std::pair{"Pricer", pricer},
                            std::pair{"Audit", audit}}) {
        auto [n, oid] = system.resolve_terminal(0, obj.as_ref());
        engine.track_instance(cls, n, oid);
    }

    const std::uint64_t before = window(25);
    std::cout << "window 1 (everything on node 2, callers on node 0): " << before
              << "us\n\n";

    // One tick, at the web tier's clock: the controller scores the window
    // just observed.
    engine.tick(system.node(0).clock_us());
    std::cout << "controller decisions:\n";
    for (const runtime::AdaptDecision& d : engine.decisions())
        std::cout << "  " << runtime::adapt_action_name(d.action) << " " << d.cls
                  << ": node " << d.from << " -> node " << d.to << "  (" << d.window_calls
                  << " calls, " << d.projected_saved_bytes
                  << " bytes/window projected saving)\n";
    for (const Value& obj : {catalog, pricer, audit}) system.shorten_chain(0, obj.as_ref());
    std::cout << "\nmigrated " << system.migrations() << " objects\n";

    const std::uint64_t after = window(25);
    std::cout << "window 2 (after self-optimisation):                  " << after
              << "us\n";
    std::cout << "\nsame objects, same references, same code — the distribution\n"
                 "boundary moved itself to where the traffic is.\n";
    return after < before ? 0 : 1;
}
