#include "transform/local_binder.hpp"

#include <memory>
#include <set>

#include "support/error.hpp"
#include "transform/naming.hpp"

namespace rafda::transform {

using vm::Interpreter;
using vm::Value;

void bind_local_factories(Interpreter& interp, const TransformReport& report) {
    // clinit-once bookkeeping shared by all discover bindings; inserting
    // before invoking clinit gives JVM-style tolerance of initialisation
    // cycles between class singletons.
    auto initialized = std::make_shared<std::set<std::string>>();

    for (const std::string& cls : report.substituted_classes()) {
        const std::string o_local = naming::o_local(cls);
        interp.register_native(
            naming::o_factory(cls), "make", "()L" + naming::o_int(cls) + ";",
            [o_local](Interpreter& vm, const Value&, std::span<const Value>) {
                return vm.construct(o_local, "()V", {});
            });

        const std::string c_local = naming::c_local(cls);
        const std::string c_factory = naming::c_factory(cls);
        const std::string c_int_desc = "L" + naming::c_int(cls) + ";";
        interp.register_native(
            c_factory, "discover", "()" + c_int_desc,
            [initialized, cls, c_local, c_factory, c_int_desc](
                Interpreter& vm, const Value&, std::span<const Value>) {
                Value me = vm.call_static(c_local, naming::kSingletonGetter,
                                          "()" + c_int_desc);
                if (initialized->insert(cls).second) {
                    vm.call_static(c_factory, "clinit", "(" + c_int_desc + ")V", {me});
                }
                return me;
            });
    }
}

Value call_transformed_static(Interpreter& interp, const model::ClassPool& original_pool,
                              const TransformReport& report, const std::string& cls,
                              const std::string& method, const std::string& desc,
                              std::vector<Value> args) {
    if (!report.substituted(cls))
        // Class kept its original form; call it directly.
        return interp.call_static(cls, method, desc, std::move(args));
    Value me = interp.call_static(naming::c_factory(cls), "discover",
                                  "()L" + naming::c_int(cls) + ";");
    return interp.call_virtual(me, method, report.map_method_desc(original_pool, desc),
                               std::move(args));
}

}  // namespace rafda::transform
