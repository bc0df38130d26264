#include "vm/prelude.hpp"

#include "model/assembler.hpp"

namespace rafda::vm {

namespace {

constexpr const char* kPreludeRir = R"(
class Sys {
  native static method print (S)V
  native static method println (S)V
  native static method time ()J
}

special class Throwable {
  field msg S
  ctor (S)V {
    load 0
    load 1
    putfield Throwable.msg S
    return
  }
  method getMsg ()S {
    load 0
    getfield Throwable.msg S
    returnvalue
  }
}
)";

}  // namespace

void install_prelude(model::ClassPool& pool) {
    for (model::ClassFile& cf : model::assemble(kPreludeRir)) {
        if (!pool.contains(cf.name)) pool.add(std::move(cf));
    }
}

void bind_prelude_natives(Interpreter& interp) {
    interp.register_native(kSysClass, "print", "(S)V",
                           [](Interpreter& vm, const Value&, std::span<const Value> args) {
                               vm.append_output(args[0].as_str());
                               return Value::null();
                           });
    interp.register_native(kSysClass, "println", "(S)V",
                           [](Interpreter& vm, const Value&, std::span<const Value> args) {
                               vm.append_output(args[0].as_str() + "\n");
                               return Value::null();
                           });
    interp.register_native(kSysClass, "time", "()J",
                           [](Interpreter& vm, const Value&, std::span<const Value>) {
                               return Value::of_long(vm.logical_time());
                           });
}

}  // namespace rafda::vm
