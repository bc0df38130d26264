// Semantic equivalence: for whole guest programs with a printing main, the
// transformed program (locally bound) must produce byte-identical output to
// the original — the paper's core claim ("semantically equivalent
// applications", Sec 1), checked end to end.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "transform/local_binder.hpp"
#include "transform/pipeline.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"

namespace rafda::transform {
namespace {

/// Runs `main_cls.main ()V` in the original and the transformed program
/// and returns both outputs.
std::pair<std::string, std::string> run_both(const char* src,
                                             const std::string& main_cls = "Main") {
    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, src);
    model::verify_pool(original);

    vm::Interpreter orig(original);
    vm::bind_prelude_natives(orig);
    orig.call_static(main_cls, "main", "()V");

    PipelineResult result = run_pipeline(original);
    vm::Interpreter trans(result.pool);
    vm::bind_prelude_natives(trans);
    bind_local_factories(trans, result.report);
    call_transformed_static(trans, original, result.report, main_cls, "main", "()V");

    return {orig.output(), trans.output()};
}

#define EXPECT_EQUIVALENT(src)               \
    do {                                     \
        auto [a, b] = run_both(src);         \
        EXPECT_FALSE(a.empty());             \
        EXPECT_EQ(a, b);                     \
    } while (0)

TEST(Equivalence, ObjectGraphAndVirtualCalls) {
    EXPECT_EQUIVALENT(R"(
class Node {
  field next LNode;
  field value I
  ctor (I)V {
    load 0
    load 1
    putfield Node.value I
    return
  }
  method sum ()I {
    load 0
    getfield Node.next LNode;
    const null
    cmpeq
    iffalse Rec
    load 0
    getfield Node.value I
    returnvalue
  Rec:
    load 0
    getfield Node.value I
    load 0
    getfield Node.next LNode;
    invokevirtual Node.sum ()I
    add
    returnvalue
  }
}
class Main {
  static method main ()V {
    locals 2
    new Node
    dup
    const 1
    invokespecial Node.<init> (I)V
    store 0
    new Node
    dup
    const 2
    invokespecial Node.<init> (I)V
    store 1
    load 0
    load 1
    putfield Node.next LNode;
    const "sum="
    load 0
    invokevirtual Node.sum ()I
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)");
}

TEST(Equivalence, SharedObjectMutation) {
    // The Figure 1 shape: two holders share one C; mutations through one
    // holder are visible through the other.
    EXPECT_EQUIVALENT(R"(
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
class Main {
  static method main ()V {
    locals 3
    new C
    dup
    invokespecial C.<init> ()V
    store 0
    new A
    dup
    load 0
    invokespecial A.<init> (LC;)V
    store 1
    new B
    dup
    load 0
    invokespecial B.<init> (LC;)V
    store 2
    load 1
    invokevirtual A.act ()V
    load 1
    invokevirtual A.act ()V
    const "observed="
    load 2
    invokevirtual B.observe ()I
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)");
}

TEST(Equivalence, StaticsAndClinitOrdering) {
    EXPECT_EQUIVALENT(R"(
class Config {
  static field level I
  static field label S
  clinit {
    const 3
    putstatic Config.level I
    const "cfg-"
    getstatic Config.level I
    concat
    putstatic Config.label S
    return
  }
  static method describe ()S {
    getstatic Config.label S
    const "/"
    concat
    getstatic Config.level I
    concat
    returnvalue
  }
}
class Main {
  static method main ()V {
    invokestatic Config.describe ()S
    invokestatic Sys.println (S)V
    getstatic Config.level I
    const 10
    mul
    putstatic Config.level I
    invokestatic Config.describe ()S
    invokestatic Sys.println (S)V
    return
  }
}
)");
}

TEST(Equivalence, CrossClassStaticDependencies) {
    EXPECT_EQUIVALENT(R"(
class Alpha {
  static field a I
  clinit {
    getstatic Beta.b I
    const 1
    add
    putstatic Alpha.a I
    return
  }
}
class Beta {
  static field b I
  clinit {
    const 41
    putstatic Beta.b I
    return
  }
}
class Main {
  static method main ()V {
    const "alpha="
    getstatic Alpha.a I
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)");
}

TEST(Equivalence, InheritanceAndOverrides) {
    EXPECT_EQUIVALENT(R"(
class Shape {
  field name S
  ctor (S)V {
    load 0
    load 1
    putfield Shape.name S
    return
  }
  method area ()D {
    const 0.0
    returnvalue
  }
  method describe ()S {
    load 0
    getfield Shape.name S
    const ":"
    concat
    load 0
    invokevirtual Shape.area ()D
    concat
    returnvalue
  }
}
class Circle extends Shape {
  field r D
  ctor (D)V {
    load 0
    const "circle"
    invokespecial Shape.<init> (S)V
    load 0
    load 1
    putfield Circle.r D
    return
  }
  method area ()D {
    load 0
    getfield Circle.r D
    load 0
    getfield Circle.r D
    mul
    const 3.14159
    mul
    returnvalue
  }
}
class SquareS extends Shape {
  field s D
  ctor (D)V {
    load 0
    const "square"
    invokespecial Shape.<init> (S)V
    load 0
    load 1
    putfield SquareS.s D
    return
  }
  method area ()D {
    load 0
    getfield SquareS.s D
    load 0
    getfield SquareS.s D
    mul
    returnvalue
  }
}
class Main {
  static method main ()V {
    locals 1
    new Circle
    dup
    const 2.0
    invokespecial Circle.<init> (D)V
    invokevirtual Shape.describe ()S
    invokestatic Sys.println (S)V
    new SquareS
    dup
    const 3.0
    invokespecial SquareS.<init> (D)V
    invokevirtual Shape.describe ()S
    invokestatic Sys.println (S)V
    return
  }
}
)");
}

TEST(Equivalence, UserInterfaceDispatch) {
    EXPECT_EQUIVALENT(R"RIR(
interface Formatter {
  method fmt (I)S
}
class Hex implements Formatter {
  ctor ()V {
    return
  }
  method fmt (I)S {
    const "hexish("
    load 1
    concat
    const ")"
    concat
    returnvalue
  }
}
class Plain implements Formatter {
  ctor ()V {
    return
  }
  method fmt (I)S {
    const ""
    load 1
    concat
    returnvalue
  }
}
class Main {
  static method use (LFormatter;I)V {
    load 0
    load 1
    invokeinterface Formatter.fmt (I)S
    invokestatic Sys.println (S)V
    return
  }
  static method main ()V {
    new Hex
    dup
    invokespecial Hex.<init> ()V
    const 10
    invokestatic Main.use (LFormatter;I)V
    new Plain
    dup
    invokespecial Plain.<init> ()V
    const 11
    invokestatic Main.use (LFormatter;I)V
    return
  }
}
)RIR");
}

TEST(Equivalence, ExceptionsAcrossTransformedCode) {
    EXPECT_EQUIVALENT(R"(
class Risky {
  field limit I
  ctor (I)V {
    load 0
    load 1
    putfield Risky.limit I
    return
  }
  method check (I)I {
    load 1
    load 0
    getfield Risky.limit I
    cmpgt
    iffalse Ok
    new Throwable
    dup
    const "limit exceeded"
    invokespecial Throwable.<init> (S)V
    throw
  Ok:
    load 1
    returnvalue
  }
}
class Main {
  static method tryOne (LRisky;I)V {
  S:
    load 0
    load 1
    invokevirtual Risky.check (I)I
    const "ok:"
    swap
    concat
    invokestatic Sys.println (S)V
    return
  E:
    nop
  H:
    invokevirtual Throwable.getMsg ()S
    const "caught:"
    swap
    concat
    invokestatic Sys.println (S)V
    return
    catch Throwable from S to E using H
  }
  static method main ()V {
    locals 1
    new Risky
    dup
    const 5
    invokespecial Risky.<init> (I)V
    store 0
    load 0
    const 3
    invokestatic Main.tryOne (LRisky;I)V
    load 0
    const 9
    invokestatic Main.tryOne (LRisky;I)V
    return
  }
}
)");
}

TEST(Equivalence, LoopsAndArithmetic) {
    EXPECT_EQUIVALENT(R"(
class Acc {
  field total J
  ctor ()V {
    return
  }
  method add (J)V {
    load 0
    load 0
    getfield Acc.total J
    load 1
    add
    putfield Acc.total J
    return
  }
}
class Main {
  static method main ()V {
    locals 2
    new Acc
    dup
    invokespecial Acc.<init> ()V
    store 0
    const 0
    store 1
  Top:
    load 1
    const 20
    cmpge
    iftrue Done
    load 0
    load 1
    load 1
    mul
    conv J
    invokevirtual Acc.add (J)V
    load 1
    const 1
    add
    store 1
    goto Top
  Done:
    const "total="
    load 0
    getfield Acc.total J
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)");
}

TEST(Equivalence, MixedTransformableAndNot) {
    // Helper has a native method: stays untouched; Main still transforms.
    model::ClassPool original;
    vm::install_prelude(original);
    model::assemble_into(original, R"(
class RawHelper {
  native static method magic (I)I
}
class Main {
  static method main ()V {
    const "magic="
    const 5
    invokestatic RawHelper.magic (I)I
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)");
    model::verify_pool(original);

    auto bind_magic = [](vm::Interpreter& vm) {
        vm.register_native("RawHelper", "magic", "(I)I",
                           [](vm::Interpreter&, const vm::Value&, std::span<const vm::Value> a) {
                               return vm::Value::of_int(a[0].as_int() * 111);
                           });
    };

    vm::Interpreter orig(original);
    vm::bind_prelude_natives(orig);
    bind_magic(orig);
    orig.call_static("Main", "main", "()V");

    PipelineResult result = run_pipeline(original);
    EXPECT_FALSE(result.report.substituted("RawHelper"));
    EXPECT_TRUE(result.report.substituted("Main"));

    vm::Interpreter trans(result.pool);
    vm::bind_prelude_natives(trans);
    bind_magic(trans);
    bind_local_factories(trans, result.report);
    call_transformed_static(trans, original, result.report, "Main", "main", "()V");

    EXPECT_EQ(orig.output(), trans.output());
    EXPECT_EQ(orig.output(), "magic=555\n");
}

TEST(Equivalence, StaticStateSharedAcrossCallSites) {
    EXPECT_EQUIVALENT(R"(
class Registry {
  static field count I
  static method register ()I {
    getstatic Registry.count I
    const 1
    add
    dup
    putstatic Registry.count I
    returnvalue
  }
}
class Client {
  ctor ()V {
    return
  }
  method join ()I {
    invokestatic Registry.register ()I
    returnvalue
  }
}
class Main {
  static method main ()V {
    new Client
    dup
    invokespecial Client.<init> ()V
    invokevirtual Client.join ()I
    pop
    invokestatic Registry.register ()I
    pop
    new Client
    dup
    invokespecial Client.<init> ()V
    invokevirtual Client.join ()I
    const "registered="
    swap
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)");
}

}  // namespace
}  // namespace rafda::transform
