#include "vm/interp.hpp"

#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "vm/prelude.hpp"

namespace rafda::vm {
namespace {

using model::assemble_into;
using model::ClassPool;

struct Fixture {
    ClassPool pool;
    std::unique_ptr<Interpreter> interp;

    explicit Fixture(const char* src) {
        install_prelude(pool);
        assemble_into(pool, src);
        model::verify_pool(pool);
        interp = std::make_unique<Interpreter>(pool);
        bind_prelude_natives(*interp);
    }
};

TEST(Interp, ArithmeticAndReturn) {
    Fixture f(R"(
class A {
  static method calc (II)I {
    load 0
    load 1
    add
    const 2
    mul
    returnvalue
  }
}
)");
    Value r = f.interp->call_static("A", "calc", "(II)I",
                                    {Value::of_int(3), Value::of_int(4)});
    EXPECT_EQ(r.as_int(), 14);
}

TEST(Interp, MixedWidthArithmeticWidens) {
    Fixture f(R"(
class A {
  static method mix (IJ)J {
    load 0
    load 1
    add
    returnvalue
  }
  static method toD (I)D {
    load 0
    conv D
    const 0.5
    add
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "mix", "(IJ)J",
                                    {Value::of_int(1), Value::of_long(1LL << 40)})
                  .as_long(),
              (1LL << 40) + 1);
    EXPECT_DOUBLE_EQ(
        f.interp->call_static("A", "toD", "(I)D", {Value::of_int(2)}).as_double(), 2.5);
}

TEST(Interp, DivisionByZeroIsVmError) {
    Fixture f(R"(
class A {
  static method d (I)I {
    load 0
    const 0
    div
    returnvalue
  }
}
)");
    EXPECT_THROW(f.interp->call_static("A", "d", "(I)I", {Value::of_int(1)}), VmError);
}

TEST(Interp, LoopComputesFactorial) {
    Fixture f(R"(
class A {
  static method fact (I)J {
    locals 2
    const 1L
    store 1
  Top:
    load 0
    const 1
    cmple
    iftrue Done
    load 1
    load 0
    mul
    store 1
    load 0
    const 1
    sub
    store 0
    goto Top
  Done:
    load 1
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "fact", "(I)J", {Value::of_int(10)}).as_long(),
              3628800);
    EXPECT_EQ(f.interp->call_static("A", "fact", "(I)J", {Value::of_int(0)}).as_long(), 1);
}

TEST(Interp, RecursionFibonacci) {
    Fixture f(R"(
class A {
  static method fib (I)I {
    load 0
    const 2
    cmplt
    iffalse Rec
    load 0
    returnvalue
  Rec:
    load 0
    const 1
    sub
    invokestatic A.fib (I)I
    load 0
    const 2
    sub
    invokestatic A.fib (I)I
    add
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "fib", "(I)I", {Value::of_int(15)}).as_int(), 610);
}

TEST(Interp, InfiniteRecursionOverflows) {
    Fixture f(R"(
class A {
  static method loop ()V {
    invokestatic A.loop ()V
    return
  }
}
)");
    EXPECT_THROW(f.interp->call_static("A", "loop", "()V"), VmError);
}

TEST(Interp, ObjectFieldsAndConstructors) {
    Fixture f(R"(
class Point {
  field x I
  field y I
  ctor (II)V {
    load 0
    load 1
    putfield Point.x I
    load 0
    load 2
    putfield Point.y I
    return
  }
  method manhattan ()I {
    load 0
    getfield Point.x I
    load 0
    getfield Point.y I
    add
    returnvalue
  }
}
)");
    Value p = f.interp->construct("Point", "(II)V", {Value::of_int(3), Value::of_int(4)});
    EXPECT_EQ(f.interp->call_virtual(p, "manhattan", "()I").as_int(), 7);
    EXPECT_EQ(f.interp->get_field(p.as_ref(), "x").as_int(), 3);
    f.interp->set_field(p.as_ref(), "x", Value::of_int(10));
    EXPECT_EQ(f.interp->call_virtual(p, "manhattan", "()I").as_int(), 14);
}

TEST(Interp, VirtualDispatchUsesDynamicType) {
    Fixture f(R"(
class Animal {
  ctor ()V {
    return
  }
  method speak ()S {
    const "..."
    returnvalue
  }
  method describe ()S {
    const "I say "
    load 0
    invokevirtual Animal.speak ()S
    concat
    returnvalue
  }
}
class Dog extends Animal {
  ctor ()V {
    return
  }
  method speak ()S {
    const "woof"
    returnvalue
  }
}
)");
    Value dog = f.interp->construct("Dog", "()V", {});
    EXPECT_EQ(f.interp->call_virtual(dog, "describe", "()S").as_str(), "I say woof");
}

TEST(Interp, ConstructWithImplicitDefaultCtorFails) {
    // RIR has no implicit constructors: classes must declare them.
    Fixture f("class NoCtor {\n field x I\n}\n");
    EXPECT_THROW(f.interp->construct("NoCtor", "()V", {}), VmError);
}

TEST(Interp, InterfaceDispatch) {
    Fixture f(R"(
interface Shape {
  method area ()D
}
class Square implements Shape {
  field side D
  ctor (D)V {
    load 0
    load 1
    putfield Square.side D
    return
  }
  method area ()D {
    load 0
    getfield Square.side D
    load 0
    getfield Square.side D
    mul
    returnvalue
  }
}
class Meter {
  static method measure (LShape;)D {
    load 0
    invokeinterface Shape.area ()D
    returnvalue
  }
}
)");
    Value sq = f.interp->construct("Square", "(D)V", {Value::of_double(3.0)});
    EXPECT_DOUBLE_EQ(f.interp->call_static("Meter", "measure", "(LShape;)D", {sq}).as_double(),
                     9.0);
}

TEST(Interp, StaticsAndClinitRunOnce) {
    Fixture f(R"(
class Counter {
  static field n I
  static field greeting S
  clinit {
    const 41
    putstatic Counter.n I
    const "hello"
    putstatic Counter.greeting S
    return
  }
  static method bump ()I {
    getstatic Counter.n I
    const 1
    add
    dup
    putstatic Counter.n I
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("Counter", "bump", "()I").as_int(), 42);
    EXPECT_EQ(f.interp->call_static("Counter", "bump", "()I").as_int(), 43);
    EXPECT_EQ(f.interp->get_static_field("Counter", "greeting").as_str(), "hello");
}

TEST(Interp, StaticFieldResolvedThroughSubclass) {
    Fixture f(R"(
class Base {
  static field shared I
}
class Derived extends Base {
  static method touch ()I {
    getstatic Derived.shared I
    const 5
    add
    dup
    putstatic Derived.shared I
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("Derived", "touch", "()I").as_int(), 5);
    // Base and Derived share one storage slot.
    EXPECT_EQ(f.interp->get_static_field("Base", "shared").as_int(), 5);
}

TEST(Interp, ClinitDependencyChain) {
    Fixture f(R"(
class A {
  static field va I
  clinit {
    getstatic B.vb I
    const 1
    add
    putstatic A.va I
    return
  }
}
class B {
  static field vb I
  clinit {
    const 10
    putstatic B.vb I
    return
  }
}
)");
    EXPECT_EQ(f.interp->get_static_field("A", "va").as_int(), 11);
}

TEST(Interp, NullDereferenceIsVmError) {
    Fixture f(R"(
class A {
  field next LA;
  ctor ()V {
    return
  }
  method chase ()I {
    load 0
    getfield A.next LA;
    getfield A.next LA;
    pop
    const 0
    returnvalue
  }
}
)");
    Value a = f.interp->construct("A", "()V", {});
    EXPECT_THROW(f.interp->call_virtual(a, "chase", "()I"), VmError);
}

TEST(Interp, StringOpsAndPrelude) {
    Fixture f(R"(
class Greet {
  static method run (S)V {
    const "hello, "
    load 0
    concat
    invokestatic Sys.println (S)V
    const "n="
    const 42
    concat
    invokestatic Sys.print (S)V
    return
  }
}
)");
    f.interp->call_static("Greet", "run", "(S)V", {Value::of_str("world")});
    EXPECT_EQ(f.interp->output(), "hello, world\nn=42");
}

TEST(Interp, StringPlusConcatenatesLikeJava) {
    Fixture f(R"(
class A {
  static method s ()S {
    const "v="
    const 7
    add
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "s", "()S").as_str(), "v=7");
}

TEST(Interp, DoubleDisplayIsShortestRoundTrip) {
    // Doubles stringify with round-trip (shortest lossless) formatting,
    // not a fixed 6-significant-digit truncation: "d=" + 1.0/3 must not
    // come out as "d=0.333333".
    Fixture f(R"(
class A {
  static method third ()S {
    const "d="
    const 1.0
    const 3.0
    div
    concat
    returnvalue
  }
  static method tenth ()S {
    const "d="
    const 0.1
    concat
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "third", "()S").as_str(),
              "d=0.3333333333333333");
    // Short decimals keep their short spelling (no 0.1000000000000000055...).
    EXPECT_EQ(f.interp->call_static("A", "tenth", "()S").as_str(), "d=0.1");
}

TEST(Interp, ComparisonsAndBooleans) {
    Fixture f(R"(
class A {
  static method inRange (III)Z {
    load 0
    load 1
    cmpge
    load 0
    load 2
    cmplt
    and
    returnvalue
  }
  static method strEq (SS)Z {
    load 0
    load 1
    cmpeq
    returnvalue
  }
}
)");
    auto call = [&](int v, int lo, int hi) {
        return f.interp
            ->call_static("A", "inRange", "(III)Z",
                          {Value::of_int(v), Value::of_int(lo), Value::of_int(hi)})
            .as_bool();
    };
    EXPECT_TRUE(call(5, 0, 10));
    EXPECT_FALSE(call(10, 0, 10));
    EXPECT_TRUE(f.interp
                    ->call_static("A", "strEq", "(SS)Z",
                                  {Value::of_str("abc"), Value::of_str("abc")})
                    .as_bool());
    EXPECT_FALSE(f.interp
                     ->call_static("A", "strEq", "(SS)Z",
                                   {Value::of_str("abc"), Value::of_str("abd")})
                     .as_bool());
}

TEST(Interp, ReferenceEqualityIsIdentity) {
    Fixture f(R"(
class Box {
  ctor ()V {
    return
  }
  static method same (LBox;LBox;)Z {
    load 0
    load 1
    cmpeq
    returnvalue
  }
  static method isNull (LBox;)Z {
    load 0
    const null
    cmpeq
    returnvalue
  }
}
)");
    Value a = f.interp->construct("Box", "()V", {});
    Value b = f.interp->construct("Box", "()V", {});
    EXPECT_TRUE(f.interp->call_static("Box", "same", "(LBox;LBox;)Z", {a, a}).as_bool());
    EXPECT_FALSE(f.interp->call_static("Box", "same", "(LBox;LBox;)Z", {a, b}).as_bool());
    EXPECT_TRUE(
        f.interp->call_static("Box", "isNull", "(LBox;)Z", {Value::null()}).as_bool());
    EXPECT_FALSE(f.interp->call_static("Box", "isNull", "(LBox;)Z", {a}).as_bool());
}

TEST(Interp, CustomNativeMethod) {
    Fixture f(R"(
class Host {
  native static method twice (I)I
  static method viaNative (I)I {
    load 0
    invokestatic Host.twice (I)I
    returnvalue
  }
}
)");
    f.interp->register_native("Host", "twice", "(I)I",
                              [](Interpreter&, const Value&, std::span<const Value> args) {
                                  return Value::of_int(args[0].as_int() * 2);
                              });
    EXPECT_EQ(
        f.interp->call_static("Host", "viaNative", "(I)I", {Value::of_int(21)}).as_int(), 42);
}

TEST(Interp, ClassLevelNativeHandler) {
    Fixture f(R"(
class ProxyLike {
  ctor ()V {
    return
  }
  native method alpha (I)I
  native method beta (S)S
}
)");
    f.interp->register_class_native(
        "ProxyLike", [](Interpreter&, const model::Method& m, const Value&,
                        std::span<const Value> args) {
            if (m.name == "alpha") return Value::of_int(args[0].as_int() + 1);
            return Value::of_str("echo:" + args[0].as_str());
        });
    Value p = f.interp->construct("ProxyLike", "()V", {});
    EXPECT_EQ(f.interp->call_virtual(p, "alpha", "(I)I", {Value::of_int(1)}).as_int(), 2);
    EXPECT_EQ(f.interp->call_virtual(p, "beta", "(S)S", {Value::of_str("x")}).as_str(),
              "echo:x");
}

// A native's arguments live in its own frame: a call it makes back into
// the interpreter, with arguments of its own and guest frames below it,
// fills the frames after that one and leaves the span intact.
TEST(Interp, ReentrantNativeKeepsItsArguments) {
    Fixture f(R"(
class Host {
  native static method mix (II)I
  static method sum3 (III)I {
    load 0
    load 1
    add
    load 2
    add
    returnvalue
  }
  static method viaGuest (III)I {
    load 2
    load 1
    load 0
    invokestatic Host.sum3 (III)I
    returnvalue
  }
  static method viaNative (II)I {
    load 0
    load 1
    invokestatic Host.mix (II)I
    returnvalue
  }
}
)");
    std::vector<std::int32_t> seen;
    f.interp->register_native(
        "Host", "mix", "(II)I", [&seen](Interpreter& vm, const Value&, std::span<const Value> args) {
            const Value inner = vm.call_static(
                "Host", "viaGuest", "(III)I",
                {Value::of_int(100), Value::of_int(200), Value::of_int(300)});
            seen.push_back(args[0].as_int());
            seen.push_back(args[1].as_int());
            return Value::of_int(args[0].as_int() * 1000 + args[1].as_int() + inner.as_int());
        });
    EXPECT_EQ(f.interp->call_static("Host", "viaNative", "(II)I",
                                    {Value::of_int(7), Value::of_int(9)})
                  .as_int(),
              7609);
    EXPECT_EQ(f.interp->call_static("Host", "mix", "(II)I", {Value::of_int(4), Value::of_int(5)})
                  .as_int(),
              4605);
    EXPECT_EQ(seen, (std::vector<std::int32_t>{7, 9, 4, 5}));
}

TEST(Interp, UnboundNativeThrows) {
    Fixture f("class H {\n native static method f ()V\n}\n");
    EXPECT_THROW(f.interp->call_static("H", "f", "()V"), VmError);
}

TEST(Interp, CountersTrackWork) {
    Fixture f(R"(
class A {
  field v I
  ctor ()V {
    return
  }
  method touch ()I {
    load 0
    getfield A.v I
    const 1
    add
    returnvalue
  }
}
)");
    f.interp->reset_counters();
    Value a = f.interp->construct("A", "()V", {});
    f.interp->call_virtual(a, "touch", "()I");
    const Counters& c = f.interp->counters();
    EXPECT_EQ(c.allocations, 1u);
    EXPECT_EQ(c.field_reads, 1u);
    EXPECT_GT(c.instructions, 0u);
    EXPECT_EQ(c.invokes_virtual, 1u);
}

TEST(Interp, LogicalTime) {
    Fixture f(R"(
class A {
  static method now ()J {
    invokestatic Sys.time ()J
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "now", "()J").as_long(), 0);
    f.interp->advance_time(125);
    EXPECT_EQ(f.interp->call_static("A", "now", "()J").as_long(), 125);
}

TEST(Interp, ConvTruncates) {
    Fixture f(R"(
class A {
  static method toInt (D)I {
    load 0
    conv I
    returnvalue
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "toInt", "(D)I", {Value::of_double(3.9)}).as_int(),
              3);
    EXPECT_EQ(f.interp->call_static("A", "toInt", "(D)I", {Value::of_double(-3.9)}).as_int(),
              -3);
}

TEST(Interp, InheritedNativeResolvesAgainstDeclaringClass) {
    Fixture f(R"(
class Base {
  ctor ()V {
    return
  }
  native method tag ()S
}
class Sub extends Base {
  ctor ()V {
    return
  }
}
)");
    f.interp->register_native("Base", "tag", "()S",
                              [](Interpreter&, const Value&, std::span<const Value>) {
                                  return Value::of_str("base-native");
                              });
    Value s = f.interp->construct("Sub", "()V", {});
    EXPECT_EQ(f.interp->call_virtual(s, "tag", "()S").as_str(), "base-native");
}

}  // namespace
}  // namespace rafda::vm
