// Edge-case and stress coverage for the interpreter and heap.
#include <gtest/gtest.h>

#include <limits>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"

namespace rafda::vm {
namespace {

struct Fixture {
    model::ClassPool pool;
    std::unique_ptr<Interpreter> interp;

    explicit Fixture(const char* src) {
        install_prelude(pool);
        model::assemble_into(pool, src);
        model::verify_pool(pool);
        interp = std::make_unique<Interpreter>(pool);
        bind_prelude_natives(*interp);
    }
};

TEST(VmEdge, SwapAndDupAndNop) {
    Fixture f(R"(
class A {
  static method f (II)I {
    nop
    load 0
    load 1
    swap
    sub
    returnvalue
  }
  static method g (I)I {
    load 0
    dup
    mul
    returnvalue
  }
}
)");
    // swap makes it arg1 - arg0.
    EXPECT_EQ(f.interp->call_static("A", "f", "(II)I",
                                    {Value::of_int(3), Value::of_int(10)})
                  .as_int(),
              7);
    EXPECT_EQ(f.interp->call_static("A", "g", "(I)I", {Value::of_int(9)}).as_int(), 81);
}

TEST(VmEdge, RemainderAndNegativeDivision) {
    Fixture f(R"(
class A {
  static method r (II)I {
    load 0
    load 1
    rem
    returnvalue
  }
  static method d (II)I {
    load 0
    load 1
    div
    returnvalue
  }
}
)");
    auto r = [&](int a, int b) {
        return f.interp->call_static("A", "r", "(II)I", {Value::of_int(a), Value::of_int(b)})
            .as_int();
    };
    auto d = [&](int a, int b) {
        return f.interp->call_static("A", "d", "(II)I", {Value::of_int(a), Value::of_int(b)})
            .as_int();
    };
    EXPECT_EQ(r(7, 3), 1);
    EXPECT_EQ(r(-7, 3), -1);  // C++/Java truncation semantics
    EXPECT_EQ(d(-7, 2), -3);
    EXPECT_THROW(r(1, 0), VmError);
}

TEST(VmEdge, DoubleRemainderUsesFmod) {
    Fixture f(R"(
class A {
  static method r (DD)D {
    load 0
    load 1
    rem
    returnvalue
  }
}
)");
    EXPECT_DOUBLE_EQ(f.interp
                         ->call_static("A", "r", "(DD)D",
                                       {Value::of_double(7.5), Value::of_double(2.0)})
                         .as_double(),
                     1.5);
}

TEST(VmEdge, StringOrderingComparisons) {
    Fixture f(R"(
class A {
  static method lt (SS)Z {
    load 0
    load 1
    cmplt
    returnvalue
  }
}
)");
    auto lt = [&](const char* a, const char* b) {
        return f.interp
            ->call_static("A", "lt", "(SS)Z", {Value::of_str(a), Value::of_str(b)})
            .as_bool();
    };
    EXPECT_TRUE(lt("abc", "abd"));
    EXPECT_FALSE(lt("abd", "abc"));
    EXPECT_TRUE(lt("ab", "abc"));
    EXPECT_FALSE(lt("abc", "abc"));
}

TEST(VmEdge, MixedIntLongComparison) {
    Fixture f(R"(
class A {
  static method eq (IJ)Z {
    load 0
    load 1
    cmpeq
    returnvalue
  }
}
)");
    EXPECT_TRUE(f.interp
                    ->call_static("A", "eq", "(IJ)Z",
                                  {Value::of_int(42), Value::of_long(42)})
                    .as_bool());
    EXPECT_FALSE(f.interp
                     ->call_static("A", "eq", "(IJ)Z",
                                   {Value::of_int(42), Value::of_long(43)})
                     .as_bool());
}

TEST(VmEdge, DoubleAndMixedLongDoubleOrdering) {
    // A pair with a double orders in compare()'s widening path, both
    // operands as doubles; int/long pairs compare exactly as int64, so
    // longs past 2^53 stay distinct.
    Fixture f(R"(
class A {
  static method lt (DD)Z {
    load 0
    load 1
    cmplt
    returnvalue
  }
  static method le (JD)Z {
    load 0
    load 1
    cmple
    returnvalue
  }
  static method gt (DJ)Z {
    load 0
    load 1
    cmpgt
    returnvalue
  }
  static method ge (JD)Z {
    load 0
    load 1
    cmpge
    returnvalue
  }
  static method gtjj (JJ)Z {
    load 0
    load 1
    cmpgt
    returnvalue
  }
  static method eqjj (JJ)Z {
    load 0
    load 1
    cmpeq
    returnvalue
  }
  static method ltij (IJ)Z {
    load 0
    load 1
    cmplt
    returnvalue
  }
  static method neji (JI)Z {
    load 0
    load 1
    cmpne
    returnvalue
  }
}
)");
    auto test = [&](const char* name, const char* desc, Value a, Value b) {
        return f.interp->call_static("A", name, desc, {a, b}).as_bool();
    };
    const Value nan = Value::of_double(std::numeric_limits<double>::quiet_NaN());
    EXPECT_TRUE(test("lt", "(DD)Z", Value::of_double(-0.5), Value::of_double(0.25)));
    EXPECT_FALSE(test("lt", "(DD)Z", Value::of_double(0.25), Value::of_double(0.25)));
    EXPECT_FALSE(test("lt", "(DD)Z", Value::of_double(1.0), nan));
    EXPECT_FALSE(test("lt", "(DD)Z", nan, Value::of_double(1.0)));
    EXPECT_TRUE(test("le", "(JD)Z", Value::of_long(3), Value::of_double(3.0)));
    EXPECT_FALSE(test("le", "(JD)Z", Value::of_long(4), Value::of_double(3.5)));
    EXPECT_TRUE(test("gt", "(DJ)Z", Value::of_double(-2.5), Value::of_long(-3)));
    EXPECT_FALSE(test("gt", "(DJ)Z", Value::of_double(-3.0), Value::of_long(-3)));
    EXPECT_TRUE(test("ge", "(JD)Z", Value::of_long(-7), Value::of_double(-7.0)));
    EXPECT_FALSE(test("ge", "(JD)Z", Value::of_long(-7), Value::of_double(-6.5)));
    EXPECT_FALSE(test("ge", "(JD)Z", Value::of_long(0), nan));
    // Longs that one double cannot tell apart.
    constexpr std::int64_t k2p53 = std::int64_t{1} << 53;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_TRUE(test("gtjj", "(JJ)Z", Value::of_long(k2p53 + 1), Value::of_long(k2p53)));
    EXPECT_FALSE(test("gtjj", "(JJ)Z", Value::of_long(k2p53), Value::of_long(k2p53 + 1)));
    EXPECT_FALSE(test("eqjj", "(JJ)Z", Value::of_long(k2p53 + 1), Value::of_long(k2p53)));
    EXPECT_TRUE(test("gtjj", "(JJ)Z", Value::of_long(kMax), Value::of_long(kMax - 1)));
    EXPECT_FALSE(test("eqjj", "(JJ)Z", Value::of_long(kMax), Value::of_long(kMax - 1)));
    EXPECT_TRUE(test("eqjj", "(JJ)Z", Value::of_long(kMax), Value::of_long(kMax)));
    // int against long at the int boundary: the int widens to int64.
    constexpr std::int32_t kIntMax = std::numeric_limits<std::int32_t>::max();
    EXPECT_TRUE(test("ltij", "(IJ)Z", Value::of_int(kIntMax),
                     Value::of_long(std::int64_t{kIntMax} + 1)));
    EXPECT_FALSE(test("ltij", "(IJ)Z", Value::of_int(kIntMax), Value::of_long(kIntMax)));
    EXPECT_FALSE(test("neji", "(JI)Z", Value::of_long(kIntMax), Value::of_int(kIntMax)));
    EXPECT_TRUE(test("neji", "(JI)Z", Value::of_long(std::int64_t{kIntMax} + 1),
                     Value::of_int(kIntMax)));
}

TEST(VmEdge, CodeThatFallsOffItsEndIsAVmError) {
    // The verifier rejects a method whose last instruction falls through
    // (Verifier.FallOffEnd); this pool is never verified, so the
    // interpreter's own pc guard must stop it before code[pc] reads past
    // the end.  The sanitize preset runs this under ASan.
    model::ClassPool pool;
    install_prelude(pool);
    model::assemble_into(pool, R"(
class A {
  static method f ()I {
    const 1
    const 2
    add
  }
}
)");
    Interpreter interp(pool);
    try {
        interp.call_static("A", "f", "()I");
        FAIL() << "expected VmError";
    } catch (const VmError& e) {
        EXPECT_NE(std::string(e.what()).find("pc out of range in A.f"), std::string::npos)
            << e.what();
    }
}

TEST(VmEdge, HeapTransmutePreservesIdentity) {
    Fixture f(R"(
class Before {
  field x I
  ctor ()V {
    return
  }
}
class After {
  field a I
  field b J
  ctor ()V {
    return
  }
}
)");
    Value obj = f.interp->construct("Before", "()V", {});
    ObjId id = obj.as_ref();
    f.interp->set_field(id, "x", Value::of_int(5));
    EXPECT_EQ(f.interp->class_of(id).name, "Before");

    f.interp->heap().transmute(id, f.pool.get("After"),
                               {Value::of_int(1), Value::of_long(2)});
    EXPECT_EQ(f.interp->class_of(id).name, "After");
    EXPECT_EQ(f.interp->get_field(id, "a").as_int(), 1);
    EXPECT_EQ(f.interp->get_field(id, "b").as_long(), 2);
    // Old field is gone.
    EXPECT_THROW(f.interp->get_field(id, "x"), VerifyError);
}

TEST(VmEdge, HeapRejectsBadIds) {
    Fixture f("class A {\n ctor ()V {\n return\n }\n}\n");
    EXPECT_THROW(f.interp->heap().get(0), VmError);
    EXPECT_THROW(f.interp->heap().get(999), VmError);
}

TEST(VmEdge, CountersForStatics) {
    Fixture f(R"(
class A {
  static field s I
  static method touch ()I {
    getstatic A.s I
    const 1
    add
    dup
    putstatic A.s I
    returnvalue
  }
}
)");
    f.interp->reset_counters();
    f.interp->call_static("A", "touch", "()I");
    EXPECT_EQ(f.interp->counters().static_reads, 1u);
    EXPECT_EQ(f.interp->counters().static_writes, 1u);
    EXPECT_EQ(f.interp->counters().invokes_static, 1u);
}

TEST(VmEdge, ConvExtremes) {
    Fixture f(R"(
class A {
  static method l2i (J)I {
    load 0
    conv I
    returnvalue
  }
  static method l2l (J)J {
    load 0
    conv J
    returnvalue
  }
  static method d2i (D)I {
    load 0
    conv I
    returnvalue
  }
  static method d2l (D)J {
    load 0
    conv J
    returnvalue
  }
  static method i2d (I)D {
    load 0
    conv D
    returnvalue
  }
  static method ineg (I)I {
    load 0
    neg
    returnvalue
  }
  static method lneg (J)J {
    load 0
    neg
    returnvalue
  }
}
)");
    using I = std::numeric_limits<std::int32_t>;
    using J = std::numeric_limits<std::int64_t>;
    auto l2i = [&](std::int64_t v) {
        return f.interp->call_static("A", "l2i", "(J)I", {Value::of_long(v)}).as_int();
    };
    auto l2l = [&](std::int64_t v) {
        return f.interp->call_static("A", "l2l", "(J)J", {Value::of_long(v)}).as_long();
    };
    auto d2i = [&](double v) {
        return f.interp->call_static("A", "d2i", "(D)I", {Value::of_double(v)}).as_int();
    };
    auto d2l = [&](double v) {
        return f.interp->call_static("A", "d2l", "(D)J", {Value::of_double(v)}).as_long();
    };
    // Integral conversions follow the JVM's two's-complement rules with no
    // trip through double: l2i keeps the low 32 bits, and a long wider
    // than a double's mantissa survives conv J.
    EXPECT_EQ(l2i(1), 1);
    EXPECT_EQ(l2i((std::int64_t{1} << 32) + 1), 1);
    EXPECT_EQ(l2i(std::int64_t{I::max()} + 1), I::min());
    EXPECT_EQ(l2l((std::int64_t{1} << 53) + 1), (std::int64_t{1} << 53) + 1);
    EXPECT_EQ(l2l(J::min()), J::min());
    // d2i/d2l saturate, NaN -> 0, and truncate toward zero in range.
    EXPECT_EQ(d2i(1e10), I::max());
    EXPECT_EQ(d2i(-1e10), I::min());
    EXPECT_EQ(d2i(std::numeric_limits<double>::quiet_NaN()), 0);
    EXPECT_EQ(d2i(-2.9), -2);
    EXPECT_EQ(d2l(1e30), J::max());
    EXPECT_EQ(d2l(-1e30), J::min());
    EXPECT_EQ(d2l(std::numeric_limits<double>::infinity()), J::max());
    EXPECT_EQ(d2l(std::numeric_limits<double>::quiet_NaN()), 0);
    EXPECT_DOUBLE_EQ(
        f.interp->call_static("A", "i2d", "(I)D", {Value::of_int(-3)}).as_double(), -3.0);
    // Negating the minimum wraps to itself (ineg/lneg), without overflow.
    EXPECT_EQ(f.interp->call_static("A", "ineg", "(I)I", {Value::of_int(I::min())}).as_int(),
              I::min());
    EXPECT_EQ(
        f.interp->call_static("A", "lneg", "(J)J", {Value::of_long(J::min())}).as_long(),
        J::min());
    EXPECT_EQ(f.interp->call_static("A", "ineg", "(I)I", {Value::of_int(5)}).as_int(), -5);
}

TEST(VmEdge, OutputAccumulatesAndClears) {
    Fixture f(R"(
class A {
  static method say (S)V {
    load 0
    invokestatic Sys.print (S)V
    return
  }
}
)");
    f.interp->call_static("A", "say", "(S)V", {Value::of_str("a")});
    f.interp->call_static("A", "say", "(S)V", {Value::of_str("b")});
    EXPECT_EQ(f.interp->output(), "ab");
    f.interp->clear_output();
    EXPECT_EQ(f.interp->output(), "");
}

TEST(VmEdge, DeepButFiniteRecursionSucceeds) {
    Fixture f(R"(
class A {
  static method down (I)I {
    load 0
    const 0
    cmple
    iffalse Rec
    const 0
    returnvalue
  Rec:
    load 0
    const 1
    sub
    invokestatic A.down (I)I
    const 1
    add
    returnvalue
  }
}
)");
    EXPECT_EQ(
        f.interp->call_static("A", "down", "(I)I", {Value::of_int(1500)}).as_int(), 1500);
}

TEST(VmEdge, BooleanShortCircuitViaBranches) {
    // The assembler has no && operator; guests compile short-circuit logic
    // into branches.  Check a null guard pattern works.
    Fixture f(R"(
class Node {
  field next LNode;
  ctor ()V {
    return
  }
  static method hasNext (LNode;)Z {
    load 0
    const null
    cmpeq
    iffalse Check
    const false
    returnvalue
  Check:
    load 0
    getfield Node.next LNode;
    const null
    cmpne
    returnvalue
  }
}
)");
    Value n = f.interp->construct("Node", "()V", {});
    EXPECT_FALSE(
        f.interp->call_static("Node", "hasNext", "(LNode;)Z", {Value::null()}).as_bool());
    EXPECT_FALSE(f.interp->call_static("Node", "hasNext", "(LNode;)Z", {n}).as_bool());
    Value m = f.interp->construct("Node", "()V", {});
    f.interp->set_field(n.as_ref(), "next", m);
    EXPECT_TRUE(f.interp->call_static("Node", "hasNext", "(LNode;)Z", {n}).as_bool());
}

}  // namespace
}  // namespace rafda::vm
