#include <gtest/gtest.h>

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

TEST(GuestExceptions, ThrowCaughtInSameFrame) {
    Fixture f(R"(
class A {
  static method f (Z)I {
  S:
    load 0
    iffalse Ok
    new Throwable
    dup
    const "boom"
    invokespecial Throwable.<init> (S)V
    throw
  Ok:
    const 1
    returnvalue
  E:
    nop
  H:
    pop
    const -1
    returnvalue
    catch Throwable from S to E using H
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "f", "(Z)I", {Value::of_bool(false)}).as_int(), 1);
    EXPECT_EQ(f.interp->call_static("A", "f", "(Z)I", {Value::of_bool(true)}).as_int(), -1);
}

TEST(GuestExceptions, UnwindsThroughFrames) {
    Fixture f(R"(
class A {
  static method deep (I)V {
    load 0
    const 0
    cmple
    iffalse Rec
    new Throwable
    dup
    const "bottom"
    invokespecial Throwable.<init> (S)V
    throw
  Rec:
    load 0
    const 1
    sub
    invokestatic A.deep (I)V
    return
  }
  static method catchIt (I)S {
  S:
    load 0
    invokestatic A.deep (I)V
  E:
    const "no-throw"
    returnvalue
  H:
    invokevirtual Throwable.getMsg ()S
    returnvalue
    catch Throwable from S to E using H
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "catchIt", "(I)S", {Value::of_int(5)}).as_str(),
              "bottom");
}

// Frames reuse their buffers by depth: after a throw unwinds five frames,
// caught in the guest or escaping to the embedder, the next calls at the
// same depths start from their own arguments, not the dead frames' state.
TEST(GuestExceptions, CallsAfterAnUnwindSeeFreshFrames) {
    Fixture f(R"(
class A {
  static method deep (IJ)J {
    load 0
    const 0
    cmple
    iffalse Rec
    new Throwable
    dup
    const "bottom"
    invokespecial Throwable.<init> (S)V
    throw
  Rec:
    load 0
    const 1
    sub
    load 1
    const 2L
    mul
    invokestatic A.deep (IJ)J
    returnvalue
  }
  static method sumDown (IJ)J {
    load 0
    const 0
    cmple
    iffalse Rec
    load 1
    returnvalue
  Rec:
    load 0
    const 1
    sub
    load 1
    load 0
    conv J
    add
    invokestatic A.sumDown (IJ)J
    returnvalue
  }
  static method catchIt (I)S {
  S:
    load 0
    const 1L
    invokestatic A.deep (IJ)J
    pop
  E:
    const "no-throw"
    returnvalue
  H:
    invokevirtual Throwable.getMsg ()S
    returnvalue
    catch Throwable from S to E using H
  }
}
)");
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(f.interp->call_static("A", "catchIt", "(I)S", {Value::of_int(4)}).as_str(),
                  "bottom");
        EXPECT_EQ(f.interp
                      ->call_static("A", "sumDown", "(IJ)J",
                                    {Value::of_int(5), Value::of_long(1000)})
                      .as_long(),
                  1015);
        EXPECT_THROW(f.interp->call_static("A", "deep", "(IJ)J",
                                           {Value::of_int(4), Value::of_long(3)}),
                     GuestException);
        EXPECT_EQ(f.interp
                      ->call_static("A", "sumDown", "(IJ)J",
                                    {Value::of_int(4), Value::of_long(-10)})
                      .as_long(),
                  0);
    }
}

TEST(GuestExceptions, UncaughtSurfacesAsGuestException) {
    Fixture f(R"(
class A {
  static method boom ()V {
    new Throwable
    dup
    const "kaboom"
    invokespecial Throwable.<init> (S)V
    throw
  }
}
)");
    try {
        f.interp->call_static("A", "boom", "()V");
        FAIL() << "expected GuestException";
    } catch (const GuestException& e) {
        EXPECT_EQ(e.class_name(), "Throwable");
        EXPECT_EQ(e.message(), "kaboom");
        EXPECT_NE(e.obj(), 0u);
    }
}

TEST(GuestExceptions, SubtypeMatching) {
    Fixture f(R"(
special class IoError extends Throwable {
  ctor (S)V {
    load 0
    load 1
    invokespecial Throwable.<init> (S)V
    return
  }
}
class A {
  static method f ()S {
  S:
    new IoError
    dup
    const "io"
    invokespecial IoError.<init> (S)V
    throw
  E:
    const "none"
    returnvalue
  H:
    invokevirtual Throwable.getMsg ()S
    returnvalue
    catch Throwable from S to E using H
  }
}
)");
    // A handler for the supertype catches the subtype.
    EXPECT_EQ(f.interp->call_static("A", "f", "()S").as_str(), "io");
}

TEST(GuestExceptions, NonMatchingHandlerDoesNotCatch) {
    Fixture f(R"(
special class IoError extends Throwable {
  ctor (S)V {
    load 0
    load 1
    invokespecial Throwable.<init> (S)V
    return
  }
}
special class MathError extends Throwable {
  ctor (S)V {
    load 0
    load 1
    invokespecial Throwable.<init> (S)V
    return
  }
}
class A {
  static method f ()S {
  S:
    new IoError
    dup
    const "io"
    invokespecial IoError.<init> (S)V
    throw
  E:
    const "none"
    returnvalue
  H:
    invokevirtual Throwable.getMsg ()S
    returnvalue
    catch MathError from S to E using H
  }
}
)");
    EXPECT_THROW(f.interp->call_static("A", "f", "()S"), GuestException);
}

TEST(GuestExceptions, HandlerRangeRespected) {
    Fixture f(R"(
class A {
  static method f ()S {
  Before:
    const 0
    pop
  S:
    const 0
    pop
  E:
    new Throwable
    dup
    const "after-range"
    invokespecial Throwable.<init> (S)V
    throw
  H:
    invokevirtual Throwable.getMsg ()S
    returnvalue
    catch Throwable from S to E using H
  }
}
)");
    // The throw happens at pc >= E, outside [S, E) — must escape.
    EXPECT_THROW(f.interp->call_static("A", "f", "()S"), GuestException);
}

TEST(GuestExceptions, ThrowGuestFromNative) {
    Fixture f(R"(
class Remote {
  native static method call ()I
  static method guarded ()I {
  S:
    invokestatic Remote.call ()I
    returnvalue
  E:
    nop
  H:
    pop
    const -7
    returnvalue
    catch Throwable from S to E using H
  }
}
)");
    f.interp->register_native(
        "Remote", "call", "()I", [](Interpreter& vm, const Value&, std::span<const Value>) {
            Value t = vm.construct("Throwable", "(S)V", {Value::of_str("remote fault")});
            vm.throw_guest(t);
            return Value::null();  // unreachable
        });
    // Guest-level handler catches the fault raised by the native.
    EXPECT_EQ(f.interp->call_static("Remote", "guarded", "()I").as_int(), -7);
}

TEST(GuestExceptions, MultipleHandlersFirstMatchWins) {
    Fixture f(R"(
special class IoError extends Throwable {
  ctor (S)V {
    load 0
    load 1
    invokespecial Throwable.<init> (S)V
    return
  }
}
class A {
  static method f ()I {
  S:
    new IoError
    dup
    const "x"
    invokespecial IoError.<init> (S)V
    throw
  E:
    const 0
    returnvalue
  H1:
    pop
    const 1
    returnvalue
  H2:
    pop
    const 2
    returnvalue
    catch IoError from S to E using H1
    catch Throwable from S to E using H2
  }
}
)");
    EXPECT_EQ(f.interp->call_static("A", "f", "()I").as_int(), 1);
}

TEST(GuestExceptions, ClinitThrowSurfacesAtBoundary) {
    Fixture f(R"(
class Bad {
  static field x I
  clinit {
    new Throwable
    dup
    const "init failed"
    invokespecial Throwable.<init> (S)V
    throw
  }
}
)");
    EXPECT_THROW(f.interp->get_static_field("Bad", "x"), GuestException);
}

}  // namespace
}  // namespace rafda::vm
