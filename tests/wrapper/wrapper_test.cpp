#include "wrapper/wrapper_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "model/assembler.hpp"
#include "model/verifier.hpp"
#include "support/error.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"

namespace rafda::wrapper {
namespace {

using vm::Value;

constexpr const char* kApp = R"(
class Box {
  field v I
  ctor (I)V {
    load 0
    load 1
    putfield Box.v I
    return
  }
  method bump ()I {
    load 0
    load 0
    getfield Box.v I
    const 1
    add
    putfield Box.v I
    load 0
    getfield Box.v I
    returnvalue
  }
}
class Pair {
  field left LBox;
  field right LBox;
  ctor (LBox;LBox;)V {
    load 0
    load 1
    putfield Pair.left LBox;
    load 0
    load 2
    putfield Pair.right LBox;
    return
  }
  method total ()I {
    load 0
    getfield Pair.left LBox;
    getfield Box.v I
    load 0
    getfield Pair.right LBox;
    getfield Box.v I
    add
    returnvalue
  }
}
class Main {
  static method main ()V {
    locals 3
    new Box
    dup
    const 10
    invokespecial Box.<init> (I)V
    store 0
    new Box
    dup
    const 20
    invokespecial Box.<init> (I)V
    store 1
    new Pair
    dup
    load 0
    load 1
    invokespecial Pair.<init> (LBox;LBox;)V
    store 2
    load 0
    invokevirtual Box.bump ()I
    pop
    const "total="
    load 2
    invokevirtual Pair.total ()I
    concat
    invokestatic Sys.println (S)V
    return
  }
}
)";

model::ClassPool make_original() {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, kApp);
    model::verify_pool(pool);
    return pool;
}

TEST(Wrapper, OutputVerifies) {
    model::ClassPool original = make_original();
    WrapperResult result = run_wrapper_pipeline(original);
    EXPECT_TRUE(model::verify_pool_collect(result.pool).empty());
}

TEST(Wrapper, GeneratesOneWrapperPerClass) {
    model::ClassPool original = make_original();
    WrapperResult result = run_wrapper_pipeline(original);
    for (const char* name : {"Box_Wrapper", "Pair_Wrapper", "Main_Wrapper"})
        EXPECT_TRUE(result.pool.contains(name)) << name;
    // The wrapped classes stay in the pool (they carry the state).
    EXPECT_TRUE(result.pool.contains("Box"));
    EXPECT_EQ(std::count(result.report.wrapped.begin(), result.report.wrapped.end(), "Box"), 1);
    EXPECT_EQ(std::count(result.report.wrapped.begin(), result.report.wrapped.end(), "Sys"), 0);
    EXPECT_TRUE(result.pool.contains("Sys"));
    EXPECT_FALSE(result.pool.contains("Sys_Wrapper"));
}

TEST(Wrapper, WrapperShapeMatchesRelatedWorkDescription) {
    model::ClassPool original = make_original();
    WrapperResult result = run_wrapper_pipeline(original);
    const model::ClassFile& w = result.pool.get("Box_Wrapper");
    // Encapsulates the object...
    const model::Field* target = w.find_field("target");
    ASSERT_NE(target, nullptr);
    EXPECT_EQ(target->type.descriptor(), "LBox;");
    // ...and intercepts all access requests.
    EXPECT_NE(w.find_method("get_v", "()I"), nullptr);
    EXPECT_NE(w.find_method("set_v", "(I)V"), nullptr);
    EXPECT_NE(w.find_method("bump", "()I"), nullptr);        // forwarder
    EXPECT_NE(w.find_method("bump__impl", "()I"), nullptr);  // logic
    EXPECT_NE(w.find_method("make", "()LBox_Wrapper;"), nullptr);
    EXPECT_NE(w.find_method("init", "(LBox_Wrapper;I)V"), nullptr);
}

TEST(Wrapper, WrappedProgramBehavesLikeOriginal) {
    model::ClassPool original = make_original();
    vm::Interpreter orig(original);
    vm::bind_prelude_natives(orig);
    orig.call_static("Main", "main", "()V");

    WrapperResult result = run_wrapper_pipeline(original);
    vm::Interpreter wrapped(result.pool);
    vm::bind_prelude_natives(wrapped);
    wrapped.call_static("Main", "main", "()V");  // statics stay static

    EXPECT_EQ(orig.output(), wrapped.output());
    EXPECT_EQ(orig.output(), "total=31\n");
}

TEST(Wrapper, DoubleAllocationPerInstance) {
    model::ClassPool original = make_original();
    WrapperResult result = run_wrapper_pipeline(original);
    vm::Interpreter wrapped(result.pool);
    vm::bind_prelude_natives(wrapped);
    wrapped.reset_counters();
    wrapped.call_static("Main", "main", "()V");
    // 3 logical objects -> 6 allocations (wrapper + target each).
    EXPECT_EQ(wrapped.counters().allocations, 6u);
}

TEST(Wrapper, InterceptionCostsExtraDispatch) {
    model::ClassPool original = make_original();

    vm::Interpreter orig(original);
    vm::bind_prelude_natives(orig);
    orig.call_static("Main", "main", "()V");

    WrapperResult result = run_wrapper_pipeline(original);
    vm::Interpreter wrapped(result.pool);
    vm::bind_prelude_natives(wrapped);
    wrapped.call_static("Main", "main", "()V");

    // "significantly greater overhead": every logical call is at least two
    // dispatches and every field access an extra call.
    EXPECT_GT(wrapped.counters().total_invokes(), 2 * orig.counters().total_invokes());
    EXPECT_GT(wrapped.counters().instructions, orig.counters().instructions);
}

TEST(Wrapper, InheritanceWrapsHierarchy) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
class Base {
  field b I
  ctor ()V {
    return
  }
  method who ()S {
    const "base"
    returnvalue
  }
}
class Derived extends Base {
  ctor ()V {
    load 0
    invokespecial Base.<init> ()V
    return
  }
  method who ()S {
    const "derived"
    returnvalue
  }
}
class Main {
  static method main ()V {
    new Derived
    dup
    invokespecial Derived.<init> ()V
    invokevirtual Base.who ()S
    invokestatic Sys.println (S)V
    return
  }
}
)");
    model::verify_pool(pool);
    WrapperResult result = run_wrapper_pipeline(pool);
    EXPECT_EQ(result.pool.get("Derived_Wrapper").super_name, "Base_Wrapper");
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    interp.call_static("Main", "main", "()V");
    EXPECT_EQ(interp.output(), "derived\n");
}

TEST(Wrapper, RejectsUserInterfaces) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
interface Api {
  method f ()V
}
class Impl implements Api {
  ctor ()V {
    return
  }
  method f ()V {
    return
  }
  method g (LApi;)V {
    load 1
    invokeinterface Api.f ()V
    return
  }
}
)");
    model::verify_pool(pool);
    EXPECT_THROW(run_wrapper_pipeline(pool), TransformError);
}

TEST(Wrapper, StaticsRemainStaticAndShared) {
    model::ClassPool pool;
    vm::install_prelude(pool);
    model::assemble_into(pool, R"(
class Counter {
  static field n I
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
    model::verify_pool(pool);
    WrapperResult result = run_wrapper_pipeline(pool);
    vm::Interpreter interp(result.pool);
    vm::bind_prelude_natives(interp);
    EXPECT_EQ(interp.call_static("Counter", "bump", "()I").as_int(), 1);
    EXPECT_EQ(interp.call_static("Counter", "bump", "()I").as_int(), 2);
}

}  // namespace
}  // namespace rafda::wrapper
