// Inline-cache (quickening) correctness: the interpreter memoizes field
// slots, invoke targets and static slots per instruction site, validated
// against ClassPool::generation().  These tests pin down the contract:
// hits/misses are observable (counters + obs::Registry probes), a
// monomorphic site falls back correctly when receivers vary, and every
// mutation path — in-place rewrite through a mutable handout, late class
// registration, Heap::transmute — invalidates exactly enough that results
// stay identical to cold execution.
#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "model/classpool.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "vm/interp.hpp"
#include "vm/prelude.hpp"

namespace rafda::vm {
namespace {

using model::assemble_into;
using model::ClassFile;
using model::ClassPool;
using model::Field;
using model::TypeDesc;
using model::Visibility;

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

constexpr const char* kHotLoop = R"(
class Cell {
  field v J
  ctor ()V {
    return
  }
}
class Driver {
  static method spin (LCell;I)J {
    locals 2
  Top:
    load 1
    const 0
    cmple
    iftrue Done
    load 0
    load 0
    getfield Cell.v J
    const 1L
    add
    putfield Cell.v J
    load 1
    const 1
    sub
    store 1
    goto Top
  Done:
    load 0
    getfield Cell.v J
    returnvalue
  }
}
)";

TEST(Quickening, FieldSitesHitAfterFirstExecution) {
    Fixture f(kHotLoop);
    Value cell = f.interp->construct("Cell", "()V", {});
    Value r = f.interp->call_static("Driver", "spin", "(LCell;I)J",
                                    {cell, Value::of_int(100)});
    EXPECT_EQ(r.as_long(), 100);

    const Counters& c = f.interp->counters();
    // Three field sites in Driver.spin (two getfields, one putfield): each
    // misses exactly once, every other execution is a hit.
    EXPECT_EQ(c.ic_field_misses, 3u);
    EXPECT_EQ(c.ic_field_hits + c.ic_field_misses, c.field_reads + c.field_writes);
    EXPECT_GT(c.ic_field_hits, 190u);
    EXPECT_EQ(c.ic_hits(), c.ic_field_hits + c.ic_invoke_hits + c.ic_static_hits);
    EXPECT_EQ(c.ic_misses(),
              c.ic_field_misses + c.ic_invoke_misses + c.ic_static_misses);

    // A second run through the same warm sites misses nothing new.
    const std::uint64_t misses_before = c.ic_misses();
    f.interp->call_static("Driver", "spin", "(LCell;I)J", {cell, Value::of_int(50)});
    EXPECT_EQ(f.interp->counters().ic_misses(), misses_before);
}

TEST(Quickening, HitAndMissCountersVisibleThroughRegistry) {
    obs::Registry reg;  // must outlive the interpreter: its dtor deregisters probes
    Fixture f(kHotLoop);
    f.interp->attach_metrics(&reg, "vm.t");
    Value cell = f.interp->construct("Cell", "()V", {});
    f.interp->call_static("Driver", "spin", "(LCell;I)J", {cell, Value::of_int(40)});

    obs::Snapshot snap = reg.snapshot();
    const obs::Sample* hits = snap.find("vm.t.ic_hits");
    const obs::Sample* misses = snap.find("vm.t.ic_misses");
    ASSERT_NE(hits, nullptr);
    ASSERT_NE(misses, nullptr);
    EXPECT_EQ(hits->gauge, static_cast<std::int64_t>(f.interp->counters().ic_hits()));
    EXPECT_EQ(misses->gauge,
              static_cast<std::int64_t>(f.interp->counters().ic_misses()));
    EXPECT_GT(hits->gauge, 0);

    f.interp->reset_counters();
    EXPECT_EQ(f.interp->counters().ic_hits(), 0u);
    EXPECT_EQ(f.interp->counters().ic_misses(), 0u);
}

TEST(Quickening, PolymorphicSiteFallsBackPerReceiver) {
    Fixture f(R"(
class Base {
  ctor ()V {
    return
  }
  method tag ()I {
    const 0
    returnvalue
  }
}
class C1 extends Base {
  ctor ()V {
    load 0
    invokespecial Base.<init> ()V
    return
  }
  method tag ()I {
    const 1
    returnvalue
  }
}
class C2 extends Base {
  ctor ()V {
    load 0
    invokespecial Base.<init> ()V
    return
  }
  method tag ()I {
    const 2
    returnvalue
  }
}
class Driver {
  static method tag (LBase;)I {
    load 0
    invokevirtual Base.tag ()I
    returnvalue
  }
}
)");
    Value c1 = f.interp->construct("C1", "()V", {});
    Value c2 = f.interp->construct("C2", "()V", {});

    // Alternating receivers through the one call site: the monomorphic
    // cache re-fills every time, but dispatch stays exact (megamorphic
    // fallback is the symbolic slow path, not a wrong target).
    for (int k = 0; k < 8; ++k) {
        EXPECT_EQ(f.interp->call_static("Driver", "tag", "(LBase;)I", {c1}).as_int(), 1);
        EXPECT_EQ(f.interp->call_static("Driver", "tag", "(LBase;)I", {c2}).as_int(), 2);
    }
    const std::uint64_t megamorphic_misses = f.interp->counters().ic_invoke_misses;
    EXPECT_GE(megamorphic_misses, 16u);  // every receiver flip re-resolves

    // A monomorphic stretch hits from the second call on.
    for (int k = 0; k < 8; ++k)
        EXPECT_EQ(f.interp->call_static("Driver", "tag", "(LBase;)I", {c2}).as_int(), 2);
    EXPECT_LE(f.interp->counters().ic_invoke_misses, megamorphic_misses + 1);
}

TEST(Quickening, InPlaceOverrideAfterRunIsPickedUp) {
    // A VM whose pool is rewritten after first execution must not dispatch
    // to a stale Method*: the mutable handout bumps the generation, which
    // invalidates the per-site caches; the host API resolves afresh.
    Fixture f(R"(
class Base {
  ctor ()V {
    return
  }
  method f ()I {
    const 1
    returnvalue
  }
}
class D extends Base {
  ctor ()V {
    load 0
    invokespecial Base.<init> ()V
    return
  }
}
class Driver {
  static method call (LBase;)I {
    load 0
    invokevirtual Base.f ()I
    returnvalue
  }
}
)");
    Value d = f.interp->construct("D", "()V", {});
    // Warm every cache: guest site and host-API virtual dispatch.
    EXPECT_EQ(f.interp->call_static("Driver", "call", "(LBase;)I", {d}).as_int(), 1);
    EXPECT_EQ(f.interp->call_virtual(d, "f", "()I").as_int(), 1);

    // Give D an override by rewriting it in place.
    ClassPool donor;
    assemble_into(donor, R"(
class Donor {
  method f ()I {
    const 2
    returnvalue
  }
}
)");
    ClassFile* cls = f.pool.find_mutable("D");
    ASSERT_NE(cls, nullptr);
    cls->methods.push_back(*donor.get("Donor").find_method("f", "()I"));

    EXPECT_EQ(f.interp->call_static("Driver", "call", "(LBase;)I", {d}).as_int(), 2);
    EXPECT_EQ(f.interp->call_virtual(d, "f", "()I").as_int(), 2);
}

TEST(Quickening, FieldLayoutRewriteAfterMemoizationResolvesNewSlots) {
    Fixture f(R"(
class P {
  field a J
  field b J
  ctor ()V {
    return
  }
}
class Q {
  static method setB (LP;J)V {
    load 0
    load 1
    putfield P.b J
    return
  }
  static method getB (LP;)J {
    load 0
    getfield P.b J
    returnvalue
  }
}
)");
    Value p = f.interp->construct("P", "()V", {});
    f.interp->call_static("Q", "setB", "(LP;J)V", {p, Value::of_long(7)});
    EXPECT_EQ(f.interp->call_static("Q", "getB", "(LP;)J", {p}).as_long(), 7);

    // Remove the leading field: b shifts from slot 1 to slot 0.  A stale
    // layout (or a stale inline cache keyed only on the class pointer)
    // would read past the end of the fresh object's field vector.
    ClassFile* cls = f.pool.find_mutable("P");
    ASSERT_NE(cls, nullptr);
    cls->fields.erase(cls->fields.begin());

    Value p2 = f.interp->construct("P", "()V", {});
    f.interp->call_static("Q", "setB", "(LP;J)V", {p2, Value::of_long(9)});
    EXPECT_EQ(f.interp->call_static("Q", "getB", "(LP;)J", {p2}).as_long(), 9);
}

TEST(Quickening, TransmuteAfterCacheRedirectsFieldAndInvokeSites) {
    // Heap::transmute swaps the class behind an object id (the paper's
    // Figure 1 substitution).  Sites are keyed on the receiver's class
    // pointer, so no generation bump is needed — but the caches must not
    // keep serving the old class's slots or targets.
    Fixture f(R"(
class A {
  field x J
  ctor ()V {
    return
  }
  method who ()I {
    const 1
    returnvalue
  }
}
class B {
  field pad J
  field x J
  ctor ()V {
    return
  }
  method who ()I {
    const 2
    returnvalue
  }
}
class Driver {
  static method who (LA;)I {
    load 0
    invokevirtual A.who ()I
    returnvalue
  }
  static method getx (LA;)J {
    load 0
    getfield A.x J
    returnvalue
  }
}
)");
    Value a = f.interp->construct("A", "()V", {});
    f.interp->set_field(a.as_ref(), "x", Value::of_long(11));
    EXPECT_EQ(f.interp->call_static("Driver", "who", "(LA;)I", {a}).as_int(), 1);
    EXPECT_EQ(f.interp->call_static("Driver", "getx", "(LA;)J", {a}).as_long(), 11);

    // Same object id, new class: x now lives at slot 1, who() returns 2.
    f.interp->heap().transmute(
        a.as_ref(), f.pool.get("B"),
        {Value::of_long(0), Value::of_long(42)});
    EXPECT_EQ(f.interp->call_static("Driver", "who", "(LA;)I", {a}).as_int(), 2);
    EXPECT_EQ(f.interp->call_static("Driver", "getx", "(LA;)J", {a}).as_long(), 42);
}

TEST(Quickening, LateClassRegistrationResolvesThroughWarmCaches) {
    Fixture f(R"(
class Base {
  ctor ()V {
    return
  }
  method f ()I {
    const 1
    returnvalue
  }
}
class Driver {
  static method call (LBase;)I {
    load 0
    invokevirtual Base.f ()I
    returnvalue
  }
}
)");
    Value base = f.interp->construct("Base", "()V", {});
    EXPECT_EQ(f.interp->call_static("Driver", "call", "(LBase;)I", {base}).as_int(), 1);

    // Register a subclass after the site is warm (pool.add bumps the
    // generation); instances of it must dispatch to the override.
    assemble_into(f.pool, R"(
class Sub extends Base {
  ctor ()V {
    load 0
    invokespecial Base.<init> ()V
    return
  }
  method f ()I {
    const 3
    returnvalue
  }
}
)");
    Value sub = f.interp->construct("Sub", "()V", {});
    EXPECT_EQ(f.interp->call_static("Driver", "call", "(LBase;)I", {sub}).as_int(), 3);
    EXPECT_EQ(f.interp->call_static("Driver", "call", "(LBase;)I", {base}).as_int(), 1);
}

TEST(Quickening, StaticsSurviveRewriteByNameAndShiftSlots) {
    Fixture f(R"(
class S {
  static field count I
  static method bump ()I {
    getstatic S.count I
    const 1
    add
    putstatic S.count I
    getstatic S.count I
    returnvalue
  }
}
)");
    for (int k = 1; k <= 5; ++k)
        EXPECT_EQ(f.interp->call_static("S", "bump", "()I").as_int(), k);
    EXPECT_GT(f.interp->counters().ic_static_hits, 0u);

    // Prepend a static field so `count` shifts to a new slot; the warm
    // static sites must follow, and the value carries over by name.
    ClassFile* cls = f.pool.find_mutable("S");
    ASSERT_NE(cls, nullptr);
    cls->fields.insert(cls->fields.begin(),
                       Field{"zzz", TypeDesc::int_(), Visibility::Public, true, false});

    for (int k = 6; k <= 10; ++k)
        EXPECT_EQ(f.interp->call_static("S", "bump", "()I").as_int(), k);
    EXPECT_EQ(f.interp->get_static_field("S", "count").as_int(), 10);
    EXPECT_EQ(f.interp->get_static_field("S", "zzz").as_int(), 0);  // fresh default
}

TEST(Quickening, WarmSitesComputeTheSameValuesAsCold) {
    // The inline caches are an optimisation, never a semantic: the first
    // (cold, all-miss) execution and every warm execution must agree with
    // the analytic result.  spin(cell, n) adds n to cell.v cumulatively.
    Fixture f(kHotLoop);
    Value cell = f.interp->construct("Cell", "()V", {});
    std::int64_t expected = 0;
    for (int n = 1; n <= 6; ++n) {
        expected += n;
        EXPECT_EQ(f.interp
                      ->call_static("Driver", "spin", "(LCell;I)J",
                                    {cell, Value::of_int(n)})
                      .as_long(),
                  expected);
    }
    EXPECT_GT(f.interp->counters().ic_hits(), 0u);
}

// Native bindings are resolved once per method and reused; these pin the
// invalidation rules: re-registration and pool rewrites both rebind.

Interpreter::NativeFn returning(std::int32_t v) {
    return [v](Interpreter&, const Value&, std::span<const Value>) {
        return Value::of_int(v);
    };
}

TEST(NativeBinding, ReRegisteredNativeRunsTheNewFunction) {
    Fixture f(R"(
class Host {
  native static method f ()I
  static method viaGuest ()I {
    invokestatic Host.f ()I
    returnvalue
  }
}
)");
    f.interp->register_native("Host", "f", "()I", returning(1));
    EXPECT_EQ(f.interp->call_static("Host", "f", "()I").as_int(), 1);
    EXPECT_EQ(f.interp->call_static("Host", "viaGuest", "()I").as_int(), 1);

    f.interp->register_native("Host", "f", "()I", returning(2));
    EXPECT_EQ(f.interp->call_static("Host", "f", "()I").as_int(), 2);
    EXPECT_EQ(f.interp->call_static("Host", "viaGuest", "()I").as_int(), 2);
}

TEST(NativeBinding, ReRegisteredClassNativeRunsTheNewHandler) {
    Fixture f(R"(
class ProxyLike {
  ctor ()V {
    return
  }
  native method alpha ()I
  native method beta ()I
}
)");
    auto handler = [](std::int32_t base) {
        return [base](Interpreter&, const model::Method& m, const Value&,
                      std::span<const Value>) {
            return Value::of_int(base + (m.name == "alpha" ? 1 : 2));
        };
    };
    Value p = f.interp->construct("ProxyLike", "()V", {});
    f.interp->register_class_native("ProxyLike", handler(10));
    EXPECT_EQ(f.interp->call_virtual(p, "alpha", "()I").as_int(), 11);
    EXPECT_EQ(f.interp->call_virtual(p, "beta", "()I").as_int(), 12);

    f.interp->register_class_native("ProxyLike", handler(20));
    EXPECT_EQ(f.interp->call_virtual(p, "alpha", "()I").as_int(), 21);

    // A method-level native registered later takes precedence over the
    // class handler the method was already bound to.
    f.interp->register_native("ProxyLike", "beta", "()I", returning(99));
    EXPECT_EQ(f.interp->call_virtual(p, "beta", "()I").as_int(), 99);
    EXPECT_EQ(f.interp->call_virtual(p, "alpha", "()I").as_int(), 21);
}

TEST(NativeBinding, PoolRewriteAfterRunRebinds) {
    // Erasing `a` after it ran shifts `b` into a's old storage, so the
    // Method address a's binding was cached under now names `b`.  The
    // generation bump of the mutable handout must force a rebind.
    Fixture f(R"(
class Host {
  native static method a ()I
  native static method b ()I
}
)");
    f.interp->register_native("Host", "a", "()I", returning(1));
    f.interp->register_native("Host", "b", "()I", returning(2));
    const model::Method* a_addr = f.pool.get("Host").find_method("a", "()I");
    EXPECT_EQ(f.interp->call_static("Host", "a", "()I").as_int(), 1);

    ClassFile* cls = f.pool.find_mutable("Host");
    ASSERT_NE(cls, nullptr);
    cls->methods.erase(cls->methods.begin());
    ASSERT_EQ(f.pool.get("Host").find_method("b", "()I"), a_addr);
    EXPECT_EQ(f.interp->call_static("Host", "b", "()I").as_int(), 2);
}

TEST(MethodProfile, PoolRewriteAfterRunRecordsUnderTheMethodThatRan) {
    // The profile histogram is memoized per Method address like the native
    // binding: erasing `a` after it ran shifts `b` into a's old storage, so
    // b's calls must not be recorded under a's name.
    obs::Registry registry;  // outlives the interpreter, which detaches on exit
    Fixture f(R"(
class Host {
  static method a ()I {
    const 1
    returnvalue
  }
  static method b ()I {
    const 2
    returnvalue
  }
}
)");
    f.interp->attach_metrics(&registry, "vm");
    f.interp->set_method_profiling(true);
    const model::Method* a_addr = f.pool.get("Host").find_method("a", "()I");
    EXPECT_EQ(f.interp->call_static("Host", "a", "()I").as_int(), 1);

    ClassFile* cls = f.pool.find_mutable("Host");
    ASSERT_NE(cls, nullptr);
    cls->methods.erase(cls->methods.begin());
    ASSERT_EQ(f.pool.get("Host").find_method("b", "()I"), a_addr);
    EXPECT_EQ(f.interp->call_static("Host", "b", "()I").as_int(), 2);

    const obs::Histogram* a = registry.find_histogram("vm.method_instr.Host.a");
    const obs::Histogram* b = registry.find_histogram("vm.method_instr.Host.b");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->count(), 1u);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count(), 1u);
}

TEST(NativeBinding, EveryCallIsCounted) {
    Fixture f("class Host {\n native static method f ()I\n}\n");
    f.interp->register_native("Host", "f", "()I", returning(7));
    const std::uint64_t before = f.interp->counters().native_calls;
    for (int k = 0; k < 5; ++k) f.interp->call_static("Host", "f", "()I");
    f.interp->register_native("Host", "f", "()I", returning(8));
    for (int k = 0; k < 3; ++k) f.interp->call_static("Host", "f", "()I");
    EXPECT_EQ(f.interp->counters().native_calls - before, 8u);
}

}  // namespace
}  // namespace rafda::vm
