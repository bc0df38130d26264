#include "model/verifier.hpp"

#include <gtest/gtest.h>

#include "model/assembler.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace rafda::model {
namespace {

ClassPool pool_of(const char* src) {
    ClassPool pool;
    assemble_into(pool, src);
    return pool;
}

bool has_problem(const ClassPool& pool, const std::string& needle) {
    for (const std::string& p : verify_pool_collect(pool))
        if (p.find(needle) != std::string::npos) return true;
    return false;
}

TEST(Verifier, AcceptsWellFormedPool) {
    ClassPool pool = pool_of(R"(
interface Greeter {
  method greet ()S
}
class Hello implements Greeter {
  field who S
  ctor (S)V {
    load 0
    load 1
    putfield Hello.who S
    return
  }
  method greet ()S {
    const "hi "
    load 0
    getfield Hello.who S
    concat
    returnvalue
  }
}
)");
    EXPECT_NO_THROW(verify_pool(pool));
    EXPECT_TRUE(verify_pool_collect(pool).empty());
}

TEST(Verifier, UnknownSuperclass) {
    ClassPool pool = pool_of("class A extends Ghost {\n}\n");
    EXPECT_TRUE(has_problem(pool, "unknown superclass"));
    EXPECT_THROW(verify_pool(pool), VerifyError);
}

TEST(Verifier, SuperclassMustBeClass) {
    ClassPool pool = pool_of("interface I {\n}\nclass A extends I {\n}\n");
    EXPECT_TRUE(has_problem(pool, "is an interface"));
}

TEST(Verifier, ImplementsMustBeInterface) {
    ClassPool pool = pool_of("class B {\n}\nclass A implements B {\n}\n");
    EXPECT_TRUE(has_problem(pool, "implements non-interface"));
}

TEST(Verifier, InheritanceCycle) {
    ClassPool pool = pool_of("class A extends B {\n}\nclass B extends A {\n}\n");
    EXPECT_TRUE(has_problem(pool, "cycle"));
}

TEST(Verifier, InterfaceConstraints) {
    ClassPool pool;
    ClassFile iface;
    iface.name = "I";
    iface.is_interface = true;
    iface.fields.push_back(Field{"x", TypeDesc::int_(), Visibility::Public, false, false});
    Method m;
    m.name = "f";
    m.sig = MethodSig({}, TypeDesc::void_());
    m.is_abstract = false;  // concrete method in interface: invalid
    m.code.instrs.push_back(ins::ret());
    m.code.max_locals = 1;
    iface.methods.push_back(std::move(m));
    pool.add(std::move(iface));
    EXPECT_TRUE(has_problem(pool, "interfaces cannot declare fields"));
    EXPECT_TRUE(has_problem(pool, "must be abstract"));
}

TEST(Verifier, UnknownFieldType) {
    ClassPool pool = pool_of("class A {\n field g LGhost;\n}\n");
    EXPECT_TRUE(has_problem(pool, "unknown class Ghost"));
}

TEST(Verifier, DuplicateMembers) {
    ClassPool pool;
    ClassFile cf;
    cf.name = "D";
    cf.fields.push_back(Field{"x", TypeDesc::int_(), Visibility::Public, false, false});
    cf.fields.push_back(Field{"x", TypeDesc::long_(), Visibility::Public, false, false});
    pool.add(std::move(cf));
    EXPECT_TRUE(has_problem(pool, "duplicate field"));
}

TEST(Verifier, FallOffEnd) {
    ClassPool pool = pool_of("class A {\n method f ()V {\n const 1\n pop\n }\n}\n");
    EXPECT_TRUE(has_problem(pool, "fall off the end"));
}

TEST(Verifier, BranchOutOfRangeViaRawClassFile) {
    ClassPool pool;
    ClassFile cf;
    cf.name = "B";
    Method m;
    m.name = "f";
    m.sig = MethodSig({}, TypeDesc::void_());
    m.code.instrs.push_back(ins::go(99));
    m.code.max_locals = 1;
    cf.methods.push_back(std::move(m));
    pool.add(std::move(cf));
    EXPECT_TRUE(has_problem(pool, "branch target out of range"));
}

TEST(Verifier, SlotOutOfRange) {
    ClassPool pool;
    ClassFile cf;
    cf.name = "B";
    Method m;
    m.name = "f";
    m.sig = MethodSig({}, TypeDesc::void_());
    m.code.instrs.push_back(ins::load(7));
    m.code.instrs.push_back(ins::pop());
    m.code.instrs.push_back(ins::ret());
    m.code.max_locals = 1;  // slot 7 is out of range
    cf.methods.push_back(std::move(m));
    pool.add(std::move(cf));
    EXPECT_TRUE(has_problem(pool, "slot out of range"));
}

TEST(Verifier, UnresolvedFieldAndMethod) {
    ClassPool pool = pool_of(R"(
class A {
  method f ()V {
    load 0
    getfield A.nothing I
    pop
    load 0
    invokevirtual A.missing ()V
    return
  }
}
)");
    EXPECT_TRUE(has_problem(pool, "no field nothing"));
    EXPECT_TRUE(has_problem(pool, "no method missing"));
}

TEST(Verifier, FieldDescriptorMismatch) {
    ClassPool pool = pool_of(R"(
class A {
  field x I
  method f ()J {
    load 0
    getfield A.x J
    returnvalue
  }
}
)");
    EXPECT_TRUE(has_problem(pool, "descriptor mismatch"));
}

TEST(Verifier, StaticInstanceMismatch) {
    ClassPool pool = pool_of(R"(
class A {
  static field s I
  method f ()I {
    load 0
    getfield A.s I
    returnvalue
  }
}
)");
    EXPECT_TRUE(has_problem(pool, "instance field op on static field"));
}

TEST(Verifier, NewOfInterfaceOrAbstract) {
    ClassPool pool = pool_of(R"(
interface I {
  method f ()V
}
class Abs {
  abstract method g ()V
}
class User {
  static method mk ()V {
    new I
    pop
    new Abs
    pop
    return
  }
}
)");
    EXPECT_TRUE(has_problem(pool, "new of interface"));
    EXPECT_TRUE(has_problem(pool, "new of abstract class"));
}

TEST(Verifier, NewOfConcreteSubclassOfAbstractOk) {
    ClassPool pool = pool_of(R"(
class Abs {
  abstract method g ()V
}
class Conc extends Abs {
  method g ()V {
    return
  }
  static method mk ()V {
    new Conc
    pop
    return
  }
}
)");
    EXPECT_TRUE(verify_pool_collect(pool).empty());
}

TEST(Verifier, InvokeInterfaceKindChecks) {
    ClassPool pool = pool_of(R"(
interface I {
  method f ()V
}
class C implements I {
  method f ()V {
    return
  }
  method g (LI;LC;)V {
    load 1
    invokevirtual I.f ()V
    load 2
    invokeinterface C.f ()V
    return
  }
}
)");
    EXPECT_TRUE(has_problem(pool, "invokevirtual on interface"));
    EXPECT_TRUE(has_problem(pool, "invokeinterface on non-interface"));
}

TEST(Verifier, StackUnderflow) {
    ClassPool pool = pool_of("class A {\n method f ()V {\n pop\n return\n }\n}\n");
    EXPECT_TRUE(has_problem(pool, "stack underflow"));
}

TEST(Verifier, InconsistentStackDepthAcrossPaths) {
    ClassPool pool;
    ClassFile cf;
    cf.name = "B";
    Method m;
    m.name = "f";
    m.sig = MethodSig({TypeDesc::bool_()}, TypeDesc::void_());
    // if (b) push 1; join point sees depth 0 on one path, 1 on the other.
    m.code.instrs.push_back(ins::load(0));     // 0
    m.code.instrs.push_back(ins::if_true(3));  // 1
    m.code.instrs.push_back(ins::ret());       // 2 (depth 0 path ends)
    m.code.instrs.push_back(ins::const_int(1));// 3
    m.code.instrs.push_back(ins::go(2));       // 4 -> pc 2 again at depth 1
    m.code.max_locals = 1;
    cf.methods.push_back(std::move(m));
    pool.add(std::move(cf));
    EXPECT_TRUE(has_problem(pool, "inconsistent stack depth"));
}

TEST(Verifier, HandlerEntersWithDepthOne) {
    ClassPool pool = pool_of(R"(
special class Thr {
}
class A {
  method f ()I {
  S:
    const 1
    pop
  E:
    const 0
    returnvalue
  H:
    pop
    const 1
    returnvalue
    catch Thr from S to E using H
  }
}
)");
    EXPECT_TRUE(verify_pool_collect(pool).empty()) << verify_pool_collect(pool).front();
}

TEST(Verifier, InvokeStackEffectCountsArgs) {
    ClassPool pool = pool_of(R"(
class A {
  static method two (II)I {
    load 0
    load 1
    add
    returnvalue
  }
  static method caller ()I {
    const 1
    invokestatic A.two (II)I
    returnvalue
  }
}
)");
    EXPECT_TRUE(has_problem(pool, "stack underflow"));
}

TEST(Verifier, ParallelCollectMatchesSerial) {
    // Several independent problems spread across classes: the parallel run
    // must report the same problems in the same (class-name) order.
    ClassPool pool = pool_of(R"(
class AUnderflow {
  method f ()V {
    pop
    return
  }
}
class BMissingSuper extends Nowhere {
}
class COk {
  method g ()I {
    const 7
    returnvalue
  }
}
class DBadRef {
  method h ()V {
    load 0
    getfield DBadRef.absent I
    pop
    return
  }
}
)");
    std::vector<std::string> serial = verify_pool_collect(pool);
    ASSERT_FALSE(serial.empty());
    for (std::size_t threads : {2u, 8u}) {
        support::ThreadPool workers(threads);
        EXPECT_EQ(verify_pool_collect(pool, &workers), serial)
            << "at " << threads << " threads";
    }
}

TEST(Verifier, ParallelThrowNamesSameFirstProblem) {
    ClassPool pool = pool_of(R"(
class Bad extends Nowhere {
}
class Worse {
  method f ()V {
    pop
    return
  }
}
)");
    std::string serial_what;
    try {
        verify_pool(pool);
        FAIL() << "expected VerifyError";
    } catch (const VerifyError& e) {
        serial_what = e.what();
    }
    support::ThreadPool workers(4);
    try {
        verify_pool(pool, &workers);
        FAIL() << "expected VerifyError";
    } catch (const VerifyError& e) {
        EXPECT_EQ(std::string(e.what()), serial_what);
    }
}

TEST(Verifier, ParallelAcceptsWellFormedPool) {
    ClassPool pool = pool_of(R"(
class A {
  method f ()I {
    const 1
    returnvalue
  }
}
class B extends A {
}
)");
    support::ThreadPool workers(8);
    EXPECT_NO_THROW(verify_pool(pool, &workers));
    EXPECT_TRUE(verify_pool_collect(pool, &workers).empty());
}

/// One pool holding every problem kind the verifier reports, spread over
/// classes so the report's order (class name, then member, then pc) shows.
ClassPool all_problem_kinds() {
    ClassPool pool = pool_of(R"(
interface IFace {
  method f ()V
}
special class Thr {
}
class Abs {
  abstract method g ()V
}
class Cyc1 extends Cyc2 {
}
class Cyc2 extends Cyc1 {
}
class HierBad extends IFace implements Abs, Nowhere {
}
class HierGhost extends Ghost {
}
class Members {
  field g LGhost;
  field ga [LGhost;
  field gaa [[LGhost;
  method p (LGhost;I)V {
    return
  }
  method pa ([LGhost;)[LGhost; {
    const null
    returnvalue
  }
  method r ()LGhost; {
    const null
    returnvalue
  }
}
class Code {
  static field s I
  field x I
  static method st ()V {
    return
  }
  method fall ()V {
    const 1
    pop
  }
  method under ()V {
    pop
    return
  }
  method handler ()V {
  S:
    nop
  E:
    return
  H:
    pop
    return
    catch Ghost from S to E using H
  }
  method syms ()V {
    const 1
    newarray LGhost;
    pop
    const 1
    newarray [[LGhost;
    pop
    new Ghost
    pop
    new IFace
    pop
    new Abs
    pop
    const null
    getfield Ghost.x I
    pop
    load 0
    getfield Code.s I
    pop
    load 0
    getfield Code.x J
    pop
    load 0
    getfield Code.nope I
    pop
    getstatic Code.nope I
    pop
    getstatic Code.s J
    pop
    invokestatic Code.missing ()V
    invokestatic Ghost.missing (LGhost;)V
    load 0
    invokespecial Code.st ()V
    const null
    invokevirtual Ghost.f ()V
    const null
    invokeinterface Code.st ()V
    const null
    invokevirtual IFace.f ()V
    load 0
    invokevirtual Code.missing (I)V
    return
  }
}
)");
    auto body = [](std::vector<Instruction> instrs, int max_locals = 1) {
        Code code;
        code.instrs = std::move(instrs);
        code.max_locals = max_locals;
        return code;
    };
    auto method = [](std::string name, MethodSig sig, Code code) {
        Method m;
        m.name = std::move(name);
        m.sig = std::move(sig);
        m.code = std::move(code);
        return m;
    };
    const MethodSig v({}, TypeDesc::void_());

    ClassFile anon;  // empty name
    pool.add(std::move(anon));

    ClassFile iface;
    iface.name = "IBad";
    iface.is_interface = true;
    iface.fields.push_back(Field{"k", TypeDesc::int_(), Visibility::Public, true, true});
    Method concrete = method("concrete", v, body({ins::ret()}));
    concrete.vis = Visibility::Private;
    concrete.is_static = true;
    iface.methods.push_back(std::move(concrete));
    Method prot = method("prot", v, {});
    prot.is_abstract = true;
    prot.vis = Visibility::Protected;
    iface.methods.push_back(std::move(prot));
    pool.add(std::move(iface));

    ClassFile dup;
    dup.name = "Dup";
    dup.fields.push_back(Field{"x", TypeDesc::int_(), Visibility::Public, false, false});
    dup.fields.push_back(Field{"x", TypeDesc::long_(), Visibility::Public, false, false});
    dup.fields.push_back(Field{"nothing", TypeDesc::void_(), Visibility::Public, false, false});
    dup.methods.push_back(method("m", MethodSig({TypeDesc::int_()}, TypeDesc::void_()),
                                 body({ins::ret()}, 2)));
    dup.methods.push_back(method("m", MethodSig({TypeDesc::int_()}, TypeDesc::void_()),
                                 body({ins::ret()}, 2)));
    dup.methods.push_back(method("m", MethodSig({TypeDesc::long_()}, TypeDesc::void_()),
                                 body({ins::ret()}, 2)));
    Method sctor = method("<init>", v, body({ins::ret()}));
    sctor.is_static = true;
    dup.methods.push_back(std::move(sctor));
    dup.methods.push_back(method("<clinit>", v, body({ins::ret()})));
    pool.add(std::move(dup));

    ClassFile raw;
    raw.name = "Raw";
    raw.methods.push_back(method("empty", v, body({})));
    raw.methods.push_back(method("far", v, body({ins::go(99)})));
    raw.methods.push_back(method("slot", v, body({ins::load(7), ins::pop(), ins::ret()})));
    Code bad_handler = body({ins::nop(), ins::ret()});
    bad_handler.handlers.push_back(Handler{1, 1, 0, "Thr"});
    bad_handler.handlers.push_back(Handler{0, 5, 1, "Thr"});
    raw.methods.push_back(method("handlers", v, std::move(bad_handler)));
    // if (b) push 1; the join at pc 2 sees depth 0 and depth 1.
    raw.methods.push_back(method(
        "join", MethodSig({TypeDesc::bool_()}, TypeDesc::void_()),
        body({ins::load(1), ins::if_true(3), ins::ret(), ins::const_int(1), ins::go(2)}, 2)));
    Instruction void_array;
    void_array.op = Op::NewArray;
    void_array.desc = "V";
    raw.methods.push_back(
        method("voids", v, body({ins::const_int(1), void_array, ins::pop(), ins::ret()})));
    pool.add(std::move(raw));
    return pool;
}

/// The full report for all_problem_kinds(): wording, locations and order
/// are pinned string for string.
const std::vector<std::string> kAllProblemKinds = {
    "<anonymous>: class with empty name",
    "Code.fall()V: control can fall off the end of the code",
    "Code.under()V: stack underflow at pc 0 (pop)",
    "Code.handler()V: handler names unknown class Ghost",
    "Code.syms()V at pc 1: array of unknown class Ghost",
    "Code.syms()V at pc 4: array of unknown class Ghost",
    "Code.syms()V at pc 6: new of unknown class Ghost",
    "Code.syms()V at pc 8: new of interface IFace",
    "Code.syms()V at pc 10: new of abstract class Abs",
    "Code.syms()V at pc 13: field op on unknown class Ghost",
    "Code.syms()V at pc 16: instance field op on static field",
    "Code.syms()V at pc 19: field descriptor mismatch for x",
    "Code.syms()V at pc 22: no field nope on Code",
    "Code.syms()V at pc 24: no static field nope on Code",
    "Code.syms()V at pc 26: static field descriptor mismatch for s",
    "Code.syms()V at pc 28: unresolved static method Code.missing()V",
    "Code.syms()V at pc 29: unresolved static method Ghost.missing(LGhost;)V",
    "Code.syms()V at pc 31: invokespecial must name a constructor: Code.st()V",
    "Code.syms()V at pc 33: invoke on unknown class Ghost",
    "Code.syms()V at pc 35: invokeinterface on non-interface Code",
    "Code.syms()V at pc 37: invokevirtual on interface IFace",
    "Code.syms()V at pc 39: no method missing(I)V visible on Code",
    "Code.syms()V: stack underflow at pc 29 (invokestatic)",
    "Cyc1: inheritance cycle",
    "Cyc2: inheritance cycle",
    "Dup: duplicate field x",
    "Dup.nothing: void field",
    "Dup: duplicate method m(I)V",
    "Dup.<init>: static constructor",
    "Dup.<clinit>: non-static <clinit>",
    "HierBad: superclass IFace is an interface",
    "HierBad: implements non-interface Abs",
    "HierBad: unknown interface Nowhere",
    "HierGhost: unknown superclass Ghost",
    "IBad.concrete: interface method must be abstract",
    "IBad.concrete: interface method must be public",
    "IBad.concrete: interface method cannot be static",
    "IBad.prot: interface method must be public",
    "IBad: interfaces cannot declare fields",
    "Members.g: field type names unknown class Ghost",
    "Members.ga: field type names unknown class Ghost",
    "Members.gaa: field type names unknown class Ghost",
    "Members.p: parameter names unknown class Ghost",
    "Members.pa: parameter names unknown class Ghost",
    "Members.pa: return type names unknown class Ghost",
    "Members.r: return type names unknown class Ghost",
    "Raw.empty()V: empty body",
    "Raw.far()V: branch target out of range at pc 0",
    "Raw.slot()V: slot out of range at pc 0",
    "Raw.handlers()V: handler range invalid",
    "Raw.handlers()V: handler range invalid",
    "Raw.handlers()V: inconsistent stack depth at pc 0",
    "Raw.join(Z)V: inconsistent stack depth at pc 2",
    "Raw.voids()V at pc 1: array of void",
};

TEST(VerifierGolden, EveryProblemKindInOrderAtOneAndTwoThreads) {
    const ClassPool pool = all_problem_kinds();
    EXPECT_EQ(verify_pool_collect(pool), kAllProblemKinds);
    support::ThreadPool workers(2);
    EXPECT_EQ(verify_pool_collect(pool, &workers), kAllProblemKinds);
}

/// Class `B` whose method `f ()V` runs `instrs` (max_locals 1) under
/// `handlers`, plus the special class `Thr` for handlers to name.
ClassPool pool_with_body(std::vector<Instruction> instrs, std::vector<Handler> handlers = {}) {
    ClassPool pool;
    ClassFile thr;
    thr.name = "Thr";
    thr.is_special = true;
    pool.add(std::move(thr));
    ClassFile cf;
    cf.name = "B";
    Method m;
    m.name = "f";
    m.sig = MethodSig({}, TypeDesc::void_());
    m.code.instrs = std::move(instrs);
    m.code.handlers = std::move(handlers);
    m.code.max_locals = 1;
    cf.methods.push_back(std::move(m));
    pool.add(std::move(cf));
    return pool;
}

TEST(Verifier, NegativeBranchAndHandlerTargetsAreReportedNotFollowed) {
    // A corrupt .rirb can carry any i32 target; the stack pass must not
    // index its depth table with it.
    const ClassPool pool = pool_with_body({ins::go(-5)}, {Handler{0, 1, -3, "Thr"}});
    const std::vector<std::string> expected = {
        "B.f()V: branch target out of range at pc 0",
        "B.f()V: handler range invalid",
    };
    EXPECT_EQ(verify_pool_collect(pool), expected);
    support::ThreadPool workers(2);
    EXPECT_EQ(verify_pool_collect(pool, &workers), expected);
}

TEST(Verifier, NegativeConditionalTargetEndsThatPath) {
    const ClassPool pool =
        pool_with_body({ins::const_bool(true), ins::if_true(-1), ins::ret()});
    EXPECT_EQ(verify_pool_collect(pool),
              std::vector<std::string>{"B.f()V: branch target out of range at pc 1"});
}

TEST(Verifier, LookupsOnACyclicHierarchyEnd) {
    // Field, static and abstract-method lookups walk the superclass chain;
    // on a cyclic chain (a corrupt .rirb can carry one) they must end with
    // the cycle reported instead of spinning.
    const ClassPool pool = pool_of(R"(
class Loop extends Loop {
  abstract method g ()V
  static method f ()V {
    const null
    getfield Loop.missing I
    pop
    getstatic Loop.missing I
    pop
    invokestatic Loop.missing ()V
    new Loop
    pop
    return
  }
}
)");
    const std::vector<std::string> expected = {
        "Loop: inheritance cycle",
        "Loop.f()V at pc 1: no field missing on Loop",
        "Loop.f()V at pc 3: no static field missing on Loop",
        "Loop.f()V at pc 5: unresolved static method Loop.missing()V",
        "Loop.f()V at pc 6: new of abstract class Loop",
    };
    EXPECT_EQ(verify_pool_collect(pool), expected);
    EXPECT_EQ(pool.resolve_virtual(pool.find("Loop"), "g", "()V"), nullptr);
}

TEST(Verifier, MalformedDescriptorsThrowTheParsersError) {
    // Invoke arity and array element types are read without building a
    // MethodSig/TypeDesc; malformed text still surfaces parse()'s error.
    auto invoke = [](std::string desc) {
        Instruction i;
        i.op = Op::InvokeStatic;
        i.owner = "B";
        i.member = "g";
        i.desc = std::move(desc);
        return i;
    };
    auto new_array = [](std::string desc) {
        Instruction i;
        i.op = Op::NewArray;
        i.desc = std::move(desc);
        return i;
    };
    for (const char* desc : {"(Q)V", "(I", "I)V", "(V)V", "()", "()VV", "(LB)V", "([V)V"}) {
        const ClassPool pool = pool_with_body({invoke(desc), ins::ret()});
        std::string expected;
        try {
            MethodSig::parse(desc);
        } catch (const ParseError& e) {
            expected = e.what();
        }
        ASSERT_FALSE(expected.empty()) << desc;
        for (std::size_t threads : {1u, 2u}) {
            support::ThreadPool workers(threads);
            try {
                verify_pool_collect(pool, &workers);
                ADD_FAILURE() << desc << " verified at " << threads << " threads";
            } catch (const ParseError& e) {
                EXPECT_EQ(std::string(e.what()), expected) << desc;
            }
        }
    }
    for (const char* desc : {"", "Q", "[V", "LB", "LB;x", "[[V"}) {
        const ClassPool pool = pool_with_body({ins::const_int(1), new_array(desc), ins::pop(),
                                               ins::ret()});
        EXPECT_THROW(verify_pool_collect(pool), ParseError) << desc;
    }
}

}  // namespace
}  // namespace rafda::model
