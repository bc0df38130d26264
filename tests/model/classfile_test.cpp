#include "model/classfile.hpp"

#include <gtest/gtest.h>

#include "model/assembler.hpp"

namespace rafda::model {
namespace {

ClassFile parse_one(const char* src) {
    std::vector<ClassFile> classes = assemble(src);
    return std::move(classes.at(0));
}

TEST(ClassFile, FindFieldAndMethod) {
    ClassFile cf = parse_one(R"(
class A {
  field x I
  static field y J
  method m (I)I {
    load 1
    returnvalue
  }
  method m (J)J {
    load 1
    returnvalue
  }
}
)");
    EXPECT_NE(cf.find_field("x"), nullptr);
    EXPECT_NE(cf.find_field("y"), nullptr);
    EXPECT_EQ(cf.find_field("z"), nullptr);
    // Overloads are distinguished by descriptor.
    EXPECT_NE(cf.find_method("m", "(I)I"), nullptr);
    EXPECT_NE(cf.find_method("m", "(J)J"), nullptr);
    EXPECT_EQ(cf.find_method("m", "(D)D"), nullptr);
    EXPECT_EQ(cf.methods_named("m").size(), 2u);
}

TEST(ClassFile, ClinitDetection) {
    ClassFile with = parse_one(R"(
class A {
  static field x I
  clinit {
    const 1
    putstatic A.x I
    return
  }
}
)");
    EXPECT_NE(with.find_method("<clinit>", "()V"), nullptr);
    ClassFile without = parse_one("class B {\n}\n");
    EXPECT_EQ(without.find_method("<clinit>", "()V"), nullptr);
}

TEST(ClassFile, ReferencedClassesCoverAllEdges) {
    std::vector<ClassFile> classes = assemble(R"(
special class Err {
}
interface Api {
  method f ()V
}
class Dep {
}
class FieldDep {
}
class SigDep {
}
class ArrDep {
}
class Subject extends Dep implements Api {
  field fd LFieldDep;
  method f ()V {
    return
  }
  method g (LSigDep;)[LArrDep; {
    locals 1
  S:
    const 1
    newarray LArrDep;
    store 2
  E:
    load 2
    returnvalue
  H:
    pop
    load 2
    returnvalue
    catch Err from S to E using H
  }
}
)");
    const ClassFile& subject = classes.back();
    std::vector<std::string> refs = subject.referenced_classes();
    for (const char* expected : {"Dep", "Api", "FieldDep", "SigDep", "Err"}) {
        EXPECT_TRUE(std::find(refs.begin(), refs.end(), expected) != refs.end())
            << expected;
    }
    // Self-references are excluded.
    EXPECT_TRUE(std::find(refs.begin(), refs.end(), "Subject") == refs.end());
}

TEST(ClassFile, ParamSlots) {
    ClassFile cf = parse_one(R"(
class A {
  method inst (IJ)V {
    return
  }
  static method stat (IJ)V {
    return
  }
}
)");
    EXPECT_EQ(cf.methods[0].param_slots(), 3);  // this + 2
    EXPECT_EQ(cf.methods[1].param_slots(), 2);
}

TEST(ClassFile, NativeDetection) {
    ClassFile cf = parse_one(R"(
class A {
  native method n ()V
  method m ()V {
    return
  }
}
)");
    EXPECT_TRUE(cf.has_native_method());
    ClassFile clean = parse_one("class B {\n method m ()V {\n return\n }\n}\n");
    EXPECT_FALSE(clean.has_native_method());
}

TEST(ClassFile, ReferencedClassesCachedMatchesUncached) {
    ClassPool pool;
    assemble_into(pool, R"(
class Dep {
}
class Other {
}
class Subject extends Dep {
  field o LOther;
}
)");
    const ClassFile& subject = *pool.find("Subject");
    const std::vector<std::string>& cached =
        subject.referenced_classes_cached(pool.generation());
    EXPECT_EQ(cached, subject.referenced_classes());
    // Same generation: the memoized vector itself is returned.
    const std::vector<std::string>& again =
        subject.referenced_classes_cached(pool.generation());
    EXPECT_EQ(&again, &cached);
}

TEST(ClassFile, ReferencedClassesCacheInvalidatesOnGenerationBump) {
    ClassPool pool;
    assemble_into(pool, R"(
class Dep {
}
class NewSuper {
}
class Subject extends Dep {
}
)");
    const ClassFile* subject = pool.find("Subject");
    std::vector<std::string> before =
        subject->referenced_classes_cached(pool.generation());
    EXPECT_EQ(before, (std::vector<std::string>{"Dep"}));

    // get_mutable bumps the pool generation; the next cached call with the
    // new stamp must recompute and see the rewritten hierarchy.
    pool.get_mutable("Subject").super_name = "NewSuper";
    std::vector<std::string> after =
        subject->referenced_classes_cached(pool.generation());
    EXPECT_EQ(after, (std::vector<std::string>{"NewSuper"}));
}

TEST(ClassFile, ReferencedClassesCacheResetsOnCopyAndMove) {
    ClassPool pool;
    assemble_into(pool, R"(
class Dep {
}
class Subject extends Dep {
}
)");
    const ClassFile& subject = *pool.find("Subject");
    (void)subject.referenced_classes_cached(pool.generation());  // warm cache

    // A copy (or move) dropped into another pool must not reuse the old
    // stamp: the other pool's counter could coincide while its contents
    // differ.  Passing the warmed stamp to the copy must still recompute —
    // observable because the copy's hierarchy is edited pre-call.
    ClassFile copy = subject;
    copy.super_name = "Elsewhere";
    std::vector<std::string> refs = copy.referenced_classes_cached(pool.generation());
    EXPECT_EQ(refs, (std::vector<std::string>{"Elsewhere"}));

    ClassFile moved = std::move(copy);
    moved.super_name = "Dep";
    EXPECT_EQ(moved.referenced_classes_cached(pool.generation()),
              (std::vector<std::string>{"Dep"}));
}

TEST(ClassFile, ReferencedClassesCachedNeverTrustsGenerationZero) {
    // Generation 0 marks "never filled"; a caller passing 0 (no pool) must
    // always get a fresh computation, not a stale hit.
    ClassFile cf = parse_one("class A extends B {\n}\n");
    EXPECT_EQ(cf.referenced_classes_cached(0), (std::vector<std::string>{"B"}));
    cf.super_name = "C";
    EXPECT_EQ(cf.referenced_classes_cached(0), (std::vector<std::string>{"C"}));
}

}  // namespace
}  // namespace rafda::model
