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
class Callee {
}
class ArgDep {
}
class RetDep {
}
class Holder {
}
class HeldDep {
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
  static method h ()V {
    const null
    invokestatic Callee.make (LArgDep;)LRetDep;
    pop
    const null
    getfield Holder.held LHeldDep;
    pop
    return
  }
}
)");
    const ClassFile& subject = classes.back();
    std::vector<std::string> refs = subject.referenced_classes();
    // Operands count too: an invoke's owner and descriptor types, a field
    // access's owner and type.
    for (const char* expected : {"Dep", "Api", "FieldDep", "SigDep", "Err", "Callee",
                                 "ArgDep", "RetDep", "Holder", "HeldDep"}) {
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

}  // namespace
}  // namespace rafda::model
