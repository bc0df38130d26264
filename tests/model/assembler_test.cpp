#include "model/assembler.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "model/printer.hpp"
#include "support/error.hpp"

namespace rafda::model {
namespace {

// The paper's Figure 2 sample class, in RIR form (Z.q and Y.n elided to
// keep the snippet focused on structure).
constexpr const char* kSampleX = R"(
class X {
  field private y LY;
  static field final z LZ;
  ctor (LY;)V {
    load 0
    load 1
    putfield X.y LY;
    return
  }
  protected method m (J)I {
    load 0
    getfield X.y LY;
    load 1
    invokevirtual Y.n (J)I
    returnvalue
  }
  static method p (I)I {
    getstatic X.z LZ;
    load 0
    invokevirtual Z.q (I)I
    returnvalue
  }
  clinit {
    new Z
    dup
    getstatic Y.K LY;
    invokespecial Z.<init> (LY;)V
    putstatic X.z LZ;
    return
  }
}
)";

TEST(Assembler, ParsesSampleClassStructure) {
    std::vector<ClassFile> classes = assemble(kSampleX);
    ASSERT_EQ(classes.size(), 1u);
    const ClassFile& x = classes[0];
    EXPECT_EQ(x.name, "X");
    EXPECT_FALSE(x.is_interface);
    EXPECT_FALSE(x.is_special);
    ASSERT_EQ(x.fields.size(), 2u);
    EXPECT_EQ(x.fields[0].name, "y");
    EXPECT_EQ(x.fields[0].vis, Visibility::Private);
    EXPECT_FALSE(x.fields[0].is_static);
    EXPECT_EQ(x.fields[1].name, "z");
    EXPECT_TRUE(x.fields[1].is_static);
    EXPECT_TRUE(x.fields[1].is_final);

    ASSERT_EQ(x.methods.size(), 4u);
    EXPECT_TRUE(x.methods[0].is_ctor());
    EXPECT_EQ(x.methods[1].name, "m");
    EXPECT_EQ(x.methods[1].vis, Visibility::Protected);
    EXPECT_EQ(x.methods[1].descriptor(), "(J)I");
    EXPECT_TRUE(x.methods[2].is_static);
    EXPECT_TRUE(x.methods[3].is_clinit());
    EXPECT_TRUE(x.methods[3].is_static);
}

TEST(Assembler, ParsesInstructionOperands) {
    std::vector<ClassFile> classes = assemble(kSampleX);
    const Method& m = classes[0].methods[1];
    ASSERT_EQ(m.code.instrs.size(), 5u);
    EXPECT_EQ(m.code.instrs[0].op, Op::Load);
    EXPECT_EQ(m.code.instrs[0].a, 0);
    EXPECT_EQ(m.code.instrs[1].op, Op::GetField);
    EXPECT_EQ(m.code.instrs[1].owner, "X");
    EXPECT_EQ(m.code.instrs[1].member, "y");
    EXPECT_EQ(m.code.instrs[1].desc, "LY;");
    EXPECT_EQ(m.code.instrs[3].op, Op::InvokeVirtual);
    EXPECT_EQ(m.code.instrs[3].owner, "Y");
    EXPECT_EQ(m.code.instrs[3].member, "n");
    EXPECT_EQ(m.code.instrs[3].desc, "(J)I");
    EXPECT_EQ(m.code.max_locals, 2);  // this + long param
}

TEST(Assembler, LabelsAndBranches) {
    const char* src = R"(
class Loop {
  static method count (I)I {
    locals 2
    const 0
    store 1
  Top:
    load 1
    load 0
    cmplt
    iffalse Done
    load 1
    const 1
    add
    store 1
    goto Top
  Done:
    load 1
    returnvalue
  }
}
)";
    std::vector<ClassFile> classes = assemble(src);
    const Method& m = classes[0].methods[0];
    // iffalse targets the pc after the loop body; goto targets pc 2.
    const Instruction* iffalse = nullptr;
    const Instruction* gototop = nullptr;
    for (const Instruction& i : m.code.instrs) {
        if (i.op == Op::IfFalse) iffalse = &i;
        if (i.op == Op::Goto) gototop = &i;
    }
    ASSERT_NE(iffalse, nullptr);
    ASSERT_NE(gototop, nullptr);
    EXPECT_EQ(gototop->a, 2);   // Top: first instruction of the loop test
    EXPECT_EQ(iffalse->a, 11);  // Done: first instruction after the loop
}

TEST(Assembler, ConstVariants) {
    const char* src = R"(
class K {
  static method all ()V {
    const 5
    pop
    const 5L
    pop
    const 1.5
    pop
    const true
    pop
    const false
    pop
    const null
    pop
    const "hi there"
    pop
    const "escaped \" quote"
    pop
    return
  }
}
)";
    std::vector<ClassFile> classes = assemble(src);
    const Method& m = classes[0].methods[0];
    EXPECT_EQ(std::get<std::int32_t>(m.code.instrs[0].k), 5);
    EXPECT_EQ(std::get<std::int64_t>(m.code.instrs[2].k), 5);
    EXPECT_DOUBLE_EQ(std::get<double>(m.code.instrs[4].k), 1.5);
    EXPECT_EQ(std::get<bool>(m.code.instrs[6].k), true);
    EXPECT_EQ(std::get<bool>(m.code.instrs[8].k), false);
    EXPECT_TRUE(std::holds_alternative<Null>(m.code.instrs[10].k));
    EXPECT_EQ(std::get<std::string>(m.code.instrs[12].k), "hi there");
    EXPECT_EQ(std::get<std::string>(m.code.instrs[14].k), "escaped \" quote");
}

TEST(Assembler, InterfaceSyntax) {
    const char* src = R"(
interface Shape {
  method area ()D
  method name ()S
}
interface Solid extends Shape {
  method volume ()D
}
class Cube extends Base implements Shape, Solid {
  method area ()D {
    const 6.0
    returnvalue
  }
  method name ()S {
    const "cube"
    returnvalue
  }
  method volume ()D {
    const 1.0
    returnvalue
  }
}
class Base {
}
)";
    std::vector<ClassFile> classes = assemble(src);
    ASSERT_EQ(classes.size(), 4u);
    EXPECT_TRUE(classes[0].is_interface);
    EXPECT_TRUE(classes[0].methods[0].is_abstract);
    EXPECT_EQ(classes[1].interfaces, (std::vector<std::string>{"Shape"}));
    EXPECT_EQ(classes[2].super_name, "Base");
    EXPECT_EQ(classes[2].interfaces, (std::vector<std::string>{"Shape", "Solid"}));
}

TEST(Assembler, NativeAndAbstractAndSpecial) {
    const char* src = R"(
special class Throwish {
  field msg S
}
class NativeHolder {
  native static method sysCall (I)I
  native method instCall ()V
  abstract method todo ()V
}
)";
    std::vector<ClassFile> classes = assemble(src);
    EXPECT_TRUE(classes[0].is_special);
    EXPECT_TRUE(classes[1].methods[0].is_native);
    EXPECT_TRUE(classes[1].methods[0].is_static);
    EXPECT_TRUE(classes[1].methods[1].is_native);
    EXPECT_FALSE(classes[1].methods[1].is_static);
    EXPECT_TRUE(classes[1].methods[2].is_abstract);
    EXPECT_TRUE(classes[1].has_native_method());
}

TEST(Assembler, CatchDirective) {
    const char* src = R"(
class T {
  static method f ()I {
  TryStart:
    const 1
    pop
  TryEnd:
    const 0
    returnvalue
  Handler:
    pop
    const -1
    returnvalue
    catch Throwable from TryStart to TryEnd using Handler
  }
}
class Throwable {
}
)";
    std::vector<ClassFile> classes = assemble(src);
    const Method& m = classes[0].methods[0];
    ASSERT_EQ(m.code.handlers.size(), 1u);
    EXPECT_EQ(m.code.handlers[0].start, 0);
    EXPECT_EQ(m.code.handlers[0].end, 2);
    EXPECT_EQ(m.code.handlers[0].target, 4);
    EXPECT_EQ(m.code.handlers[0].class_name, "Throwable");
}

TEST(Assembler, ErrorsCarryLineNumbers) {
    try {
        assemble("class X {\n  bogus stuff\n}\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(Assembler, RejectsCommonMistakes) {
    EXPECT_THROW(assemble("class X\n"), ParseError);             // missing {
    EXPECT_THROW(assemble("class X {\n"), ParseError);           // unterminated
    EXPECT_THROW(assemble("class X {\n field v V\n}"), ParseError);  // void field
    EXPECT_THROW(assemble("class X {\n static ctor ()V {\n return\n }\n}"), ParseError);
    EXPECT_THROW(assemble("class X {\n method m (I)I\n}"), ParseError);  // no body
    EXPECT_THROW(assemble("class X {\n method m (I)I {\n goto Nowhere\n }\n}"), ParseError);
}

TEST(Assembler, RejectsMalformedNumbers) {
    // Every number is one whole token within its type's range; a bad one
    // is a ParseError on its own line, never a silently different value.
    const auto method_with = [](const std::string& line) {
        return "class X {\n  static method m ()V {\n    locals 2\n    " + line +
               "\n    return\n  }\n}\n";
    };
    for (const char* line :
         {"const 12x", "const abc", "const -", "const 1.5.5", "const 99999999999",
          "const 99999999999999999999L", "const 1e999", "const L", "load 1x", "store 2y",
          "load 99999999999", "locals 3x"}) {
        try {
            assemble(method_with(line));
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const ParseError& e) {
            EXPECT_EQ(e.line(), 4) << line;
        }
    }
    // The extremes of each type still assemble exactly.
    const std::vector<ClassFile> ok = assemble(method_with(
        "const -2147483648\n    const 9223372036854775807L\n    const -1.5e3"));
    const std::vector<Instruction>& code = ok[0].methods[0].code.instrs;
    EXPECT_EQ(std::get<std::int32_t>(code[0].k), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(std::get<std::int64_t>(code[1].k), std::numeric_limits<std::int64_t>::max());
    EXPECT_DOUBLE_EQ(std::get<double>(code[2].k), -1500.0);
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
    const char* src = R"(
; leading comment
class C {   ; trailing comment on header

  ; comment inside class
  static method f ()I {
    const 3 ; trailing comment on instruction
    returnvalue
  }
}
)";
    std::vector<ClassFile> classes = assemble(src);
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_EQ(std::get<std::int32_t>(classes[0].methods[0].code.instrs[0].k), 3);
}

TEST(Assembler, PrintRoundTrip) {
    std::vector<ClassFile> original = assemble(kSampleX);
    std::string printed = print_class(original[0]);
    std::vector<ClassFile> reparsed = assemble(printed);
    ASSERT_EQ(reparsed.size(), 1u);
    const ClassFile& a = original[0];
    const ClassFile& b = reparsed[0];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.fields.size(), b.fields.size());
    ASSERT_EQ(a.methods.size(), b.methods.size());
    for (std::size_t i = 0; i < a.methods.size(); ++i) {
        EXPECT_EQ(a.methods[i].name, b.methods[i].name);
        EXPECT_EQ(a.methods[i].descriptor(), b.methods[i].descriptor());
        EXPECT_EQ(a.methods[i].code.instrs, b.methods[i].code.instrs)
            << "method " << a.methods[i].name;
        EXPECT_EQ(a.methods[i].code.max_locals, b.methods[i].code.max_locals);
    }
}

TEST(Assembler, PrintRoundTripWithBranchesAndHandlers) {
    const char* src = R"(
class R {
  static method f (I)I {
  A:
    load 0
    const 0
    cmpgt
    iffalse B
    load 0
    returnvalue
  B:
    const 0
    returnvalue
  H:
    pop
    const -1
    returnvalue
    catch E from A to B using H
  }
}
class E {
}
)";
    std::vector<ClassFile> original = assemble(src);
    std::vector<ClassFile> reparsed = assemble(print_class(original[0]) + print_class(original[1]));
    EXPECT_EQ(original[0].methods[0].code.instrs, reparsed[0].methods[0].code.instrs);
    ASSERT_EQ(reparsed[0].methods[0].code.handlers.size(), 1u);
    EXPECT_EQ(original[0].methods[0].code.handlers[0].target,
              reparsed[0].methods[0].code.handlers[0].target);
}

}  // namespace
}  // namespace rafda::model
