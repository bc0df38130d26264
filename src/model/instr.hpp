// Instruction set of the RIR stack machine.
//
// The set is deliberately Java-bytecode-shaped: field access and method
// invocation are *symbolic* (owner class + member name + descriptor), which
// is exactly the property the paper's transformations rely on — a rewrite
// pass can redirect `getfield X.y` to `invokeinterface X_O_Int.get_y`
// without understanding the surrounding code.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "model/type.hpp"

namespace rafda::model {

enum class Op : std::uint8_t {
    Nop,
    Const,  // push constant k
    Load,   // push local slot a
    Store,  // pop into local slot a
    Dup,
    Pop,
    Swap,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Neg,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    And,
    Or,
    Not,
    Conv,    // numeric conversion; a = target Kind
    Concat,  // pop two values, push string concatenation
    Goto,    // a = target pc
    IfTrue,  // pop bool; branch to a if true
    IfFalse,
    New,        // owner = class name; push fresh instance
    GetField,   // owner.member : desc — pop receiver, push value
    PutField,   // pop value, pop receiver
    GetStatic,  // push static value
    PutStatic,  // pop value
    InvokeVirtual,
    InvokeInterface,
    InvokeStatic,
    InvokeSpecial,  // constructor invocation
    Return,
    ReturnValue,
    Throw,
    NewArray,  // desc = element type; pops length, pushes array ref
    ALoad,     // pops index, array ref; pushes element
    AStore,    // pops value, index, array ref
    ALen,      // pops array ref; pushes length (int)
};

std::string_view op_name(Op op);
/// Parses a mnemonic; throws ParseError (with `line`) if unknown.
Op op_from_name(std::string_view name, int line);

/// Marker for the null constant.
struct Null {
    bool operator==(const Null&) const = default;
};

/// A constant operand: null, bool, int, long, double or string.
using ConstValue =
    std::variant<Null, bool, std::int32_t, std::int64_t, double, std::string>;

/// Renders a constant in RIR assembly syntax (e.g. `5`, `5L`, `"hi"`).
std::string const_to_string(const ConstValue& k);

/// One instruction.  Unused operand fields stay empty/zero.
struct Instruction {
    Op op = Op::Nop;
    ConstValue k = Null{};  // Const
    int a = 0;              // Load/Store slot, branch target pc, Conv target kind
    std::string owner;      // New / field ops / invoke ops
    std::string member;     // field or method name
    std::string desc;       // field type descriptor or method descriptor

    bool operator==(const Instruction& other) const = default;
};

/// True for the four invoke ops.
bool is_invoke(Op op);
/// True for Goto/IfTrue/IfFalse.
bool is_branch(Op op);

// Convenience constructors, used heavily by code generators.
namespace ins {

Instruction nop();
Instruction const_null();
Instruction const_bool(bool v);
Instruction const_int(std::int32_t v);
Instruction const_long(std::int64_t v);
Instruction const_str(std::string v);
Instruction load(int slot);
Instruction store(int slot);
Instruction dup();
Instruction pop();
Instruction swap();
Instruction add();
Instruction mul();
Instruction rem();
Instruction cmp(Op cmp_op);
Instruction conv(Kind target);
Instruction concat();
Instruction go(int target);
Instruction if_true(int target);
Instruction new_(std::string owner);
Instruction get_field(std::string owner, std::string member, const TypeDesc& type);
Instruction put_field(std::string owner, std::string member, const TypeDesc& type);
Instruction get_static(std::string owner, std::string member, const TypeDesc& type);
Instruction put_static(std::string owner, std::string member, const TypeDesc& type);
Instruction invoke_virtual(std::string owner, std::string member, const MethodSig& sig);
Instruction invoke_interface(std::string owner, std::string member, const MethodSig& sig);
Instruction invoke_static(std::string owner, std::string member, const MethodSig& sig);
Instruction invoke_special(std::string owner, std::string member, const MethodSig& sig);
Instruction ret();
Instruction ret_value();
Instruction new_array(const TypeDesc& elem);
Instruction aload();
Instruction astore();

}  // namespace ins

}  // namespace rafda::model
