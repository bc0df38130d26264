#include "model/instr.hpp"

#include <array>
#include <sstream>
#include <utility>

#include "support/error.hpp"

namespace rafda::model {

namespace {

constexpr std::array<std::pair<Op, std::string_view>, 43> kOpNames{{
    {Op::Nop, "nop"},
    {Op::Const, "const"},
    {Op::Load, "load"},
    {Op::Store, "store"},
    {Op::Dup, "dup"},
    {Op::Pop, "pop"},
    {Op::Swap, "swap"},
    {Op::Add, "add"},
    {Op::Sub, "sub"},
    {Op::Mul, "mul"},
    {Op::Div, "div"},
    {Op::Rem, "rem"},
    {Op::Neg, "neg"},
    {Op::CmpEq, "cmpeq"},
    {Op::CmpNe, "cmpne"},
    {Op::CmpLt, "cmplt"},
    {Op::CmpLe, "cmple"},
    {Op::CmpGt, "cmpgt"},
    {Op::CmpGe, "cmpge"},
    {Op::And, "and"},
    {Op::Or, "or"},
    {Op::Not, "not"},
    {Op::Conv, "conv"},
    {Op::Concat, "concat"},
    {Op::Goto, "goto"},
    {Op::IfTrue, "iftrue"},
    {Op::IfFalse, "iffalse"},
    {Op::New, "new"},
    {Op::GetField, "getfield"},
    {Op::PutField, "putfield"},
    {Op::GetStatic, "getstatic"},
    {Op::PutStatic, "putstatic"},
    {Op::InvokeVirtual, "invokevirtual"},
    {Op::InvokeInterface, "invokeinterface"},
    {Op::InvokeStatic, "invokestatic"},
    {Op::InvokeSpecial, "invokespecial"},
    {Op::Return, "return"},
    {Op::ReturnValue, "returnvalue"},
    {Op::Throw, "throw"},
    {Op::NewArray, "newarray"},
    {Op::ALoad, "aload"},
    {Op::AStore, "astore"},
    {Op::ALen, "alen"},
}};

}  // namespace

std::string_view op_name(Op op) {
    for (const auto& [o, n] : kOpNames)
        if (o == op) return n;
    return "?";
}

Op op_from_name(std::string_view name, int line) {
    for (const auto& [o, n] : kOpNames)
        if (n == name) return o;
    throw ParseError("unknown instruction mnemonic: " + std::string(name), line);
}

std::string const_to_string(const ConstValue& k) {
    std::ostringstream os;
    if (std::holds_alternative<Null>(k)) {
        os << "null";
    } else if (const bool* b = std::get_if<bool>(&k)) {
        os << (*b ? "true" : "false");
    } else if (const std::int32_t* i = std::get_if<std::int32_t>(&k)) {
        os << *i;
    } else if (const std::int64_t* j = std::get_if<std::int64_t>(&k)) {
        os << *j << "L";
    } else if (const double* d = std::get_if<double>(&k)) {
        os << *d;
        if (os.str().find('.') == std::string::npos &&
            os.str().find('e') == std::string::npos)
            os << ".0";
    } else {
        const std::string& s = std::get<std::string>(k);
        os << '"';
        for (char c : s) {
            if (c == '"' || c == '\\') os << '\\';
            if (c == '\n') {
                os << "\\n";
                continue;
            }
            os << c;
        }
        os << '"';
    }
    return os.str();
}

bool is_invoke(Op op) {
    return op == Op::InvokeVirtual || op == Op::InvokeInterface || op == Op::InvokeStatic ||
           op == Op::InvokeSpecial;
}

bool is_branch(Op op) { return op == Op::Goto || op == Op::IfTrue || op == Op::IfFalse; }

namespace ins {

namespace {
Instruction simple(Op op) {
    Instruction i;
    i.op = op;
    return i;
}
Instruction member_op(Op op, std::string owner, std::string member, std::string desc) {
    Instruction i;
    i.op = op;
    i.owner = std::move(owner);
    i.member = std::move(member);
    i.desc = std::move(desc);
    return i;
}
}  // namespace

Instruction nop() { return simple(Op::Nop); }

Instruction const_null() { return simple(Op::Const); }

Instruction const_bool(bool v) {
    Instruction i = simple(Op::Const);
    i.k = v;
    return i;
}

Instruction const_int(std::int32_t v) {
    Instruction i = simple(Op::Const);
    i.k = v;
    return i;
}

Instruction const_long(std::int64_t v) {
    Instruction i = simple(Op::Const);
    i.k = v;
    return i;
}

Instruction const_str(std::string v) {
    Instruction i = simple(Op::Const);
    i.k = std::move(v);
    return i;
}

Instruction load(int slot) {
    Instruction i = simple(Op::Load);
    i.a = slot;
    return i;
}

Instruction store(int slot) {
    Instruction i = simple(Op::Store);
    i.a = slot;
    return i;
}

Instruction dup() { return simple(Op::Dup); }
Instruction pop() { return simple(Op::Pop); }
Instruction swap() { return simple(Op::Swap); }
Instruction add() { return simple(Op::Add); }
Instruction mul() { return simple(Op::Mul); }
Instruction rem() { return simple(Op::Rem); }

Instruction cmp(Op cmp_op) { return simple(cmp_op); }

Instruction conv(Kind target) {
    Instruction i = simple(Op::Conv);
    i.a = static_cast<int>(target);
    return i;
}

Instruction concat() { return simple(Op::Concat); }

Instruction go(int target) {
    Instruction i = simple(Op::Goto);
    i.a = target;
    return i;
}

Instruction if_true(int target) {
    Instruction i = simple(Op::IfTrue);
    i.a = target;
    return i;
}

Instruction new_(std::string owner) {
    Instruction i = simple(Op::New);
    i.owner = std::move(owner);
    return i;
}

Instruction get_field(std::string owner, std::string member, const TypeDesc& type) {
    return member_op(Op::GetField, std::move(owner), std::move(member), type.descriptor());
}

Instruction put_field(std::string owner, std::string member, const TypeDesc& type) {
    return member_op(Op::PutField, std::move(owner), std::move(member), type.descriptor());
}

Instruction get_static(std::string owner, std::string member, const TypeDesc& type) {
    return member_op(Op::GetStatic, std::move(owner), std::move(member), type.descriptor());
}

Instruction put_static(std::string owner, std::string member, const TypeDesc& type) {
    return member_op(Op::PutStatic, std::move(owner), std::move(member), type.descriptor());
}

Instruction invoke_virtual(std::string owner, std::string member, const MethodSig& sig) {
    return member_op(Op::InvokeVirtual, std::move(owner), std::move(member), sig.descriptor());
}

Instruction invoke_interface(std::string owner, std::string member, const MethodSig& sig) {
    return member_op(Op::InvokeInterface, std::move(owner), std::move(member), sig.descriptor());
}

Instruction invoke_static(std::string owner, std::string member, const MethodSig& sig) {
    return member_op(Op::InvokeStatic, std::move(owner), std::move(member), sig.descriptor());
}

Instruction invoke_special(std::string owner, std::string member, const MethodSig& sig) {
    return member_op(Op::InvokeSpecial, std::move(owner), std::move(member), sig.descriptor());
}

Instruction ret() { return simple(Op::Return); }
Instruction ret_value() { return simple(Op::ReturnValue); }

Instruction new_array(const TypeDesc& elem) {
    Instruction i = simple(Op::NewArray);
    i.desc = elem.descriptor();
    return i;
}

Instruction aload() { return simple(Op::ALoad); }
Instruction astore() { return simple(Op::AStore); }

}  // namespace ins

}  // namespace rafda::model
