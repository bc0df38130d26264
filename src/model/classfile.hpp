// Class files of the RIR class model: fields, methods, code.
//
// A ClassFile is the unit the paper's transformations consume and produce.
// Flags mirror the properties Section 2.4 of the paper cares about:
//   - `is_native` on methods (native methods block transformation),
//   - `is_special` on classes (JVM-special classes such as Throwable
//     subtypes are never transformed),
//   - `is_interface` (user-defined interfaces are handled like classes with
//     no state).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/instr.hpp"
#include "model/type.hpp"

namespace rafda::model {

enum class Visibility : std::uint8_t { Public, Protected, Private };

std::string_view visibility_name(Visibility v);

/// An instance or static field.
struct Field {
    std::string name;
    TypeDesc type;
    Visibility vis = Visibility::Public;
    bool is_static = false;
    bool is_final = false;
};

/// A try/catch region: instructions in [start, end) are covered; control
/// transfers to `target` with the thrown object on the stack when an object
/// of class `class_name` (or a subtype) is thrown.
struct Handler {
    int start = 0;
    int end = 0;
    int target = 0;
    std::string class_name;
};

/// A method body.
struct Code {
    int max_locals = 0;
    std::vector<Instruction> instrs;
    std::vector<Handler> handlers;

    bool empty() const noexcept { return instrs.empty(); }
};

/// A rewrite of `in` as a Code: `instrs` replace `in.instrs`, and every
/// branch target and handler bound moves by `new_pc`, where `new_pc[pc]`
/// is the position old instruction `pc` now starts at and
/// `new_pc[in.instrs.size()]` is the new end.  `in` must be verified, so
/// every old target indexes `new_pc`.
Code remapped(const Code& in, std::vector<Instruction> instrs, const std::vector<int>& new_pc,
              int max_locals);

/// A method.  Constructors are named "<init>", the static initialiser
/// "<clinit>"; both conventions follow the JVM so transformation rules read
/// like the paper.
struct Method {
    std::string name;
    MethodSig sig;
    Visibility vis = Visibility::Public;
    bool is_static = false;
    bool is_native = false;
    bool is_abstract = false;
    Code code;

    std::string descriptor() const { return sig.descriptor(); }
    bool is_ctor() const { return name == "<init>"; }
    bool is_clinit() const { return name == "<clinit>"; }
    /// Locals occupied by the receiver (if any) plus parameters.
    int param_slots() const {
        return static_cast<int>(sig.params().size()) + (is_static ? 0 : 1);
    }
};

/// One class or interface.
struct ClassFile {
    std::string name;
    /// Superclass name; empty for root classes (and all interfaces).
    std::string super_name;
    std::vector<std::string> interfaces;
    bool is_interface = false;
    /// JVM-special semantics (e.g. throwable); never transformed (Sec 2.4).
    bool is_special = false;

    std::vector<Field> fields;
    std::vector<Method> methods;

    /// First field with `name`, declared in *this* class only.
    const Field* find_field(std::string_view field_name) const;
    Field* find_field(std::string_view field_name);

    /// Method with `name` and descriptor, declared in *this* class only.
    const Method* find_method(std::string_view method_name, std::string_view desc) const;
    Method* find_method(std::string_view method_name, std::string_view desc);

    /// All methods named `name` declared in this class.
    std::vector<const Method*> methods_named(std::string_view method_name) const;

    /// True if any declared method is native.
    bool has_native_method() const;

    /// Class names this class references: super, interfaces, field types,
    /// method signatures, and symbolic operands inside code.  Sorted, unique.
    std::vector<std::string> referenced_classes() const;
};

}  // namespace rafda::model
