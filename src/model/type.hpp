// Type descriptors for the RAFDA class-model IR ("RIR").
//
// The IR plays the role Java bytecode plays in the paper: a typed,
// stack-machine program representation that the transformation pipeline
// rewrites.  Descriptors use a JVM-flavoured syntax:
//
//   V void   Z bool   I int (32-bit)   J long (64-bit)   D double
//   S string (built-in value type)     Lname; reference to class `name`
//
// Method descriptors look like `(JLY;)I` — parameters in parentheses
// followed by the return type.  Unlike the JVM we treat strings as a
// primitive value type; this keeps the transformability analysis focused on
// user classes, mirroring how the paper leaves `java.lang.String` et al. to
// the "special classes" bucket.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace rafda::model {

enum class Kind : std::uint8_t { Void, Bool, Int, Long, Double, Str, Ref, Arr };

/// The innermost element of a (possibly nested) array type, or the type
/// itself when it is no array.  The view points into the descriptor or
/// TypeDesc it was read from.
struct BaseType {
    Kind kind = Kind::Void;       // never Kind::Arr
    std::string_view class_name;  // the referenced class when kind is Ref
};

/// A single value type: a primitive kind or a reference to a named class.
class TypeDesc {
public:
    TypeDesc() : kind_(Kind::Void) {}
    explicit TypeDesc(Kind kind);
    /// Reference to `class_name`.
    static TypeDesc ref(std::string class_name);
    /// Array with elements of type `elem` (descriptor "[" + elem).
    /// Nested arrays are allowed ("[[I").
    static TypeDesc array(const TypeDesc& elem);

    static const TypeDesc& void_();
    static const TypeDesc& bool_();
    static const TypeDesc& int_();
    static const TypeDesc& long_();
    static const TypeDesc& double_();
    static const TypeDesc& str();

    Kind kind() const noexcept { return kind_; }
    bool is_ref() const noexcept { return kind_ == Kind::Ref; }
    bool is_array() const noexcept { return kind_ == Kind::Arr; }
    bool is_void() const noexcept { return kind_ == Kind::Void; }
    bool is_numeric() const noexcept {
        return kind_ == Kind::Int || kind_ == Kind::Long || kind_ == Kind::Double;
    }
    /// Class name; only valid for references.
    const std::string& class_name() const;

    /// Element type; only valid for arrays.
    TypeDesc element() const;

    /// Serialises to descriptor syntax, e.g. "I" or "LY;".
    std::string descriptor() const;
    /// descriptor().size(), without building the string.
    std::size_t descriptor_size() const noexcept;
    /// descriptor() == desc, compared in place.
    bool descriptor_is(std::string_view desc) const noexcept;

    /// The innermost element type, read in place; throws ParseError where
    /// repeated element() calls would.
    BaseType base() const;

    /// Parses one descriptor; throws ParseError on malformed input.
    static TypeDesc parse(std::string_view desc);
    /// base() of parse(desc), without building a TypeDesc; throws the
    /// ParseError parse() throws on malformed input.
    static BaseType base_of(std::string_view desc);

    bool operator==(const TypeDesc& other) const = default;

private:
    Kind kind_;
    /// For Ref: the class name.  For Arr: the element's descriptor string
    /// (kept as a string so the type stays a simple value).
    std::string class_name_;
};

/// What a call does to the operand stack, read from a method descriptor.
struct MethodShape {
    std::size_t params = 0;
    bool returns_value = false;
};

/// A method signature: parameter types and return type.
class MethodSig {
public:
    MethodSig() = default;
    MethodSig(std::vector<TypeDesc> params, TypeDesc ret)
        : params_(std::move(params)), ret_(std::move(ret)) {}

    const std::vector<TypeDesc>& params() const noexcept { return params_; }
    const TypeDesc& ret() const noexcept { return ret_; }

    /// Serialises to "(...)R" descriptor syntax.
    std::string descriptor() const;
    /// descriptor() == desc, compared in place.
    bool descriptor_is(std::string_view desc) const noexcept;

    /// Parses "(...)R"; throws ParseError on malformed input.
    static MethodSig parse(std::string_view desc);
    /// Parameter count and return kind of parse(desc), without building a
    /// MethodSig; throws the ParseError parse() throws on malformed input.
    static MethodShape shape_of(std::string_view desc);

    bool operator==(const MethodSig& other) const = default;

private:
    std::vector<TypeDesc> params_;
    TypeDesc ret_;
};

}  // namespace rafda::model
