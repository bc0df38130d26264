// Runtime values of the RIR virtual machine.
//
// A Value is null, a primitive (bool/int/long/double/string) or a reference
// into a heap.  References are plain object ids; they are only meaningful
// relative to the heap of the address space (vm::Interpreter) that created
// them — exactly the property that makes cross-address-space references
// need proxies, which is the problem the paper solves.
//
// Storage is a hand-rolled tagged union rather than std::variant: the
// interpreter moves Values on every push/pop, and libstdc++'s variant
// routes each copy/move of a non-trivially-copyable variant through an
// indirect visitation call.  Here the non-string cases are one tag byte
// plus eight payload bytes, inlined at the call site.
#pragma once

#include <cstdint>
#include <new>
#include <string>
#include <utility>

#include "model/type.hpp"

namespace rafda::vm {

/// Heap object id; valid ids start at 1.
using ObjId = std::uint64_t;

/// Distinguishes references from other integral values (kept for
/// callers that name the type; Value stores the id directly).
struct Ref {
    ObjId id = 0;
    bool operator==(const Ref&) const = default;
};

struct NullValue {
    bool operator==(const NullValue&) const = default;
};

class Value {
public:
    Value() noexcept : tag_(Tag::Null), j_(0) {}
    static Value null() { return Value(); }
    static Value of_bool(bool b) {
        Value v;
        v.tag_ = Tag::Bool;
        v.b_ = b;
        return v;
    }
    static Value of_int(std::int32_t i) {
        Value v;
        v.tag_ = Tag::Int;
        v.i_ = i;
        return v;
    }
    static Value of_long(std::int64_t j) {
        Value v;
        v.tag_ = Tag::Long;
        v.j_ = j;
        return v;
    }
    static Value of_double(double d) {
        Value v;
        v.tag_ = Tag::Double;
        v.d_ = d;
        return v;
    }
    static Value of_str(std::string s) {
        Value v;
        v.tag_ = Tag::Str;
        new (&v.s_) std::string(std::move(s));
        return v;
    }
    static Value of_ref(ObjId id) {
        Value v;
        v.tag_ = Tag::Ref;
        v.r_ = id;
        return v;
    }

    Value(const Value& o) { construct_from(o); }
    Value(Value&& o) noexcept { construct_from(std::move(o)); }
    Value& operator=(const Value& o) {
        if (this != &o) {
            if (tag_ == Tag::Str && o.tag_ == Tag::Str) {
                s_ = o.s_;
            } else {
                destroy();
                construct_from(o);
            }
        }
        return *this;
    }
    Value& operator=(Value&& o) noexcept {
        if (this != &o) {
            if (tag_ == Tag::Str && o.tag_ == Tag::Str) {
                s_ = std::move(o.s_);
            } else {
                destroy();
                construct_from(std::move(o));
            }
        }
        return *this;
    }
    ~Value() { destroy(); }

    bool is_null() const { return tag_ == Tag::Null; }
    bool is_bool() const { return tag_ == Tag::Bool; }
    bool is_int() const { return tag_ == Tag::Int; }
    bool is_long() const { return tag_ == Tag::Long; }
    bool is_double() const { return tag_ == Tag::Double; }
    bool is_str() const { return tag_ == Tag::Str; }
    bool is_ref() const { return tag_ == Tag::Ref; }
    bool is_numeric() const { return is_int() || is_long() || is_double(); }

    /// Accessors throw VmError when the tag does not match.
    bool as_bool() const {
        if (tag_ != Tag::Bool) throw_bad_tag("bool");
        return b_;
    }
    std::int32_t as_int() const {
        if (tag_ != Tag::Int) throw_bad_tag("int");
        return i_;
    }
    std::int64_t as_long() const {
        if (tag_ != Tag::Long) throw_bad_tag("long");
        return j_;
    }
    double as_double() const {
        if (tag_ != Tag::Double) throw_bad_tag("double");
        return d_;
    }
    const std::string& as_str() const {
        if (tag_ != Tag::Str) throw_bad_tag("string");
        return s_;
    }
    ObjId as_ref() const {
        if (tag_ != Tag::Ref) throw_bad_tag("reference");
        return r_;
    }

    /// Widens any numeric to the named representation for arithmetic.
    std::int64_t widen_integral() const {
        if (tag_ == Tag::Int) return i_;
        if (tag_ == Tag::Long) return j_;
        throw_bad_tag("integral");
    }
    double widen_double() const {
        if (tag_ == Tag::Int) return i_;
        if (tag_ == Tag::Long) return static_cast<double>(j_);
        if (tag_ == Tag::Double) return d_;
        throw_bad_tag("numeric");
    }

    /// Human-readable rendering (used by Concat and by guest printing).
    std::string display() const;

    /// Structural equality: numerics compare by value within the same kind,
    /// strings by content, refs by identity.
    bool operator==(const Value& other) const {
        if (tag_ != other.tag_) return false;
        switch (tag_) {
            case Tag::Null: return true;
            case Tag::Bool: return b_ == other.b_;
            case Tag::Int: return i_ == other.i_;
            case Tag::Long: return j_ == other.j_;
            case Tag::Double: return d_ == other.d_;
            case Tag::Str: return s_ == other.s_;
            case Tag::Ref: return r_ == other.r_;
        }
        return false;
    }

private:
    enum class Tag : std::uint8_t { Null, Bool, Int, Long, Double, Str, Ref };

    [[noreturn]] void throw_bad_tag(const char* want) const;

    void construct_from(const Value& o) {
        tag_ = o.tag_;
        if (tag_ == Tag::Str)
            new (&s_) std::string(o.s_);
        else
            j_ = o.j_;  // any 8-byte scalar; GCC/Clang define union punning
    }
    void construct_from(Value&& o) noexcept {
        tag_ = o.tag_;
        if (tag_ == Tag::Str)
            new (&s_) std::string(std::move(o.s_));
        else
            j_ = o.j_;
    }
    void destroy() noexcept {
        if (tag_ == Tag::Str) s_.~basic_string();
    }

    Tag tag_;
    union {
        bool b_;
        std::int32_t i_;
        std::int64_t j_;
        double d_;
        ObjId r_;
        std::string s_;
    };
};

/// The default value a field of type `t` starts with (JVM-style zeroing).
Value default_value(const model::TypeDesc& t);

}  // namespace rafda::vm
