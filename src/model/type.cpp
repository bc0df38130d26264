#include "model/type.hpp"

#include <optional>

#include "support/error.hpp"

namespace rafda::model {

namespace {

/// Descriptor characters of the primitive kinds, indexed by Kind.
constexpr std::string_view kPrimitiveChars = "VZIJDS";

std::optional<Kind> primitive_kind(char c) {
    const std::size_t at = kPrimitiveChars.find(c);
    if (at == std::string_view::npos) return std::nullopt;
    return static_cast<Kind>(at);
}

}  // namespace

TypeDesc::TypeDesc(Kind kind) : kind_(kind) {
    if (kind == Kind::Ref) throw ParseError("reference type requires a class name", 0);
}

TypeDesc TypeDesc::ref(std::string class_name) {
    TypeDesc t;
    t.kind_ = Kind::Ref;
    t.class_name_ = std::move(class_name);
    return t;
}

TypeDesc TypeDesc::array(const TypeDesc& elem) {
    if (elem.is_void()) throw ParseError("array of void", 0);
    TypeDesc t;
    t.kind_ = Kind::Arr;
    t.class_name_ = elem.descriptor();
    return t;
}

TypeDesc TypeDesc::element() const {
    if (kind_ != Kind::Arr) throw VerifyError("element() on non-array type");
    return parse(class_name_);
}

const TypeDesc& TypeDesc::void_() {
    static const TypeDesc t{Kind::Void};
    return t;
}
const TypeDesc& TypeDesc::bool_() {
    static const TypeDesc t{Kind::Bool};
    return t;
}
const TypeDesc& TypeDesc::int_() {
    static const TypeDesc t{Kind::Int};
    return t;
}
const TypeDesc& TypeDesc::long_() {
    static const TypeDesc t{Kind::Long};
    return t;
}
const TypeDesc& TypeDesc::double_() {
    static const TypeDesc t{Kind::Double};
    return t;
}
const TypeDesc& TypeDesc::str() {
    static const TypeDesc t{Kind::Str};
    return t;
}

const std::string& TypeDesc::class_name() const {
    if (kind_ != Kind::Ref) throw VerifyError("class_name() on non-reference type");
    return class_name_;
}

std::string TypeDesc::descriptor() const {
    switch (kind_) {
        case Kind::Ref: return "L" + class_name_ + ";";
        case Kind::Arr: return "[" + class_name_;
        default: return std::string(1, kPrimitiveChars[static_cast<std::size_t>(kind_)]);
    }
}

std::size_t TypeDesc::descriptor_size() const noexcept {
    switch (kind_) {
        case Kind::Ref: return class_name_.size() + 2;
        case Kind::Arr: return class_name_.size() + 1;
        default: return 1;
    }
}

bool TypeDesc::descriptor_is(std::string_view desc) const noexcept {
    switch (kind_) {
        case Kind::Ref:
            return desc.size() == class_name_.size() + 2 && desc.front() == 'L' &&
                   desc.back() == ';' && desc.substr(1, class_name_.size()) == class_name_;
        case Kind::Arr:
            return desc.size() == class_name_.size() + 1 && desc.front() == '[' &&
                   desc.substr(1) == class_name_;
        default:
            return desc.size() == 1 &&
                   desc.front() == kPrimitiveChars[static_cast<std::size_t>(kind_)];
    }
}

BaseType TypeDesc::base() const {
    switch (kind_) {
        case Kind::Ref: return {Kind::Ref, class_name_};
        case Kind::Arr: return base_of(class_name_);
        default: return {kind_, {}};
    }
}

namespace {

/// Steps `pos` over one type descriptor, accepting exactly what parse_one
/// accepts, without allocating.  `kind` is the type's own kind (Arr for
/// arrays), `base` its innermost element.  False on malformed input, where
/// the caller falls back to the parser for its ParseError.
bool scan_one(std::string_view desc, std::size_t& pos, Kind& kind, BaseType& base) {
    std::size_t dims = 0;
    while (pos < desc.size() && desc[pos] == '[') {
        ++pos;
        ++dims;
    }
    if (pos >= desc.size()) return false;
    const char c = desc[pos++];
    if (c == 'L') {
        const std::size_t semi = desc.find(';', pos);
        if (semi == std::string_view::npos) return false;
        base = {Kind::Ref, desc.substr(pos, semi - pos)};
        pos = semi + 1;
    } else {
        const std::optional<Kind> k = primitive_kind(c);
        if (!k || (dims > 0 && *k == Kind::Void)) return false;  // TypeDesc::array(void)
        base = {*k, {}};
    }
    kind = dims > 0 ? Kind::Arr : base.kind;
    return true;
}

TypeDesc parse_one(std::string_view desc, std::size_t& pos) {
    if (pos >= desc.size()) throw ParseError("empty type descriptor", 0);
    char c = desc[pos++];
    if (const std::optional<Kind> k = primitive_kind(c)) return TypeDesc(*k);
    switch (c) {
        case '[': {
            TypeDesc elem = parse_one(desc, pos);
            return TypeDesc::array(elem);
        }
        case 'L': {
            std::size_t semi = desc.find(';', pos);
            if (semi == std::string_view::npos)
                throw ParseError("unterminated class descriptor: " + std::string(desc), 0);
            TypeDesc t = TypeDesc::ref(std::string(desc.substr(pos, semi - pos)));
            pos = semi + 1;
            return t;
        }
        default:
            throw ParseError("bad type descriptor char '" + std::string(1, c) + "' in " +
                                 std::string(desc),
                             0);
    }
}

}  // namespace

TypeDesc TypeDesc::parse(std::string_view desc) {
    std::size_t pos = 0;
    TypeDesc t = parse_one(desc, pos);
    if (pos != desc.size())
        throw ParseError("trailing characters in type descriptor: " + std::string(desc), 0);
    return t;
}

BaseType TypeDesc::base_of(std::string_view desc) {
    std::size_t pos = 0;
    Kind kind = Kind::Void;
    BaseType base;
    if (scan_one(desc, pos, kind, base) && pos == desc.size()) return base;
    // scan_one rejects only what parse() rejects, so this throws parse()'s
    // own ParseError; the second throw is not reached.
    parse(desc);
    throw ParseError("malformed type descriptor: " + std::string(desc), 0);
}

std::string MethodSig::descriptor() const {
    std::string out = "(";
    for (const TypeDesc& p : params_) out += p.descriptor();
    out += ")";
    out += ret_.descriptor();
    return out;
}

MethodSig MethodSig::parse(std::string_view desc) {
    if (desc.empty() || desc[0] != '(')
        throw ParseError("method descriptor must start with '(': " + std::string(desc), 0);
    std::size_t pos = 1;
    std::vector<TypeDesc> params;
    while (pos < desc.size() && desc[pos] != ')') {
        params.push_back(parse_one(desc, pos));
        if (params.back().is_void())
            throw ParseError("void parameter in method descriptor: " + std::string(desc), 0);
    }
    if (pos >= desc.size())
        throw ParseError("unterminated parameter list: " + std::string(desc), 0);
    ++pos;  // skip ')'
    TypeDesc ret = parse_one(desc, pos);
    if (pos != desc.size())
        throw ParseError("trailing characters in method descriptor: " + std::string(desc), 0);
    return MethodSig(std::move(params), std::move(ret));
}

bool MethodSig::descriptor_is(std::string_view desc) const noexcept {
    if (desc.empty() || desc.front() != '(') return false;
    std::size_t pos = 1;
    for (const TypeDesc& p : params_) {
        const std::size_t len = p.descriptor_size();
        if (!p.descriptor_is(desc.substr(pos, len))) return false;
        pos += len;
    }
    if (pos >= desc.size() || desc[pos] != ')') return false;
    return ret_.descriptor_is(desc.substr(pos + 1));
}

MethodShape MethodSig::shape_of(std::string_view desc) {
    if (!desc.empty() && desc.front() == '(') {
        std::size_t pos = 1;
        MethodShape shape;
        Kind kind = Kind::Void;
        BaseType base;
        bool ok = true;
        while (ok && pos < desc.size() && desc[pos] != ')') {
            ok = scan_one(desc, pos, kind, base) && kind != Kind::Void;
            ++shape.params;
        }
        if (ok && pos < desc.size() && scan_one(desc, ++pos, kind, base) && pos == desc.size()) {
            shape.returns_value = kind != Kind::Void;
            return shape;
        }
    }
    const MethodSig sig = parse(desc);  // malformed: throws parse()'s ParseError
    return {sig.params().size(), !sig.ret().is_void()};
}

}  // namespace rafda::model
