#include "vm/value.hpp"

#include <charconv>

#include "support/error.hpp"

namespace rafda::vm {

void Value::throw_bad_tag(const char* want) const {
    throw VmError(std::string("value is not ") + want + " (got " + display() + ")");
}

std::string Value::display() const {
    if (is_null()) return "null";
    if (is_bool()) return as_bool() ? "true" : "false";
    if (is_int()) return std::to_string(as_int());
    if (is_long()) return std::to_string(as_long());
    if (is_double()) {
        // Shortest round-trip rendering (to_chars without a precision).
        // Streaming at the default 6 significant digits made guest string
        // concatenation lossy, so an original and its transformed twin
        // could print different output after a marshalling round trip
        // (SOAPX encodes at max_digits10) — breaking semantic equivalence.
        char buf[32];
        auto [end, ec] = std::to_chars(buf, buf + sizeof buf, as_double());
        if (ec != std::errc{}) return "?double?";  // 32 bytes always suffice
        return std::string(buf, end);
    }
    if (is_str()) return as_str();
    return "@" + std::to_string(as_ref());
}

Value default_value(const model::TypeDesc& t) {
    switch (t.kind()) {
        case model::Kind::Bool: return Value::of_bool(false);
        case model::Kind::Int: return Value::of_int(0);
        case model::Kind::Long: return Value::of_long(0);
        case model::Kind::Double: return Value::of_double(0.0);
        case model::Kind::Str: return Value::of_str("");
        default: return Value::null();
    }
}

}  // namespace rafda::vm
