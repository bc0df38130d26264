// Small string helpers used across the RAFDA libraries.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rafda {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on runs of whitespace, dropping empty pieces.
std::vector<std::string> split_ws(std::string_view s);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading and trailing whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// `s` as one whole number token within T's range, or nullopt: no
/// leading whitespace or '+', no trailing bytes (std::from_chars syntax).
template <class T>
std::optional<T> parse_whole(std::string_view s) {
    T v{};
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return v;
}

/// Passes `s` to `out(std::string_view)` escaped for SOAPX documents: the
/// runs between &, <, >, " whole, and each of those as its entity.
template <class Out>
void xml_escape_to(std::string_view s, Out&& out) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        std::string_view entity;
        switch (s[i]) {
            case '&': entity = "&amp;"; break;
            case '<': entity = "&lt;"; break;
            case '>': entity = "&gt;"; break;
            case '"': entity = "&quot;"; break;
            default: continue;
        }
        out(s.substr(run, i - run));
        out(entity);
        run = i + 1;
    }
    out(s.substr(run));
}

/// Inverse of xml_escape_to; throws CodecError on malformed entities.
std::string xml_unescape(std::string_view s);

}  // namespace rafda
