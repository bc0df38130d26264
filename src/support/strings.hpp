// Small string helpers used across the RAFDA libraries.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
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
/// runs between &, <, >, " whole, and each of those as its entity.  Words
/// of eight bytes with none of the four are skipped whole (a SWAR
/// zero-byte test per character); only a word that holds one, and the
/// tail, are walked byte by byte.
template <class Out>
void xml_escape_to(std::string_view s, Out&& out) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighs = 0x8080808080808080ull;
    // Nonzero iff some byte of `w` equals `c`.
    const auto holds = [](std::uint64_t w, char c) {
        const std::uint64_t t = w ^ (kOnes * static_cast<unsigned char>(c));
        return (t - kOnes) & ~t & kHighs;
    };
    std::size_t run = 0;
    std::size_t i = 0;
    while (i < s.size()) {
        for (std::uint64_t w; i + 8 <= s.size(); i += 8) {
            std::memcpy(&w, s.data() + i, 8);
            if (holds(w, '&') | holds(w, '<') | holds(w, '>') | holds(w, '"')) break;
        }
        for (const std::size_t end = std::min(i + 8, s.size()); i < end; ++i) {
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
    }
    out(s.substr(run));
}

/// Inverse of xml_escape_to; throws CodecError on malformed entities.
std::string xml_unescape(std::string_view s);

}  // namespace rafda
