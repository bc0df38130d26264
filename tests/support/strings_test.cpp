#include "support/strings.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace rafda {
namespace {

TEST(Strings, SplitKeepsEmptyPieces) {
    EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWsDropsEmptyPieces) {
    EXPECT_EQ(split_ws("  a \t b\nc  "), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(split_ws("   ").empty());
    EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, Join) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
    EXPECT_EQ(join({"solo"}, ", "), "solo");
}

TEST(Strings, Trim) {
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(starts_with("X_O_Int", "X_"));
    EXPECT_FALSE(starts_with("X", "X_"));
    EXPECT_TRUE(ends_with("X_O_Int", "_Int"));
    EXPECT_FALSE(ends_with("Int", "_Int"));
}

std::string xml_escape(std::string_view s) {
    std::string out;
    xml_escape_to(s, [&out](std::string_view run) { out += run; });
    return out;
}

TEST(Strings, XmlEscapeRoundTrip) {
    const std::string nasty = R"(a<b>&"c"&amp;)";
    EXPECT_EQ(xml_unescape(xml_escape(nasty)), nasty);
}

TEST(Strings, XmlEscapeProducesEntities) {
    EXPECT_EQ(xml_escape("<a & \"b\">"), "&lt;a &amp; &quot;b&quot;&gt;");
}

TEST(Strings, XmlUnescapeRejectsMalformed) {
    EXPECT_THROW(xml_unescape("&bogus;"), CodecError);
    EXPECT_THROW(xml_unescape("&amp"), CodecError);
}

}  // namespace
}  // namespace rafda
