// SOAPX text scanning (DESIGN.md §17): xml_escape_to skips eight plain
// bytes at a time, and must hand its sink exactly the calls a byte-at-a-
// time escaper makes, wherever a special character falls in a word; the
// decoder's name and whitespace tests accept exactly the "C" locale's
// ASCII bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/soapx.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rafda {
namespace {

/// The calls a byte-at-a-time escaper makes: before each special
/// character the (possibly empty) run since the last one, then its
/// entity, and the rest of the string last.
std::vector<std::string> escape_reference(std::string_view s) {
    std::vector<std::string> calls;
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char* entity = nullptr;
        if (s[i] == '&') entity = "&amp;";
        if (s[i] == '<') entity = "&lt;";
        if (s[i] == '>') entity = "&gt;";
        if (s[i] == '"') entity = "&quot;";
        if (!entity) continue;
        calls.emplace_back(s.substr(run, i - run));
        calls.emplace_back(entity);
        run = i + 1;
    }
    calls.emplace_back(s.substr(run));
    return calls;
}

std::vector<std::string> escape_calls(std::string_view s) {
    std::vector<std::string> calls;
    xml_escape_to(s, [&calls](std::string_view run) { calls.emplace_back(run); });
    return calls;
}

constexpr char kSpecials[] = {'&', '<', '>', '"'};

TEST(XmlEscape, EverySpecialAtEveryOffsetMatchesTheByteLoop) {
    // Lengths 0..40 put each offset at every position mod 8, in full
    // words and in the tail; the neighbours of each special in ASCII
    // ('%', '\'', ';', '=', '?', '!', '#') are the bytes a faulty word
    // test would confuse with it.
    for (const char special : kSpecials) {
        for (const char fill : {'a', static_cast<char>(special - 1),
                                static_cast<char>(special + 1)}) {
            if (fill == '&' || fill == '<' || fill == '>' || fill == '"') continue;
            for (std::size_t len = 1; len <= 40; ++len) {
                for (std::size_t at = 0; at < len; ++at) {
                    std::string s(len, fill);
                    s[at] = special;
                    ASSERT_EQ(escape_calls(s), escape_reference(s))
                        << "'" << special << "' at " << at << " of " << len;
                }
            }
        }
    }
}

TEST(XmlEscape, PlainAllSpecialAndLongStringsMatchTheByteLoop) {
    std::vector<std::string> inputs;
    for (std::size_t len = 0; len <= 40; ++len) {
        inputs.emplace_back(len, 'q');
        std::string all;
        for (std::size_t k = 0; k < len; ++k) all += kSpecials[k % 4];
        inputs.push_back(all);
        for (const char special : kSpecials) inputs.emplace_back(len, special);
    }
    // A 4 KB echo payload, plain and with specials near both ends and
    // across a word boundary in the middle.
    std::string big(4096, 'm');
    inputs.push_back(big);
    for (const std::size_t at : {std::size_t{0}, std::size_t{2047}, std::size_t{2048},
                                 std::size_t{4088}, std::size_t{4095}})
        big[at] = kSpecials[at % 4];
    inputs.push_back(big);
    // Every byte value, including NUL and bytes >= 0x80, in a seeded mix.
    std::uint64_t lcg = 0x5eed;
    std::string mixed;
    for (int k = 0; k < 4096; ++k) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        mixed += static_cast<char>(lcg >> 56);
    }
    inputs.push_back(mixed);
    for (const std::string& s : inputs)
        ASSERT_EQ(escape_calls(s), escape_reference(s)) << "length " << s.size();
}

const std::string kReplyHead = "<Envelope><Body><Reply";
const std::string kReplyTail = "id=\"1\"><result type=\"int\">7</result></Reply></Body></Envelope>";

std::int32_t decode_result(const std::string& xml) {
    const net::CallReply reply = net::SoapxCodec().decode_reply(Bytes(xml.begin(), xml.end()));
    return reply.result.i;
}

TEST(SoapxScan, OnlyAsciiWhitespaceSeparatesAttributesAndEndsADocument) {
    ASSERT_EQ(decode_result(kReplyHead + " " + kReplyTail), 7);
    // The "C" locale's six whitespace bytes, wherever the reader skips it:
    // after the element name, around '=', and after the last close tag.
    for (const char ws : {' ', '\t', '\n', '\v', '\f', '\r'}) {
        const std::string w(1, ws);
        EXPECT_EQ(decode_result(kReplyHead + w + kReplyTail + w), 7) << int(ws);
        EXPECT_EQ(decode_result(kReplyHead + w + "id" + w + "=" + w + kReplyTail.substr(3)), 7)
            << int(ws);
    }
    // Control bytes next to that range and the Latin-1 / C1 spaces are
    // not whitespace: each is part of a name or trailing content.
    for (const char other : {'\x08', '\x0e', '\x1c', '\x1f', '\x85', '\xa0'}) {
        const std::string o(1, other);
        EXPECT_THROW(decode_result(kReplyHead + o + kReplyTail), CodecError) << int(other);
        EXPECT_THROW(decode_result(kReplyHead + " " + kReplyTail + o), CodecError)
            << int(other);
    }
}

TEST(SoapxScan, ElementNamesAreAsciiAlphanumericsAndUnderscore) {
    const std::string doc = kReplyHead + " " + kReplyTail;
    for (int b = 0x80; b <= 0xff; ++b) {
        const char c = static_cast<char>(b);
        // A name that starts with the byte is empty; one that contains it
        // stops there and the rest of the tag is no attribute.
        EXPECT_THROW(decode_result("<" + std::string(1, c) + doc.substr(1)), CodecError) << b;
        EXPECT_THROW(decode_result("<Enve" + std::string(1, c) + doc.substr(5)), CodecError)
            << b;
    }
    // '_' and digits are name bytes: this element name reads whole, so the
    // document fails on the path, not on a stray attribute.
    try {
        decode_result("<Env_9elope>" + doc.substr(10));
        FAIL() << "decoded a document whose root is not Envelope";
    } catch (const CodecError& e) {
        EXPECT_NE(std::string(e.what()).find("expected <Envelope>"), std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace rafda
