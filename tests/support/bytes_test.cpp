#include "support/bytes.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"

namespace rafda {
namespace {

TEST(Bytes, RoundTripPrimitives) {
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.i64(-1234567890123LL);
    w.f64(3.14159);
    w.str("hello");

    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123LL);
    EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.at_end());
}

TEST(Bytes, EmptyString) {
    ByteWriter w;
    w.str("");
    ByteReader r(w.data());
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.at_end());
}

TEST(Bytes, StringWithEmbeddedNulAndUnicode) {
    std::string s("a\0b\xc3\xa9", 5);
    ByteWriter w;
    w.str(s);
    ByteReader r(w.data());
    EXPECT_EQ(r.str(), s);
}

TEST(Bytes, TruncatedReadThrows) {
    ByteWriter w;
    w.u16(7);
    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u8(), 0);
    EXPECT_THROW(r.u8(), CodecError);
}

TEST(Bytes, TruncatedStringThrows) {
    ByteWriter w;
    w.u32(100);  // claims 100 bytes follow
    w.u8('x');
    ByteReader r(w.data());
    EXPECT_THROW(r.str(), CodecError);
}

TEST(Bytes, NegativeExtremes) {
    ByteWriter w;
    w.i32(std::numeric_limits<std::int32_t>::min());
    w.i64(std::numeric_limits<std::int64_t>::min());
    w.f64(-std::numeric_limits<double>::infinity());
    ByteReader r(w.data());
    EXPECT_EQ(r.i32(), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
}

TEST(Bytes, RemainingTracksPosition) {
    ByteWriter w;
    w.u32(1);
    w.u32(2);
    ByteReader r(w.data());
    EXPECT_EQ(r.remaining(), 8u);
    r.u32();
    EXPECT_EQ(r.remaining(), 4u);
    r.u32();
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, RawAppends) {
    ByteWriter inner;
    inner.u32(99);
    ByteWriter outer;
    outer.u8(1);
    outer.raw(inner.data());
    ByteReader r(outer.data());
    EXPECT_EQ(r.u8(), 1);
    EXPECT_EQ(r.u32(), 99u);
}

TEST(Bytes, TakeMovesBuffer) {
    ByteWriter w;
    w.str("abc");
    Bytes b = w.take();
    EXPECT_EQ(b.size(), 7u);  // 4-byte length + 3 bytes
    EXPECT_EQ(w.size(), 0u);
}

TEST(Bytes, VaruRoundTripsAtEncodingBoundaries) {
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
          std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
          std::uint64_t{1} << 35, std::numeric_limits<std::uint64_t>::max()}) {
        ByteWriter w;
        w.varu64(v);
        ByteReader r(w.data());
        EXPECT_EQ(r.varu64(), v) << v;
        EXPECT_TRUE(r.at_end());
    }
    // Small values (batch-entry id deltas) cost a single byte.
    ByteWriter small;
    small.varu64(42);
    EXPECT_EQ(small.size(), 1u);
    ByteWriter max;
    max.varu64(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(max.size(), 10u);
}

TEST(Bytes, VaruRejectsOverlongEncoding) {
    // Eleven continuation bytes can't fit in 64 bits.
    Bytes overlong(11, 0x80);
    ByteReader r(overlong);
    EXPECT_THROW(r.varu64(), CodecError);
}

TEST(Bytes, VaruRejectsBitsPast64) {
    // Nine continuation bytes carry 63 bits; the 10th byte may set bit 63
    // only.  0x7E there used to decode to 0 instead of throwing.
    Bytes high(9, 0x80);
    high.push_back(0x7E);
    ByteReader r(high);
    EXPECT_THROW(r.varu64(), CodecError);
    // A continuation bit on the 10th byte overflows as well.
    Bytes more(9, 0x80);
    more.push_back(0x81);
    more.push_back(0x00);
    ByteReader m(more);
    EXPECT_THROW(m.varu64(), CodecError);
}

TEST(Bytes, VaruDecodesTheLongestValidEncoding) {
    // UINT64_MAX is nine 0xFF bytes and a final 0x01.
    Bytes max(9, 0xFF);
    max.push_back(0x01);
    ByteReader r(max);
    EXPECT_EQ(r.varu64(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.at_end());
    ByteWriter w;
    w.varu64(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(w.data(), max);
    // Bit 63 alone, spelt with nine zero payloads.
    Bytes top(9, 0x80);
    top.push_back(0x01);
    ByteReader t(top);
    EXPECT_EQ(t.varu64(), std::uint64_t{1} << 63);
    EXPECT_TRUE(t.at_end());
}

TEST(Bytes, BorrowingWriterClearsAndKeepsCapacity) {
    Bytes pooled;
    pooled.reserve(1024);
    pooled.push_back(0xEE);  // stale bytes from the buffer's previous life
    const std::uint8_t* data_before = pooled.data();
    {
        ByteWriter w(pooled);
        EXPECT_EQ(w.size(), 0u);  // cleared on construction
        w.u32(7);
        w.str("hi");
    }
    EXPECT_EQ(pooled.size(), 10u);  // u32 + length-prefixed "hi"
    EXPECT_EQ(pooled.data(), data_before);  // no reallocation
    ByteReader r(pooled);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_EQ(r.str(), "hi");
}

TEST(Bytes, BorrowingWriterMatchesOwningOutput) {
    auto write = [](ByteWriter& w) {
        w.u8(0xA1);
        w.varu64(300);
        w.text("tail");
    };
    ByteWriter owning;
    write(owning);
    Bytes external;
    ByteWriter borrowing(external);
    write(borrowing);
    EXPECT_EQ(external, owning.data());
}

}  // namespace
}  // namespace rafda
