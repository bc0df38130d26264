#include "support/bytes.hpp"

#include <bit>
#include <cstring>

#include "support/error.hpp"

namespace rafda {

void ByteWriter::u8(std::uint8_t v) { buf_->push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
    buf_->push_back(static_cast<std::uint8_t>(v));
    buf_->push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::varu64(std::uint64_t v) {
    while (v >= 0x80) {
        buf_->push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf_->push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void ByteWriter::str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    text(v);
}

void ByteWriter::raw(const Bytes& v) { buf_->insert(buf_->end(), v.begin(), v.end()); }

// A byte-pointer range is one memmove; a `char` range would copy per byte.
void ByteWriter::text(std::string_view v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_->insert(buf_->end(), p, p + v.size());
}

void ByteReader::need(std::size_t n) const {
    if (n > data_->size() - pos_) throw CodecError("truncated message");
}

std::uint8_t ByteReader::u8() {
    need(1);
    return (*data_)[pos_++];
}

std::uint16_t ByteReader::u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>((*data_)[pos_] | ((*data_)[pos_ + 1] << 8));
    pos_ += 2;
    return v;
}

std::uint32_t ByteReader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>((*data_)[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t ByteReader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>((*data_)[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

std::uint64_t ByteReader::varu64() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 63; shift += 7) {
        std::uint8_t b = u8();
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80)) return v;
    }
    // The 10th byte holds bit 63 alone: anything above it, or a further
    // continuation, would not fit in 64 bits.
    const std::uint8_t last = u8();
    if (last > 1) throw CodecError("varint too long");
    return v | static_cast<std::uint64_t>(last) << 63;
}

std::int32_t ByteReader::i32() { return static_cast<std::int32_t>(u32()); }
std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string ByteReader::str() { return std::string(text(u32())); }

std::string_view ByteReader::text(std::size_t n) {
    need(n);
    const std::string_view s(reinterpret_cast<const char*>(data_->data() + pos_), n);
    pos_ += n;
    return s;
}

}  // namespace rafda
