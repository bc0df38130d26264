#include "support/bytes.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rafda {

void ByteWriter::grow(std::size_t n) {
    buf_->reserve(buf_->size() + std::max(buf_->size(), n));
}

void ByteWriter::varu64(std::uint64_t v) {
    while (v >= 0x80) {
        buf_->push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    buf_->push_back(static_cast<std::uint8_t>(v));
}

void ByteReader::throw_truncated() { throw CodecError("truncated message"); }

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

}  // namespace rafda
