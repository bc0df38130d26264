// Byte-oriented reader/writer used by the wire codecs.
//
// Integers are encoded little-endian at fixed width; strings are
// length-prefixed.  ByteReader throws CodecError on truncated input so
// codecs never read past the end of a message.
//
// The fixed-width primitives are inline and move a word at a time: a
// write assembles its little-endian bytes with shifts (so the byte order
// never depends on the host's) and appends them in one insert, and a
// read does one bounds check and then one load.  The varint and the
// error path stay out of line.
//
// A ByteWriter can either own its buffer (the historical behaviour) or
// borrow one — e.g. a frame leased from a support::BufferPool — so encode
// paths append straight into pooled storage with no final copy.  A
// borrowing writer starts the buffer afresh unless it is told to append.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rafda {

using Bytes = std::vector<std::uint8_t>;

/// Appends primitive values to a growing byte vector.
class ByteWriter {
public:
    ByteWriter() = default;
    /// Borrowing mode: appends into `external` (cleared first, capacity
    /// kept).  The caller owns the buffer; it must outlive the writer and
    /// `take()` must not be used.
    explicit ByteWriter(Bytes& external) : buf_(&external) { external.clear(); }
    /// Appending mode: borrows `external` like the above, but keeps its
    /// bytes and appends after them.
    struct Append {};
    ByteWriter(Bytes& external, Append) : buf_(&external) {}
    ByteWriter(const ByteWriter&) = delete;
    ByteWriter& operator=(const ByteWriter&) = delete;

    void u8(std::uint8_t v) { buf_->push_back(v); }
    void u16(std::uint16_t v) { put_le(v); }
    void u32(std::uint32_t v) { put_le(v); }
    void u64(std::uint64_t v) { put_le(v); }
    /// LEB128-style unsigned varint: 7 value bits per byte, high bit =
    /// continuation.  Small values (batch-entry id deltas) cost one byte.
    void varu64(std::uint64_t v);
    void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
    void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
    /// Length-prefixed (u32) string.
    void str(std::string_view v) {
        u32(static_cast<std::uint32_t>(v.size()));
        text(v);
    }
    /// Raw bytes, no length prefix.
    void raw(const Bytes& v) { buf_->insert(buf_->end(), v.begin(), v.end()); }
    /// Raw character data, no length prefix (text protocols): one
    /// capacity check and one memmove, like put_le below.
    [[gnu::flatten]] void text(std::string_view v) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
        if (buf_->capacity() - buf_->size() < v.size()) grow(v.size());
        buf_->insert(buf_->end(), p, p + v.size());
    }

    const Bytes& data() const noexcept { return *buf_; }
    /// Owning mode only: moves the buffer out.
    Bytes take() noexcept { return std::move(*buf_); }
    std::size_t size() const noexcept { return buf_->size(); }

private:
    /// `v`'s bytes, least significant first, in one insert: one capacity
    /// check, then one copy of constant width.  Unrolled, the shifts merge
    /// into one word, so on a little-endian host the copy is a single
    /// store.  The insert is inlined whole (flatten); growth stays in the
    /// out-of-line grow(), so the inlined copy never reallocates.
    template <class U>
    [[gnu::flatten]] void put_le(U v) {
        std::uint8_t b[sizeof(U)];
#pragma GCC unroll 8
        for (std::size_t k = 0; k < sizeof(U); ++k)
            b[k] = static_cast<std::uint8_t>(v >> (8 * k));
        if (buf_->capacity() - buf_->size() < sizeof(U)) grow(sizeof(U));
        buf_->insert(buf_->end(), b, b + sizeof(U));
    }
    /// Room for `n` more bytes, growing as the vector's own insert would.
    [[gnu::noinline]] void grow(std::size_t n);

    Bytes owned_;
    Bytes* buf_ = &owned_;
};

/// Consumes primitive values from a byte span it does not own (a whole
/// Bytes converts implicitly); throws CodecError on truncation.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8() {
        need(1);
        return data_[pos_++];
    }
    std::uint16_t u16() { return get_le<std::uint16_t>(); }
    std::uint32_t u32() { return get_le<std::uint32_t>(); }
    std::uint64_t u64() { return get_le<std::uint64_t>(); }
    /// Counterpart of ByteWriter::varu64.  Throws CodecError when the
    /// value does not fit in 64 bits: more than 10 bytes, or a 10th byte
    /// with any bit above bit 0 set (continuation included).
    std::uint64_t varu64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str() { return std::string(text(u32())); }
    /// The same into `out`, reusing its capacity.
    void str(std::string& out) { out.assign(text(u32())); }
    /// The next `n` bytes as characters, no length prefix (the
    /// counterpart of ByteWriter::text).
    std::string_view text(std::size_t n) {
        need(n);
        const std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), n);
        pos_ += n;
        return s;
    }

    bool at_end() const noexcept { return pos_ == data_.size(); }
    std::size_t remaining() const noexcept { return data_.size() - pos_; }

private:
    void need(std::size_t n) const {
        if (n > data_.size() - pos_) throw_truncated();
    }
    [[noreturn]] static void throw_truncated();

    /// One bounds check, then the little-endian value at the cursor; the
    /// unrolled byte loads merge into one load.
    template <class U>
    U get_le() {
        need(sizeof(U));
        const std::uint8_t* p = data_.data() + pos_;
        U v = 0;
#pragma GCC unroll 8
        for (std::size_t k = 0; k < sizeof(U); ++k)
            v |= static_cast<U>(static_cast<U>(p[k]) << (8 * k));
        pos_ += sizeof(U);
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

}  // namespace rafda
