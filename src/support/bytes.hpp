// Byte-oriented reader/writer used by the wire codecs.
//
// Integers are encoded little-endian at fixed width; strings are
// length-prefixed.  ByteReader throws CodecError on truncated input so
// codecs never read past the end of a message.
//
// A ByteWriter can either own its buffer (the historical behaviour) or
// borrow one — e.g. a frame leased from a support::BufferPool — so encode
// paths append straight into pooled storage with no final copy.
#pragma once

#include <cstdint>
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
    ByteWriter(const ByteWriter&) = delete;
    ByteWriter& operator=(const ByteWriter&) = delete;

    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /// LEB128-style unsigned varint: 7 value bits per byte, high bit =
    /// continuation.  Small values (batch-entry id deltas) cost one byte.
    void varu64(std::uint64_t v);
    void i32(std::int32_t v);
    void i64(std::int64_t v);
    void f64(double v);
    /// Length-prefixed (u32) string.
    void str(std::string_view v);
    /// Raw bytes, no length prefix.
    void raw(const Bytes& v);
    /// Raw character data, no length prefix (text protocols).
    void text(std::string_view v);

    const Bytes& data() const noexcept { return *buf_; }
    /// Owning mode only: moves the buffer out.
    Bytes take() noexcept { return std::move(*buf_); }
    std::size_t size() const noexcept { return buf_->size(); }

private:
    Bytes owned_;
    Bytes* buf_ = &owned_;
};

/// Consumes primitive values from a byte span; throws CodecError on
/// truncation.
class ByteReader {
public:
    explicit ByteReader(const Bytes& data) : data_(&data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    /// Counterpart of ByteWriter::varu64.  Throws CodecError when the
    /// value does not fit in 64 bits: more than 10 bytes, or a 10th byte
    /// with any bit above bit 0 set (continuation included).
    std::uint64_t varu64();
    std::int32_t i32();
    std::int64_t i64();
    double f64();
    std::string str();
    /// The next `n` bytes as characters, no length prefix (the
    /// counterpart of ByteWriter::text).
    std::string_view text(std::size_t n);

    bool at_end() const noexcept { return pos_ == data_->size(); }
    std::size_t remaining() const noexcept { return data_->size() - pos_; }

private:
    void need(std::size_t n) const;

    const Bytes* data_;
    std::size_t pos_ = 0;
};

}  // namespace rafda
