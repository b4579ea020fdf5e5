/**
 * @file
 * Little-endian byte codec for the persist layer.
 *
 * Header-only on purpose: the snapshot writer and its tests speak this
 * one dialect without a link dependency. The encoding is fixed-width
 * little-endian regardless of host order; doubles travel as raw IEEE
 * bit patterns (std::bit_cast), so a value round-trips bit-identically
 * — the property every warm-start guarantee in this repo reduces to.
 *
 * ByteReader is a bounds-checked cursor: any out-of-range read flips a
 * sticky ok() flag and returns zero values instead of touching memory,
 * so a truncated or hostile payload degrades to "load failed", never
 * to UB. Callers check ok() once at the end of a decode.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/hash.hpp"

namespace temp::persist {

/// The snapshot's section checksum.
using common::fnv1aBytes;

/// Appends fixed-width little-endian primitives to a byte string.
class ByteWriter
{
  public:
    void u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }

    void u32(std::uint32_t value)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }

    void u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }

    void i32(std::int32_t value)
    {
        u32(static_cast<std::uint32_t>(value));
    }

    /// Raw IEEE-754 bits: bit-identical round trip, NaN payloads and
    /// signed zeros included.
    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    /// Length-prefixed byte string (u32 length + payload).
    void str(const std::string &value)
    {
        u32(static_cast<std::uint32_t>(value.size()));
        buf_.append(value);
    }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/// Bounds-checked little-endian cursor with a sticky failure flag.
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit ByteReader(const std::string &bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    bool ok() const { return ok_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
    bool atEnd() const { return pos_ == size_; }

    std::uint8_t u8()
    {
        if (!take(1))
            return 0;
        return static_cast<std::uint8_t>(data_[pos_ - 1]);
    }

    std::uint32_t u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= static_cast<std::uint32_t>(
                         static_cast<unsigned char>(data_[pos_ - 4 + i]))
                     << (8 * i);
        return value;
    }

    std::uint64_t u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= static_cast<std::uint64_t>(
                         static_cast<unsigned char>(data_[pos_ - 8 + i]))
                     << (8 * i);
        return value;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string str()
    {
        const std::uint32_t size = u32();
        if (!take(size))
            return {};
        return std::string(data_ + pos_ - size, size);
    }

    /// Marks the decode failed (semantic validation, not just bounds).
    void fail() { ok_ = false; }

    /**
     * Advances past n bytes and returns a pointer to their start
     * (nullptr with the sticky flag set when out of range) — the
     * zero-copy carve the section framing uses.
     */
    const char *skip(std::size_t n)
    {
        if (!take(n))
            return nullptr;
        return data_ + pos_ - n;
    }

    const char *data() const { return data_; }

  private:
    bool take(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

}  // namespace temp::persist
