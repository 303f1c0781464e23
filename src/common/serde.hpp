// Minimal binary serialization: little-endian fixed-width integers,
// length-prefixed byte strings. Used for wire formats (proof bundles,
// Waku messages) and for measuring serialized sizes in the benches.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace waku {

/// The little-endian bytes ByteWriter writes for `v`, so a hasher can take
/// the same encoding without building the buffer.
template <std::unsigned_integral T>
constexpr std::array<std::uint8_t, sizeof(T)> le_bytes(T v) noexcept {
  std::array<std::uint8_t, sizeof(T)> out{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}

/// Views a string's bytes without copying (UTF-8 passthrough).
inline BytesView bytes_view(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Appends primitive values to an owned byte buffer in little-endian order.
class ByteWriter {
 public:
  ByteWriter() = default;

  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  /// Writes raw bytes with no length prefix.
  void write_raw(BytesView data);
  /// Writes a u32 length prefix followed by the bytes.
  void write_bytes(BytesView data);
  /// Writes a u32 length prefix followed by the UTF-8 payload.
  void write_string(std::string_view s);

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Reads primitive values from a byte view; throws std::out_of_range when
/// the buffer is exhausted (malformed wire data must not crash a node).
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  /// Reads exactly `n` raw bytes.
  Bytes read_raw(std::size_t n);
  /// Reads a u32 length prefix then that many bytes.
  Bytes read_bytes();
  /// Reads a u32 length prefix then that many bytes as a string.
  std::string read_string();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void require(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace waku
