/// \file bytes.h
/// The one little-endian byte codec behind every binary format opckit
/// reads or writes: the record file (store/result_store.h), the FlowSpec
/// codec (core/flow_codec.h) and the opcd wire frames
/// (service/protocol.h).
///
/// ByteWriter appends fixed-width little-endian fields; ByteReader is
/// the bounds-checked cursor over them. A reader never reads past its
/// range: a short read calls the caller's failure handler, which throws
/// the format's own error type, so a corrupt length or count can never
/// drive an out-of-range access.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace opckit::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// range.
std::uint32_t crc32(const void* data, std::size_t size);

/// Appends little-endian fields to a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + size);
  }
  /// u32 length, then the raw bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

 private:
  void put(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i)
      out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian cursor over a byte range.
class ByteReader {
 public:
  /// Called with a description of the failure; must throw.
  using Fail = void (*)(const std::string& what);

  ByteReader(const std::uint8_t* data, std::size_t size, Fail on_fail)
      : data_(data), size_(size), fail_(on_fail) {}

  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(get(1, "u8")); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get(2, "u16")); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4, "u32")); }
  std::uint64_t u64() { return get(8, "u64"); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next \p n bytes in place; the cursor moves past them.
  const std::uint8_t* take(std::size_t n, const char* what) {
    need(n, what);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  /// A u32-length-prefixed string of at most \p max_bytes.
  std::string str(std::uint32_t max_bytes) {
    const std::uint32_t n = u32();
    if (n > max_bytes) fail("string length exceeds the limit");
    const auto* p = reinterpret_cast<const char*>(take(n, "string body"));
    return std::string(p, n);
  }

  /// Fails unless at least \p n bytes remain — the pre-check before
  /// sizing a container from a count read off the input.
  void need(std::uint64_t n, const char* what) {
    if (remaining() < n) fail(std::string("truncated input reading ") + what);
  }

  /// Fails unless the whole range was consumed.
  void finish() {
    if (remaining() != 0)
      fail(std::to_string(remaining()) +
           " trailing bytes after a well-formed value");
  }

  [[noreturn]] void fail(const std::string& what) const {
    fail_(what);
    throw InputError(what);  // unreachable when the handler throws
  }

 private:
  std::uint64_t get(std::size_t n, const char* what) {
    need(n, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += n;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Fail fail_;
};

}  // namespace opckit::util
