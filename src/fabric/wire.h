// Byte-level serialization primitives for the fabric's frame payloads.
//
// Same conventions as the binary trace codec (workload/trace_codec.h):
// LEB128 varints for integers (at most 10 bytes), single bytes for
// flags and enums, strings as varint length + raw bytes. Results travel
// as their rendered JSON text, so no message carries a double.
// WireReader rejects every malformed shape (truncated varint, overlong
// varint, string past the end, trailing junk) with
// std::invalid_argument naming the field and the payload byte it starts
// at.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pipo {

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void str(const std::string& s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& v)
      : WireReader(v.data(), v.size()) {}

  std::uint8_t u8(const char* what) {
    field_ = pos_;
    need(1, what);
    return data_[pos_++];
  }

  std::uint64_t varint(const char* what) {
    field_ = pos_;
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) bad(what, "truncated varint");
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) {
        if (shift == 63 && (b & 0x7E)) bad(what, "varint overflows 64 bits");
        return v;
      }
    }
    bad(what, "varint longer than 10 bytes");
  }

  std::string str(const char* what,
                  std::size_t max_len = 1 << 20) {
    const std::uint64_t len = varint(what);
    if (len > max_len) bad(what, "string length exceeds limit");
    need(static_cast<std::size_t>(len), what);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  bool done() const { return pos_ == size_; }

  /// Payload decoders call this last: a payload with trailing bytes is
  /// malformed (a frame type/version mismatch would look like this).
  /// Names the first trailing byte.
  void expect_done(const char* what) const {
    if (!done()) fail(what, "trailing bytes after payload", pos_);
  }

  /// Rejects the field read last, naming the payload byte it starts at.
  [[noreturn]] void bad(const char* what, const std::string& why) const {
    fail(what, why, field_);
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) bad(what, "truncated payload");
  }

  [[noreturn]] static void fail(const char* what, const std::string& why,
                                std::size_t at) {
    throw std::invalid_argument(std::string(what) + ": " + why +
                                " at payload byte " + std::to_string(at));
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t field_ = 0;  ///< first byte of the field read last
};

}  // namespace pipo
