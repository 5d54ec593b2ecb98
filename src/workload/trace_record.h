// The record encoding of binary traces: the payload of every frame in
// the framed "PIPOTRC3" container (trace_frame.h). The namespace keeps
// the encoding's name, trace_v2. This header holds its one definition —
// byte sources, the strict varint reader, the record decoder and the
// append-side helpers.
//
// Record layout (all multi-byte integers are LEB128 varints,
// little-endian base-128, at most 10 bytes):
//
//     +--------+-----------------+--------+-------------------+
//     | flags  | varint          | offset | varint            |
//     | 1 byte | |line delta|    | 1 byte | pre_delay         |
//     +--------+-----------------+--------+-------------------+
//
//     flags bit 0-1: AccessType (0 = load, 1 = store, 2 = inst fetch;
//                    3 is reserved and rejected)
//     flags bit 2:   bypass_private
//     flags bit 3:   line delta is negative
//     flags bit 4-7: reserved, must be zero
//
//   The line delta is line_of(addr) minus the previous record's line
//   (starting from line 0); the offset byte holds addr & 63 and must be
//   < 64. Every MemRequest field — including bypass_private crossed
//   with all three access types — round-trips exactly.
//
// Malformed records (truncated or overlong varint, non-minimal varint
// encodings the encoder never emits, reserved flag bits, offset >= 64,
// a line delta leaving the 58-bit line space, pre_delay beyond 32 bits,
// end of input inside a record) throw std::invalid_argument naming the
// absolute byte offset. Accepted record streams are byte-canonical:
// encode(decode(bytes)) == bytes, so a trace's bytes are a function of
// its requests and its framing, and re-encoding a decoded trace
// reproduces its file.
//
// Byte sources implement: `int get_byte()` (-1 at end), `std::uint8_t
// need_byte(const char*)` and `[[noreturn]] void bad(const
// std::string&)` (throws std::invalid_argument naming the absolute
// offset of the next unread byte). The two sources also report that
// offset as consumed(); the record decoder reads a frame's payload
// through BufferByteSource::Cursor, which holds the position in a local.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/workload_if.h"

namespace pipo {
namespace trace_v2 {

// Flag-byte layout (see the diagram above).
inline constexpr std::uint8_t kTypeMask = 0x03;
inline constexpr std::uint8_t kFlagBypass = 0x04;
inline constexpr std::uint8_t kFlagNegDelta = 0x08;
inline constexpr std::uint8_t kReservedMask = 0xF0;
inline constexpr std::uint8_t kReservedType = 3;
// A 64-bit LEB128 varint is at most 10 bytes, and the 10th carries only
// the top bit (64 = 9*7 + 1).
inline constexpr unsigned kMaxVarintBytes = 10;

/// Pull source over an istream that reads through the stream's own
/// buffer: get() per header byte, read() per payload. consumed() is the
/// absolute offset of the next unread byte. A stream error (badbit)
/// throws "stream read error": it is not a clean end of trace, and
/// treating it as one would silently replay a prefix of the capture.
class StreamByteSource {
 public:
  StreamByteSource(std::istream& is, std::string context)
      : is_(is), context_(std::move(context)) {}

  /// Next byte; -1 at EOF.
  int get_byte() {
    const int b = is_.get();
    if (b == std::istream::traits_type::eof()) {
      if (is_.bad()) bad("stream read error");
      return -1;
    }
    ++consumed_;
    return b;
  }

  std::uint8_t need_byte(const char* what) {
    const int b = get_byte();
    if (b < 0) bad(std::string("truncated record (") + what + ")");
    return static_cast<std::uint8_t>(b);
  }

  /// Reads up to `n` bytes into `dst`; returns how many the stream held.
  std::size_t read_some(std::uint8_t* dst, std::size_t n) {
    is_.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(is_.gcount());
    consumed_ += got;
    if (is_.bad()) bad("stream read error");
    return got;
  }

  /// Absolute byte offset of the next unread byte.
  std::uint64_t consumed() const { return consumed_; }

  [[noreturn]] void bad(const std::string& what) const {
    throw std::invalid_argument(context_ + ", byte " +
                                std::to_string(consumed_) + ": " + what);
  }

 private:
  std::istream& is_;
  std::uint64_t consumed_ = 0;
  std::string context_;
};

/// Pull source over an in-memory span (one framed-container payload).
/// consumed() reports `base_offset` + position so diagnostics stay in
/// absolute file bytes for raw frames.
class BufferByteSource {
 public:
  BufferByteSource(const std::uint8_t* data, std::size_t len,
                   std::uint64_t base_offset, std::string context)
      : data_(data),
        pos_(data),
        end_(data + len),
        base_(base_offset),
        context_(std::move(context)) {}

  /// The read position as a pointer, for a decoder to hold in a local
  /// (decode_record). A byte load may alias any object, so a position
  /// kept in a member is stored and reloaded around every byte read
  /// through it; a local whose address never escapes stays in a
  /// register. It reads and rejects like the source (get_byte,
  /// need_byte, bad, with the same messages and offsets); hand it back
  /// with seek() when done.
  class Cursor {
   public:
    explicit Cursor(const BufferByteSource& src)
        : p_(src.pos_), end_(src.end_), src_(src) {}

    int get_byte() { return p_ == end_ ? -1 : *p_++; }

    std::uint8_t need_byte(const char* what) {
      if (p_ == end_) src_.truncated_at(p_, what);
      return *p_++;
    }

    [[noreturn]] void bad(const std::string& what) const {
      src_.bad_at(p_, what);
    }

   private:
    friend class BufferByteSource;
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    const BufferByteSource& src_;
  };

  int get_byte() { return pos_ == end_ ? -1 : *pos_++; }

  std::uint8_t need_byte(const char* what) {
    if (pos_ == end_) truncated_at(pos_, what);
    return *pos_++;
  }

  /// Moves the read position to where `c` stopped.
  void seek(const Cursor& c) { pos_ = c.p_; }

  std::uint64_t consumed() const { return offset_of(pos_); }
  bool exhausted() const { return pos_ == end_; }

  [[noreturn]] void bad(const std::string& what) const { bad_at(pos_, what); }

 private:
  std::uint64_t offset_of(const std::uint8_t* p) const {
    return base_ + static_cast<std::uint64_t>(p - data_);
  }
  /// bad() with the position at `p`.
  [[noreturn]] void bad_at(const std::uint8_t* p,
                           const std::string& what) const {
    throw std::invalid_argument(context_ + ", byte " +
                                std::to_string(offset_of(p)) + ": " + what);
  }
  [[noreturn]] void truncated_at(const std::uint8_t* p,
                                 const char* what) const {
    bad_at(p, std::string("truncated record (") + what + ")");
  }

  const std::uint8_t* data_;
  const std::uint8_t* pos_;
  const std::uint8_t* end_;
  std::uint64_t base_;
  std::string context_;
};

/// Strict LEB128 reader: rejects >10-byte varints, 64-bit overflow and
/// non-minimal encodings (a terminating zero payload after a
/// continuation byte, e.g. 0x80 0x00 for 0 — a padded spelling the
/// encoder never emits). Rejecting them keeps accepted streams
/// byte-canonical (see the header comment).
/// Always inlined: with the record decoder's cursor, its loop runs on
/// registers.
template <class Source>
[[gnu::always_inline]] inline std::uint64_t read_varint(Source& src,
                                                        const char* what) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < kMaxVarintBytes - 1; ++i) {
    const std::uint8_t b = src.need_byte(what);
    v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if (!(b & 0x80)) {
      if (i > 0 && b == 0) {
        src.bad(std::string(what) + ": non-minimal varint encoding");
      }
      return v;
    }
  }
  // The 10th byte may carry only bit 63, and must end the varint.
  const std::uint8_t b = src.need_byte(what);
  const std::uint64_t payload = b & 0x7F;
  if (payload > 1) src.bad(std::string(what) + ": varint overflows 64 bits");
  if (b & 0x80) src.bad(std::string(what) + ": varint longer than 10 bytes");
  if (payload == 0) {
    src.bad(std::string(what) + ": non-minimal varint encoding");
  }
  return v | payload << 63;
}

/// Decodes one record, updating the running line-delta base; nullopt at
/// a clean end of the source (end exactly between records). All
/// rejection paths throw through src.bad() with absolute byte offsets.
/// The record is read through a local BufferByteSource::Cursor, so the
/// position stays in a register for the whole record; always inlined, so
/// the framed decoder's per-request loop pays no call for it.
[[gnu::always_inline]] inline std::optional<MemRequest> decode_record(
    BufferByteSource& in, LineAddr& prev_line) {
  BufferByteSource::Cursor src(in);
  const int first = src.get_byte();
  if (first < 0) return std::nullopt;  // clean end of record stream

  const std::uint8_t flags = static_cast<std::uint8_t>(first);
  if (flags & kReservedMask) src.bad("reserved flag bits set");
  if ((flags & kTypeMask) == kReservedType) src.bad("reserved access type 3");

  MemRequest r;
  r.type = static_cast<AccessType>(flags & kTypeMask);
  r.bypass_private = (flags & kFlagBypass) != 0;

  // Valid line addresses occupy 58 bits (byte addr >> 6); a delta that
  // leaves [0, kMaxLine] cannot come from the encoder and must throw,
  // not wrap into a garbage address. The sign is a mask (all ones for a
  // negative delta), not a branch: it is as random as the access
  // pattern, so a branch on it would mispredict about every other time.
  constexpr LineAddr kMaxLine = ~Addr{0} >> kLineShift;
  const std::uint64_t delta = read_varint(src, "line delta");
  const LineAddr negative =
      0 - static_cast<LineAddr>((flags & kFlagNegDelta) != 0);
  const LineAddr room =
      (prev_line & negative) | ((kMaxLine - prev_line) & ~negative);
  if (delta > room) {
    src.bad(negative != 0 ? "line delta underflows line 0"
                          : "line delta overflows the 58-bit line space");
  }
  // prev_line - delta when negative is all ones, prev_line + delta when 0.
  const LineAddr line = prev_line + ((delta ^ negative) - negative);
  const std::uint8_t offset = src.need_byte("line offset");
  if (offset >= kLineSizeBytes) src.bad("line offset >= 64");
  r.addr = byte_of(line) | offset;

  const std::uint64_t delay = read_varint(src, "pre_delay");
  if (delay > 0xFFFFFFFFull) src.bad("pre_delay overflows 32 bits");
  r.pre_delay = static_cast<std::uint32_t>(delay);

  prev_line = line;
  in.seek(src);
  return r;
}

// -------------------------------------------------------- encode side

/// Appends the minimal LEB128 encoding of `v`.
inline void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Appends one encoded record, updating the running line-delta base.
/// The inverse of decode_record on every input (and byte-canonical:
/// this is the unique spelling the strict decoder accepts).
inline void append_record(std::vector<std::uint8_t>& out,
                          LineAddr& prev_line, const MemRequest& r) {
  const LineAddr line = line_of(r.addr);
  std::uint8_t flags = static_cast<std::uint8_t>(r.type) & kTypeMask;
  if (r.bypass_private) flags |= kFlagBypass;
  std::uint64_t delta;
  if (line >= prev_line) {
    delta = line - prev_line;
  } else {
    delta = prev_line - line;
    flags |= kFlagNegDelta;
  }
  out.push_back(flags);
  append_varint(out, delta);
  out.push_back(static_cast<std::uint8_t>(r.addr & (kLineSizeBytes - 1)));
  append_varint(out, r.pre_delay);
  prev_line = line;
}

}  // namespace trace_v2
}  // namespace pipo
