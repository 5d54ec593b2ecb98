// Reference record decoder and checksum for the trace decode oracle.
//
// reference_crc32 is the frame checksum as a byte-at-a-time CRC-32
// (IEEE 802.3, reflected, poly 0xEDB88320) over one 256-entry table,
// and reference_decode_record is the record decoder as it read through
// a byte source's get_byte() and need_byte(), one call per byte, with
// its own strict varint reader. They are the specification:
// trace_decode_oracle_test.cpp asserts that the production slice-by-8
// framed_crc32 (src/workload/trace_frame.cpp) returns the same value on
// every input, and that trace_v2::decode_record, which reads through a
// cursor held in locals (src/workload/trace_record.h), returns the same
// requests or throws the same message naming the same byte. Keep them a
// byte at a time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"
#include "sim/workload_if.h"

namespace pipo::oracle {

inline std::uint32_t reference_crc32(const std::uint8_t* data,
                                     std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

template <class Source>
std::uint64_t reference_read_varint(Source& src, const char* what) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 10; ++i) {
    const std::uint8_t b = src.need_byte(what);
    const std::uint64_t payload = b & 0x7F;
    if (i == 9 && payload > 1) {
      src.bad(std::string(what) + ": varint overflows 64 bits");
    }
    v |= payload << (7 * i);
    if (!(b & 0x80)) {
      if (i > 0 && payload == 0) {
        src.bad(std::string(what) + ": non-minimal varint encoding");
      }
      return v;
    }
  }
  src.bad(std::string(what) + ": varint longer than 10 bytes");
}

template <class Source>
std::optional<MemRequest> reference_decode_record(Source& src,
                                                  LineAddr& prev_line) {
  const int first = src.get_byte();
  if (first < 0) return std::nullopt;  // clean end of record stream

  const std::uint8_t flags = static_cast<std::uint8_t>(first);
  if (flags & 0xF0) src.bad("reserved flag bits set");
  if ((flags & 0x03) == 3) src.bad("reserved access type 3");

  MemRequest r;
  r.type = static_cast<AccessType>(flags & 0x03);
  r.bypass_private = (flags & 0x04) != 0;

  constexpr LineAddr kMaxLine = ~Addr{0} >> kLineShift;
  const std::uint64_t delta = reference_read_varint(src, "line delta");
  LineAddr line;
  if (flags & 0x08) {
    if (delta > prev_line) src.bad("line delta underflows line 0");
    line = prev_line - delta;
  } else {
    if (delta > kMaxLine - prev_line) {
      src.bad("line delta overflows the 58-bit line space");
    }
    line = prev_line + delta;
  }
  const std::uint8_t offset = src.need_byte("line offset");
  if (offset >= kLineSizeBytes) src.bad("line offset >= 64");
  r.addr = byte_of(line) | offset;

  const std::uint64_t delay = reference_read_varint(src, "pre_delay");
  if (delay > 0xFFFFFFFFull) src.bad("pre_delay overflows 32 bits");
  r.pre_delay = static_cast<std::uint32_t>(delay);

  prev_line = line;
  return r;
}

}  // namespace pipo::oracle
