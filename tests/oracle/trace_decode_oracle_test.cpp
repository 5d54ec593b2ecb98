// Differential oracle for the framed trace's decode path: the slice-by-8
// frame checksum and the record decoder that reads through a cursor held
// in locals (src/workload/trace_frame.cpp, src/workload/trace_record.h).
//
// The references (reference_trace_record.h) are the byte-at-a-time
// CRC-32 and the record decoder driven one get_byte()/need_byte() call
// per byte through trace_v2::BufferByteSource.
//
//  * Checksum: every length from 0 to 1024 at start offsets 0-7, so
//    every 8-byte fold runs at every alignment and every tail length
//    runs after it; and the IEEE check value crc32("123456789") ==
//    0xCBF43926.
//  * Records: random valid streams that cover every varint width a valid
//    record can take (line delta 1-9 bytes: a 58-bit delta needs at most
//    9; pre_delay 1-5 bytes), negative deltas, deltas that land exactly
//    on line 0 and on the top of the 58-bit line space, and every access
//    type x bypass pair. Each stream is decoded whole, cut at every byte
//    and hit by random single-byte mutations; crafted streams add the
//    10- and 11-byte varints no valid record holds. The production
//    decoder must return the same requests as the reference, then end
//    cleanly or throw the same message, which names the same absolute
//    byte.
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/oracle/reference_trace_record.h"
#include "workload/trace_frame.h"
#include "workload/trace_record.h"

namespace pipo {
namespace {

// ------------------------------------------------------------ checksum

TEST(TraceDecodeOracle, Crc32MatchesTheByteAtATimeReference) {
  Rng rng(0xC0C);
  std::vector<std::uint8_t> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(framed_crc32(buf.data() + start, len),
                oracle::reference_crc32(buf.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
  const std::string check = "123456789";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(framed_crc32(bytes, check.size()), 0xCBF43926u);
  EXPECT_EQ(oracle::reference_crc32(bytes, check.size()), 0xCBF43926u);
}

// ------------------------------------------------------------- records

constexpr LineAddr kMaxLine = ~Addr{0} >> kLineShift;

/// What a decoder made of a byte stream: the requests it returned, then
/// its error message (empty after a clean end).
struct Outcome {
  std::vector<MemRequest> requests;
  std::string error;
};

template <class Decode>
Outcome decode_all(const std::vector<std::uint8_t>& bytes,
                   std::uint64_t base, Decode decode) {
  Outcome out;
  trace_v2::BufferByteSource src(bytes.data(), bytes.size(), base, "records");
  LineAddr prev_line = 0;
  try {
    while (auto r = decode(src, prev_line)) out.requests.push_back(*r);
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  return out;
}

/// Decodes `bytes` with both decoders and compares; returns the outcome.
Outcome expect_alike(const std::vector<std::uint8_t>& bytes,
                     std::uint64_t base, const std::string& label) {
  const Outcome want = decode_all(bytes, base, [](auto& src, LineAddr& l) {
    return oracle::reference_decode_record(src, l);
  });
  const Outcome got = decode_all(bytes, base, [](auto& src, LineAddr& l) {
    return trace_v2::decode_record(src, l);
  });
  EXPECT_EQ(got.error, want.error) << label;
  EXPECT_EQ(got.requests.size(), want.requests.size()) << label;
  for (std::size_t i = 0;
       i < got.requests.size() && i < want.requests.size(); ++i) {
    const MemRequest& g = got.requests[i];
    const MemRequest& w = want.requests[i];
    EXPECT_TRUE(g.addr == w.addr && g.type == w.type &&
                g.pre_delay == w.pre_delay &&
                g.bypass_private == w.bypass_private)
        << label << " req " << i;
  }
  return want;
}

/// A uniform value whose minimal LEB128 spelling takes exactly `width`
/// bytes (width 1 includes 0).
std::uint64_t value_of_width(Rng& rng, unsigned width) {
  const std::uint64_t lo = width == 1 ? 0 : std::uint64_t{1} << (7 * (width - 1));
  const std::uint64_t hi =
      width >= 10 ? ~std::uint64_t{0} : (std::uint64_t{1} << (7 * width)) - 1;
  return lo + rng.below(hi - lo + 1);
}

unsigned varint_width(std::uint64_t v) {
  unsigned w = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++w;
  }
  return w;
}

/// What a set of generated streams covers.
struct RecordCoverage {
  std::array<bool, 10> delta_width{};  ///< [w]: a w-byte line delta
  std::array<bool, 6> delay_width{};   ///< [w]: a w-byte pre_delay
  std::array<bool, 6> type_bypass{};   ///< [type * 2 + bypass]
  std::uint64_t negative = 0;
  std::uint64_t to_line_zero = 0;
  std::uint64_t to_top_line = 0;
};

/// A valid record stream of `n` requests and its encoding.
std::vector<MemRequest> random_stream(Rng& rng, std::size_t n,
                                      RecordCoverage& cov) {
  std::vector<MemRequest> out;
  LineAddr line = 0;
  for (std::size_t i = 0; i < n; ++i) {
    LineAddr next = line;
    switch (rng.below(8)) {
      case 0: next = 0; break;         // delta lands on line 0
      case 1: next = kMaxLine; break;  // ... or on the top line
      default: {
        // A delta of a chosen width, away from whichever edge has room.
        const unsigned width = 1 + static_cast<unsigned>(rng.below(9));
        const std::uint64_t d = value_of_width(rng, width);
        const bool down = rng.below(2) == 0;
        if (down ? d <= line : d <= kMaxLine - line) {
          next = down ? line - d : line + d;
        } else if (d <= line) {
          next = line - d;
        } else if (d <= kMaxLine - line) {
          next = line + d;
        } else {
          next = rng.below(kMaxLine + 1);
        }
      }
    }
    const std::uint64_t delta = next >= line ? next - line : line - next;
    cov.delta_width[varint_width(delta)] = true;
    if (next < line) ++cov.negative;
    if (next == 0 && line != 0) ++cov.to_line_zero;
    if (next == kMaxLine && line != kMaxLine) ++cov.to_top_line;
    line = next;

    MemRequest r;
    r.addr = byte_of(line) | rng.below(kLineSizeBytes);
    r.type = static_cast<AccessType>(rng.below(3));
    r.bypass_private = rng.below(2) == 0;
    const unsigned delay_width = 1 + static_cast<unsigned>(rng.below(5));
    r.pre_delay = static_cast<std::uint32_t>(
        delay_width == 5 ? (std::uint64_t{1} << 28) +
                               rng.below((std::uint64_t{1} << 32) -
                                         (std::uint64_t{1} << 28))
                         : value_of_width(rng, delay_width));
    cov.delay_width[varint_width(r.pre_delay)] = true;
    cov.type_bypass[static_cast<unsigned>(r.type) * 2 + r.bypass_private] =
        true;
    out.push_back(r);
  }
  return out;
}

std::vector<std::uint8_t> encode(const std::vector<MemRequest>& t) {
  std::vector<std::uint8_t> out;
  LineAddr prev_line = 0;
  for (const MemRequest& r : t) trace_v2::append_record(out, prev_line, r);
  return out;
}

TEST(TraceDecodeOracle, RecordStreamsDecodeAlikeWholeCutAndMutated) {
  Rng rng(0xDEC0DE);
  RecordCoverage cov;
  std::uint64_t cuts = 0, cut_errors = 0, mutations = 0, mutation_errors = 0;
  for (int s = 0; s < 150; ++s) {
    const std::vector<MemRequest> t =
        random_stream(rng, 1 + rng.below(48), cov);
    const std::vector<std::uint8_t> bytes = encode(t);
    const std::uint64_t base = 8 + rng.below(1 << 20);
    const std::string label = "stream " + std::to_string(s);

    const Outcome whole = expect_alike(bytes, base, label);
    ASSERT_EQ(whole.error, "") << label;
    ASSERT_EQ(whole.requests.size(), t.size()) << label;
    if (HasFailure()) return;

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(bytes.begin(),
                                             bytes.begin() + cut);
      cut_errors += !expect_alike(prefix, base,
                                  label + " cut " + std::to_string(cut))
                         .error.empty();
      ++cuts;
    }
    for (int m = 0; m < 64; ++m) {
      std::vector<std::uint8_t> bad = bytes;
      const std::size_t at = rng.below(bad.size());
      switch (rng.below(4)) {
        case 0: bad[at] = 0x80; break;  // a continuation byte
        case 1: bad[at] = 0x00; break;
        case 2: bad[at] = 0xFF; break;
        default:
          bad[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      mutation_errors += !expect_alike(bad, base,
                                       label + " byte " + std::to_string(at) +
                                           " -> " + std::to_string(bad[at]))
                              .error.empty();
      ++mutations;
    }
    if (HasFailure()) return;
  }
  for (unsigned w = 1; w <= 9; ++w) {
    EXPECT_TRUE(cov.delta_width[w]) << w << "-byte line delta";
  }
  for (unsigned w = 1; w <= 5; ++w) {
    EXPECT_TRUE(cov.delay_width[w]) << w << "-byte pre_delay";
  }
  for (unsigned k = 0; k < cov.type_bypass.size(); ++k) {
    EXPECT_TRUE(cov.type_bypass[k]) << "type " << k / 2 << " bypass " << k % 2;
  }
  EXPECT_GT(cov.negative, 100u);
  EXPECT_GT(cov.to_line_zero, 100u);
  EXPECT_GT(cov.to_top_line, 100u);
  // Every cut inside a record throws; mutations both throw and decode.
  EXPECT_GT(cut_errors, cuts / 2);
  EXPECT_GT(mutation_errors, mutations / 4);
  EXPECT_LT(mutation_errors, mutations);
}

TEST(TraceDecodeOracle, VarintsNoValidRecordHoldsDecodeAlike) {
  const auto bytes = [](std::initializer_list<int> v) {
    std::vector<std::uint8_t> out;
    for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
    return out;
  };
  const std::vector<std::vector<std::uint8_t>> crafted = {
      // 10-byte line delta of 2^63: leaves the 58-bit line space.
      bytes({0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
             0x01, 0x00, 0x00}),
      // 10-byte line delta whose last byte overflows 64 bits.
      bytes({0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
             0x02, 0x00, 0x00}),
      // 11-byte line delta.
      bytes({0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
             0x81, 0x00, 0x00, 0x00}),
      // 10-byte pre_delay, and a padded (non-minimal) one.
      bytes({0x00, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
             0xFF, 0xFF, 0x01}),
      bytes({0x00, 0x01, 0x00, 0x85, 0x80, 0x00}),
      // Negative delta of 1 from line 0, then a record after a valid one.
      bytes({0x08, 0x01, 0x00, 0x00}),
      bytes({0x00, 0x05, 0x3F, 0x7F, 0x09, 0x05, 0x00, 0x00, 0x09, 0x01,
             0x00, 0x00}),
  };
  for (std::size_t i = 0; i < crafted.size(); ++i) {
    const Outcome o = expect_alike(crafted[i], 8, "crafted " + std::to_string(i));
    EXPECT_NE(o.error, "") << "crafted " << i;
  }
}

}  // namespace
}  // namespace pipo
