// Unit tests for the trace codecs (workload/trace_codec.h): randomized
// round-trip property over both formats (every MemRequest field
// combination, >= 1000 cases) and the malformed-input tables for the
// record decoder (workload/trace_record.h) and the framed magic — every
// rejection names the absolute byte offset.
#include "workload/trace_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/trace_frame.h"
#include "workload/trace_record.h"

namespace pipo {
namespace {

MemRequest random_request(Rng& rng) {
  MemRequest r;
  // Full 48-bit physical space, all offsets; occasional extreme values.
  switch (rng.next() % 8) {
    case 0: r.addr = 0; break;
    case 1: r.addr = (1ull << 48) - 1; break;
    default: r.addr = rng.next() & ((1ull << 48) - 1); break;
  }
  r.type = static_cast<AccessType>(rng.next() % 3);
  r.bypass_private = (rng.next() & 1) != 0;
  switch (rng.next() % 8) {
    case 0: r.pre_delay = 0; break;
    case 1: r.pre_delay = 0xFFFFFFFFu; break;
    default: r.pre_delay = static_cast<std::uint32_t>(rng.next()); break;
  }
  return r;
}

void expect_equal(const std::vector<MemRequest>& got,
                  const std::vector<MemRequest>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].addr, want[i].addr) << label << " req " << i;
    EXPECT_EQ(got[i].type, want[i].type) << label << " req " << i;
    EXPECT_EQ(got[i].pre_delay, want[i].pre_delay) << label << " req " << i;
    EXPECT_EQ(got[i].bypass_private, want[i].bypass_private)
        << label << " req " << i;
  }
}

std::vector<MemRequest> round_trip(const std::vector<MemRequest>& t,
                                   TraceFormat fmt) {
  std::stringstream ss;
  save_trace_as(ss, t, fmt);
  return load_trace_auto(ss);
}

// The randomized property of the ISSUE: >= 1000 randomized traces per
// codec, every field combination, seed in the failure message.
TEST(TraceCodec, RandomizedRoundTripProperty) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed * 2654435761u + 17);
    std::vector<MemRequest> t(1 + rng.next() % 20);
    for (auto& r : t) r = random_request(rng);
    for (TraceFormat fmt : {TraceFormat::kTextV1, TraceFormat::kFramedV3}) {
      expect_equal(round_trip(t, fmt), t,
                   std::string("seed ") + std::to_string(seed) + " " +
                       to_string(fmt));
    }
  }
}

// Directed: all 6 type x bypass combinations through the framed codec
// (the combinations v1's 'P' used to collapse).
TEST(TraceCodec, BinaryAllTypeBypassCombinations) {
  std::vector<MemRequest> t;
  for (AccessType type : {AccessType::kLoad, AccessType::kStore,
                          AccessType::kInstFetch}) {
    for (bool bypass : {false, true}) {
      MemRequest r;
      r.addr = 0x123456789Aull + (t.size() << 6) + t.size();  // offsets too
      r.type = type;
      r.bypass_private = bypass;
      r.pre_delay = static_cast<std::uint32_t>(t.size());
      t.push_back(r);
    }
  }
  expect_equal(round_trip(t, TraceFormat::kFramedV3), t, "combinations");
}

TEST(TraceCodec, BinaryNegativeAndZeroLineDeltas) {
  std::vector<MemRequest> t;
  for (Addr a : {Addr{0x100000}, Addr{0x100}, Addr{0x100},  // back + same line
                 Addr{0xFFFFFFFFFFC0}, Addr{0}}) {
    MemRequest r;
    r.addr = a;
    t.push_back(r);
  }
  expect_equal(round_trip(t, TraceFormat::kFramedV3), t, "deltas");
}

TEST(TraceCodec, EmptyTraceRoundTripsBothFormats) {
  for (TraceFormat fmt : {TraceFormat::kTextV1, TraceFormat::kFramedV3}) {
    EXPECT_TRUE(round_trip({}, fmt).empty()) << to_string(fmt);
  }
}

TEST(TraceCodec, DetectsFormatFromFirstByte) {
  std::stringstream text;
  save_trace_as(text, {MemRequest{}}, TraceFormat::kTextV1);
  EXPECT_EQ(detect_trace_format(text), TraceFormat::kTextV1);
  std::stringstream framed;
  save_trace_as(framed, {MemRequest{}}, TraceFormat::kFramedV3);
  EXPECT_EQ(detect_trace_format(framed), TraceFormat::kFramedV3);
}

TEST(TraceCodec, BinarySizeIsCompact) {
  // 1000 sequential line-stride accesses: ~4 bytes/record
  // (flags + 1-byte varint + offset + 1-byte varint).
  std::vector<MemRequest> t(1000);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i].addr = 0x10000 + (i << 6);
    t[i].pre_delay = 3;
  }
  std::stringstream ss;
  save_trace_as(ss, t, TraceFormat::kFramedV3);
  // The container's fixed overhead: one frame header (marker, three
  // 2-byte varints, crc32), the end marker, a one-entry index (count,
  // offset delta, 2-byte request count, crc32) and the 16-byte footer.
  constexpr std::size_t kOverhead =
      sizeof(kTraceMagicV3) + (1 + 3 * 2 + 4) + 1 + (1 + 1 + 2 + 4) + 16;
  // 4 bytes per steady-state record; the first record's delta from line
  // 0 takes one extra varint byte.
  EXPECT_LE(ss.str().size(), kOverhead + 4 * t.size() + 1);
}

// ---------------------------------------------------- malformed inputs

/// Runs `decode`, expecting std::invalid_argument mentioning
/// "byte <at_byte>"; returns the message for extra checks.
template <class Decode>
std::string expect_bad(const Decode& decode, const std::string& bytes,
                       std::uint64_t at_byte) {
  try {
    decode();
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("byte " + std::to_string(at_byte)),
              std::string::npos)
        << "message '" << msg << "' should name byte " << at_byte;
    return msg;
  }
  ADD_FAILURE() << "expected invalid_argument for "
                << testing::PrintToString(bytes);
  return {};
}

/// Decodes `records` as the record stream behind an 8-byte magic, so
/// offsets count from the file start.
std::string expect_bad_bytes(const std::string& records,
                             std::uint64_t at_byte) {
  return expect_bad(
      [&] {
        trace_v2::BufferByteSource src(
            reinterpret_cast<const std::uint8_t*>(records.data()),
            records.size(), /*base_offset=*/8, "records");
        LineAddr prev_line = 0;
        while (trace_v2::decode_record(src, prev_line)) {
        }
      },
      records, at_byte);
}

/// The framed decoder's constructor validates the magic.
std::string expect_bad_magic(const std::string& bytes,
                             std::uint64_t at_byte) {
  return expect_bad(
      [&] {
        std::istringstream is(bytes);
        FramedTraceDecoder dec(is);
      },
      bytes, at_byte);
}

std::vector<std::uint8_t> encode_records(const std::vector<MemRequest>& t) {
  std::vector<std::uint8_t> out;
  LineAddr prev_line = 0;
  for (const MemRequest& r : t) trace_v2::append_record(out, prev_line, r);
  return out;
}

TEST(TraceCodecMalformed, BadMagic) {
  const std::string msg = expect_bad_magic("PIPOTRC1", 8);
  EXPECT_NE(msg.find("magic"), std::string::npos);
}

// Older builds wrote flat binary v2 traces ("PIPOTRC2"); autodetection
// routes them to the framed decoder, which names their format.
TEST(TraceCodecMalformed, RetiredFlatMagicIsNamed) {
  const std::string msg =
      expect_bad_magic(std::string("PIPOTRC2") + '\x00' + '\x05', 8);
  EXPECT_NE(msg.find("\"PIPOTRC2\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("v2"), std::string::npos) << msg;
}

TEST(TraceCodecMalformed, TruncatedMagic) {
  expect_bad_magic("PIPO", 4);
}

TEST(TraceCodecMalformed, ReservedFlagBitsRejected) {
  expect_bad_bytes("\x10", 9);  // flag bit 4 set
  expect_bad_bytes("\x80", 9);
}

TEST(TraceCodecMalformed, ReservedAccessTypeRejected) {
  const std::string msg = expect_bad_bytes("\x03", 9);
  EXPECT_NE(msg.find("type"), std::string::npos);
}

TEST(TraceCodecMalformed, TruncatedAfterFlags) {
  // flags byte present, line-delta varint missing entirely.
  expect_bad_bytes(std::string(1, '\x00'), 9);
}

TEST(TraceCodecMalformed, TruncatedVarint) {
  // Continuation bit set on the last available byte.
  const std::string msg = expect_bad_bytes(std::string("\x00\xFF", 2), 10);
  EXPECT_NE(msg.find("truncated"), std::string::npos);
}

TEST(TraceCodecMalformed, TruncatedBeforeOffsetByte) {
  expect_bad_bytes(std::string("\x00\x05", 2), 10);
}

TEST(TraceCodecMalformed, TruncatedBeforePreDelay) {
  expect_bad_bytes(std::string("\x00\x05\x00", 3), 11);
}

TEST(TraceCodecMalformed, OffsetByteOutOfRange) {
  const std::string msg =
      expect_bad_bytes(std::string("\x00\x05\x40", 3), 11);
  EXPECT_NE(msg.find("offset"), std::string::npos);
}

TEST(TraceCodecMalformed, OverlongVarintRejected) {
  // 11 continuation bytes: longer than any 64-bit varint.
  std::string bytes(1, '\x00');
  for (int i = 0; i < 11; ++i) bytes += '\x81';
  expect_bad_bytes(bytes, 19);  // rejected at the 10th varint byte
}

TEST(TraceCodecMalformed, VarintOverflow64Rejected) {
  // 10 bytes whose 10th carries more than the top bit of a uint64.
  std::string bytes(1, '\x00');
  for (int i = 0; i < 9; ++i) bytes += '\x80';
  bytes += '\x02';
  const std::string msg = expect_bad_bytes(bytes, 19);
  EXPECT_NE(msg.find("64"), std::string::npos);
}

TEST(TraceCodecMalformed, NegativeDeltaUnderflowRejected) {
  // First record with the neg-delta flag and delta 5: would wrap below
  // line 0 (prev_line starts at 0).
  const std::string msg = expect_bad_bytes("\x08\x05", 10);
  EXPECT_NE(msg.find("underflow"), std::string::npos);
}

TEST(TraceCodecMalformed, PositiveDeltaOverflowRejected) {
  // delta = 2^58 from line 0: one past the 58-bit line space.
  std::string bytes(1, '\x00');
  for (int i = 0; i < 8; ++i) bytes += '\x80';
  bytes += '\x04';
  const std::string msg = expect_bad_bytes(bytes, 18);
  EXPECT_NE(msg.find("overflow"), std::string::npos);
}

// Headline bugfix repro: the decoder used to accept non-minimal LEB128
// encodings the encoder never emits (0x80 0x00 is a two-byte spelling
// of delta 0), so the same request stream had many byte spellings and
// a trace's bytes were not a function of its requests. Non-minimal
// varints are malformed input.
TEST(TraceCodecMalformed, NonMinimalVarintRejected) {
  // flags 0, line delta encoded as 0x80 0x00 (padded zero; embedded NUL
  // bytes need the explicit-length string constructor).
  const std::string msg =
      expect_bad_bytes(std::string("\x00\x80\x00", 3), 11);
  EXPECT_NE(msg.find("non-minimal"), std::string::npos) << msg;
  // pre_delay padded the same way: 5 as 0x85 0x00.
  expect_bad_bytes(std::string("\x00\x05\x00\x85\x00", 5), 13);
  // A padded-zero chain (0x80 0x80 0x00) is still one non-minimal zero.
  expect_bad_bytes(std::string("\x00\x80\x80\x00", 4), 12);
}

// The other half of the canonicality contract: the encoder's output is
// the unique minimal spelling, so encode(decode(bytes)) == bytes for
// any stream the strict decoder accepts.
TEST(TraceCodec, EncoderOutputIsCanonical) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
    std::vector<MemRequest> t(1 + rng.next() % 32);
    for (auto& r : t) r = random_request(rng);
    const std::vector<std::uint8_t> first = encode_records(t);
    trace_v2::BufferByteSource src(first.data(), first.size(), 0, "records");
    std::vector<MemRequest> decoded;
    LineAddr prev_line = 0;
    while (auto r = trace_v2::decode_record(src, prev_line)) {
      decoded.push_back(*r);
    }
    ASSERT_EQ(encode_records(decoded), first) << "seed " << seed;
  }
}

TEST(TraceCodecMalformed, PreDelayOverflow32Rejected) {
  // Valid flags/delta/offset, then pre_delay = 2^32.
  const std::string pre_delay_2_32 = "\x80\x80\x80\x80\x10";
  const std::string msg = expect_bad_bytes(
      std::string("\x00\x05\x00", 3) + pre_delay_2_32, 16);
  EXPECT_NE(msg.find("pre_delay"), std::string::npos);
}

TEST(TraceCodecMalformed, GarbageAfterValidRecordRejected) {
  // One valid record, then a garbage flags byte: trailing garbage is
  // caught at its exact offset.
  const std::vector<std::uint8_t> good = encode_records({MemRequest{}});
  ASSERT_EQ(good.size(), 4u);
  expect_bad_bytes(std::string(good.begin(), good.end()) + '\xF0', 13);
}

// A failed sink write (full disk: ostream sets badbit silently) must
// surface from finish(), not return as a successful capture.
TEST(TraceCodec, EncoderFinishThrowsOnFailedSink) {
  for (TraceFormat fmt : {TraceFormat::kTextV1, TraceFormat::kFramedV3}) {
    std::stringstream ss;
    const auto enc = make_trace_encoder(ss, fmt);
    enc->put(MemRequest{});
    ss.setstate(std::ios::badbit);
    EXPECT_THROW(enc->finish(), std::runtime_error) << to_string(fmt);
  }
}

// A stream read error is not a clean end of trace: both decoders must
// throw instead of silently truncating the replay.
TEST(TraceCodec, DecodersThrowOnStreamReadError) {
  {
    std::stringstream ss;
    save_trace_as(ss, {MemRequest{}, MemRequest{}}, TraceFormat::kTextV1);
    TextTraceDecoder dec(ss);
    ASSERT_TRUE(dec.next().has_value());
    ss.setstate(std::ios::badbit);
    EXPECT_THROW(dec.next(), std::invalid_argument);
  }
  {
    std::stringstream ss;
    save_trace_as(ss, std::vector<MemRequest>(100),
                  TraceFormat::kFramedV3);
    FramedTraceDecoder dec(ss);
    ASSERT_TRUE(dec.next().has_value());
    ss.setstate(std::ios::badbit);
    // The frame is in memory; the next read from the stream, the end
    // marker's, must report the error.
    try {
      while (dec.next()) {
      }
      ADD_FAILURE() << "a stream read error ended the trace cleanly";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("stream read error"),
                std::string::npos)
          << e.what();
    }
  }
}

// The v1 malformed-input diagnostics still carry line numbers when
// reached through the autodetecting decoder.
TEST(TraceCodecMalformed, AutodetectedTextStillNamesLines) {
  std::istringstream is("1000 L 0\n1000 Z 0\n");
  const auto dec = make_trace_decoder(is);
  ASSERT_TRUE(dec->next().has_value());
  try {
    dec->next();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace pipo
