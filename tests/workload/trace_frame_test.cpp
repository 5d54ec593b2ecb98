// Unit tests for the framed trace container (workload/trace_frame.h):
// round-trip across frame sizes, format detection, decoding through a
// one-byte stream buffer, the layout pinned byte for byte, and the
// malformed-container reject tables — corrupt payloads, tampered
// headers, broken indexes and truncated footers must all throw, never
// replay silently.
#include "workload/trace_frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tests/workload/one_byte_streambuf.h"
#include "workload/trace_codec.h"

namespace pipo {
namespace {

MemRequest random_request(Rng& rng) {
  MemRequest r;
  switch (rng.next() % 8) {
    case 0: r.addr = 0; break;
    case 1: r.addr = (1ull << 48) - 1; break;
    default: r.addr = rng.next() & ((1ull << 48) - 1); break;
  }
  r.type = static_cast<AccessType>(rng.next() % 3);
  r.bypass_private = (rng.next() & 1) != 0;
  r.pre_delay = static_cast<std::uint32_t>(rng.next() % 1000);
  return r;
}

std::vector<MemRequest> random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed * 2654435761u + 99);
  std::vector<MemRequest> t(n);
  for (auto& r : t) r = random_request(rng);
  return t;
}

std::string encode_framed(const std::vector<MemRequest>& t,
                          FramedTraceOptions opts = {}) {
  std::ostringstream os(std::ios::binary);
  FramedTraceEncoder enc(os, opts);
  for (const MemRequest& r : t) enc.put(r);
  enc.finish();
  return os.str();
}

std::vector<MemRequest> decode_all(std::istream& is) {
  FramedTraceDecoder dec(is);
  std::vector<MemRequest> out;
  while (auto r = dec.next()) out.push_back(*r);
  return out;
}

std::vector<MemRequest> decode_framed(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return decode_all(is);
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

/// Expects decoding `bytes` to throw std::invalid_argument whose
/// message contains `needle`.
void expect_reject(const std::string& bytes, const std::string& needle,
                   const std::string& label) {
  try {
    decode_framed(bytes);
    FAIL() << label << ": malformed container decoded without error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << label << ": message was '" << e.what() << "'";
  }
}

TEST(TraceFrame, RoundTripAcrossFrameSizes) {
  for (std::size_t frame_requests : {std::size_t{1}, std::size_t{3},
                                     std::size_t{16}, std::size_t{1000}}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto t = random_trace(seed, 1 + seed * 7 % 60);
      FramedTraceOptions opts;
      opts.frame_requests = frame_requests;
      const std::string bytes = encode_framed(t, opts);
      expect_equal(decode_framed(bytes), t,
                   "frame_requests=" + std::to_string(frame_requests) +
                       " seed=" + std::to_string(seed));
    }
  }
}

TEST(TraceFrame, DetectedAndLoadableViaAutoFactories) {
  const auto t = random_trace(1, 25);
  FramedTraceOptions opts;
  opts.frame_requests = 8;
  const std::string bytes = encode_framed(t, opts);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_EQ(detect_trace_format(is), TraceFormat::kFramedV3);
  // The peek must not consume anything.
  expect_equal(load_trace_auto(is), t, "load_trace_auto");
}

TEST(TraceFrame, EmptyContainerDecodesToNothing) {
  const std::string bytes = encode_framed({});
  EXPECT_TRUE(decode_framed(bytes).empty());
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_EQ(detect_trace_format(is), TraceFormat::kFramedV3);
}

// The decoder reads through its stream's own buffer: one that refills a
// byte at a time straddles every header varint, checksum, payload and
// index boundary, and must decode the same stream.
TEST(TraceFrame, OneByteStreamBufferInvariance) {
  FramedTraceOptions opts;
  opts.frame_requests = 5;
  const auto t = random_trace(7, 83);
  testbuf::OneByteStreambuf buf(encode_framed(t, opts));
  std::istream is(&buf);
  expect_equal(decode_all(is), t, "1-byte stream buffer");
}

// Same requests, same options -> byte-identical container (the encoder
// inherits record-level canonicality and adds no nondeterminism).
TEST(TraceFrame, EncoderOutputIsDeterministic) {
  FramedTraceOptions opts;
  opts.frame_requests = 11;
  const auto t = random_trace(3, 57);
  const std::string a = encode_framed(t, opts);
  const std::string b = encode_framed(decode_framed(a), opts);
  EXPECT_EQ(a, b);
}

// The v3 layout byte for byte: a fixed request list must encode to
// exactly the container an earlier build wrote for it, and that
// container must decode back to the list, so traces captured before a
// codec change still replay after it. The list spans three frames of
// three requests (the last one partial), all three access types with
// and without bypass_private, negative line deltas and multi-byte
// pre_delay varints.
TEST(TraceFrame, V3LayoutIsPinnedByteForByte) {
  const auto req = [](Addr addr, AccessType type, bool bypass,
                      std::uint32_t pre_delay) {
    MemRequest r;
    r.addr = addr;
    r.type = type;
    r.bypass_private = bypass;
    r.pre_delay = pre_delay;
    return r;
  };
  const std::vector<MemRequest> t = {
      req(0x12345, AccessType::kLoad, false, 3),
      req(0x12380, AccessType::kStore, true, 0),
      req(0x11f07, AccessType::kInstFetch, false, 200),
      req(0x40, AccessType::kLoad, true, 1),
      req(0x7fffc0, AccessType::kStore, false, 128),
      req(0x7f0011, AccessType::kInstFetch, true, 2),
      req(0xfffffffff000, AccessType::kLoad, false, 70000),
      req(0x3f, AccessType::kStore, true, 0),
  };
  const std::uint8_t want[] = {
      // magic "PIPOTRC3"
      0x50, 0x49, 0x50, 0x4f, 0x54, 0x52, 0x43, 0x33,
      // byte 8, frame 0: marker, 3 requests, 14 payload and raw bytes,
      // crc32, then the records (a negative delta and pre_delay 200)
      0x01, 0x03, 0x0e, 0x0e, 0x4f, 0xa8, 0xc2, 0x76,
      0x00, 0x8d, 0x09, 0x05, 0x03,
      0x05, 0x01, 0x00, 0x00,
      0x0a, 0x12, 0x07, 0xc8, 0x01,
      // byte 30, frame 1: the delta base restarts at line 0
      0x01, 0x03, 0x10, 0x10, 0x19, 0x6a, 0x36, 0x03,
      0x04, 0x01, 0x00, 0x01,
      0x01, 0xfe, 0xff, 0x07, 0x00, 0x80, 0x01,
      0x0e, 0xff, 0x07, 0x11, 0x02,
      // byte 54, frame 2: two requests
      0x01, 0x02, 0x14, 0x14, 0xa3, 0x50, 0xad, 0xf6,
      0x00, 0xc0, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00, 0xf0, 0xa2, 0x04,
      0x0d, 0xc0, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x3f, 0x00,
      // byte 82: end marker; index of 3 frames (offset delta, requests)
      0x00, 0x03, 0x08, 0x03, 0x16, 0x03, 0x18, 0x02,
      // index crc32; footer: end-marker offset 82, magic "PIPOIDX1"
      0x31, 0x72, 0x56, 0x1c,
      0x52, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x50, 0x49, 0x50, 0x4f, 0x49, 0x44, 0x58, 0x31,
  };
  const std::string pinned(reinterpret_cast<const char*>(want), sizeof want);
  FramedTraceOptions opts;
  opts.frame_requests = 3;
  EXPECT_EQ(encode_framed(t, opts), pinned);
  expect_equal(decode_framed(pinned), t, "pinned container");
}

TEST(TraceFrame, PutAfterFinishThrows) {
  std::ostringstream os(std::ios::binary);
  FramedTraceEncoder enc(os);
  enc.put(MemRequest{});
  enc.finish();
  EXPECT_THROW(enc.put(MemRequest{}), std::logic_error);
}

// ---------------------------------------------------------- reject table

std::string sample_container(FramedTraceOptions opts = {},
                             std::size_t n = 40, std::uint64_t seed = 5) {
  return encode_framed(random_trace(seed, n), opts);
}

std::uint64_t footer_end_offset(const std::string& bytes) {
  std::uint64_t off = 0;
  for (int i = 0; i < 8; ++i) {
    off |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[bytes.size() - 16 + i]))
           << (8 * i);
  }
  return off;
}

TEST(TraceFrameReject, CorruptPayloadFailsItsChecksum) {
  FramedTraceOptions opts;
  opts.frame_requests = 10;
  std::string bytes = sample_container(opts);
  // Last payload byte of the last frame sits right before the end
  // marker.
  const std::uint64_t end_off = footer_end_offset(bytes);
  bytes[end_off - 1] = static_cast<char>(bytes[end_off - 1] ^ 0x40);
  expect_reject(bytes, "frame checksum mismatch", "payload flip");
}

TEST(TraceFrameReject, UnknownFrameMarker) {
  std::string bytes = sample_container();
  bytes[8] = '\x07';  // first frame's marker byte
  expect_reject(bytes, "unknown frame marker", "marker 0x07");
}

TEST(TraceFrameReject, ZstdFrameWithoutZstdOrCorrupt) {
  // Flip a raw frame's marker to 0x02, the retired zstd frame: the
  // decoder must name it at the marker's byte.
  std::string bytes = sample_container();
  bytes[8] = '\x02';
  expect_reject(bytes,
                "byte 8: frame marker 0x02 is the retired zstd-compressed "
                "frame",
                "marker flipped to zstd");
}

TEST(TraceFrameReject, FrameRequestCountZero) {
  std::string bytes(kTraceMagicV3, sizeof kTraceMagicV3);
  bytes += '\x01';  // raw frame
  bytes += '\x00';  // request_count = 0
  expect_reject(bytes, "frame request count is zero", "zero-count frame");
}

TEST(TraceFrameReject, FrameRecordCountDisagreesWithHeader) {
  // One frame of 4 requests with fat records (large deltas) so the
  // request-count capacity guard does not fire first; the header's
  // count varint is the byte right after the frame marker.
  std::vector<MemRequest> t;
  for (int i = 0; i < 4; ++i) {
    MemRequest r;
    r.addr = (static_cast<Addr>(i + 1) << 40) + 7;
    t.push_back(r);
  }
  const std::string good = encode_framed(t);
  ASSERT_EQ(good[9], 4);

  std::string fewer = good;
  fewer[9] = 3;  // payload now holds one record too many
  expect_reject(fewer, "more records than its request count", "count 3");

  std::string more = good;
  more[9] = 5;  // payload ends one record short
  expect_reject(more, "short of its request count", "count 5");
}

TEST(TraceFrameReject, TruncationAnywhereInTheTailThrows) {
  const std::string bytes = sample_container();
  // Chopping off any suffix — footer, index, end marker or payload
  // bytes — must throw; a truncated container never decodes cleanly.
  for (std::size_t cut = 1; cut <= 40 && cut < bytes.size(); ++cut) {
    const std::string truncated = bytes.substr(0, bytes.size() - cut);
    EXPECT_THROW(decode_framed(truncated), std::invalid_argument)
        << "cut=" << cut;
  }
}

TEST(TraceFrameReject, CorruptIndexFailsItsChecksum) {
  std::string bytes = sample_container();
  const std::uint64_t end_off = footer_end_offset(bytes);
  // First index byte (frame_count varint) sits right after the marker.
  bytes[end_off + 1] = static_cast<char>(bytes[end_off + 1] ^ 0x01);
  EXPECT_THROW(decode_framed(bytes), std::invalid_argument);
}

TEST(TraceFrameReject, FooterOffsetMismatch) {
  std::string bytes = sample_container();
  bytes[bytes.size() - 16] =
      static_cast<char>(bytes[bytes.size() - 16] ^ 0x01);
  expect_reject(bytes, "end-marker offset", "footer offset flip");
}

TEST(TraceFrameReject, TrailingBytesAfterFooter) {
  std::string bytes = sample_container();
  bytes += '\x00';
  expect_reject(bytes, "trailing bytes after the footer", "appended byte");
}

// A stale index — the file re-encoded with different framing but the
// old index left in place — must be caught by the streaming decoder's
// end-of-stream cross-check (splice a 2-frame body with a 1-frame
// body's index) rather than replaying silently.
TEST(TraceFrameReject, IndexDisagreeingWithFramesThrows) {
  const auto t = random_trace(21, 20);
  FramedTraceOptions two;
  two.frame_requests = 10;
  const std::string body2 = encode_framed(t, two);   // 2 frames
  const std::string body1 = encode_framed(t);        // 1 frame (default big)
  const std::uint64_t end2 = footer_end_offset(body2);
  const std::uint64_t end1 = footer_end_offset(body1);
  // 2-frame body + 1-frame tail (end marker, index, footer), with the
  // footer offset patched to point at the spliced end marker so the
  // failure is the index cross-check, not the offset check.
  std::string spliced = body2.substr(0, end2) + body1.substr(end1);
  for (int i = 0; i < 8; ++i) {
    spliced[spliced.size() - 16 + i] =
        static_cast<char>((end2 >> (8 * i)) & 0xFF);
  }
  expect_reject(spliced, "seek index", "spliced index");
}

// ---------------------------------------------------- damaged index

/// Twelve 4-byte records in frames of three: every frame is 20 bytes,
/// so every index field is one byte: [count 4] [offset 8] [requests 3]
/// and three times [delta 20] [requests 3].
std::string small_index_container() {
  std::vector<MemRequest> t(12);
  for (std::size_t i = 0; i < t.size(); ++i) t[i].addr = i << 6;
  FramedTraceOptions opts;
  opts.frame_requests = 3;
  return encode_framed(t, opts);
}

/// Recomputes the index checksum (the 4 bytes before the footer) after
/// a test edited index bytes in place.
void reseal_index(std::string& bytes) {
  const std::size_t begin = footer_end_offset(bytes) + 1;
  const std::size_t crc_at = bytes.size() - 16 - 4;
  const std::uint32_t crc = framed_crc32(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + begin,
      crc_at - begin);
  for (int i = 0; i < 4; ++i) {
    bytes[crc_at + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

/// What `read` threw; empty if it did not throw.
template <class Read>
std::string rejection(const Read& read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(TraceFrameReject, DamagedIndexIsRejected) {
  const std::string good = small_index_container();
  const std::size_t idx = footer_end_offset(good) + 1;
  ASSERT_EQ(good.substr(idx, 9),
            std::string("\x04\x08\x03\x14\x03\x14\x03\x14\x03", 9));
  const std::size_t crc_at = good.size() - 20;
  struct Damage {
    const char* label;
    std::size_t at;
    char value;
    bool reseal;  ///< recompute the checksum over the edited index
    const char* needle;
    std::size_t byte;  ///< named in the message: where the parser stopped
  };
  const Damage index_damage[] = {
      {"checksum flip", crc_at, static_cast<char>(good[crc_at] ^ 0x01),
       false, "index checksum mismatch", crc_at + 4},
      {"zero request count", idx + 4, 0, true, "index request count is zero",
       idx + 5},
      {"offset inside the magic", idx + 1, 7, true,
       "index frame offset out of range", idx + 3},
      {"offset past the end marker", idx + 7, 0x7F, true,
       "index frame offset out of range", idx + 9},
      {"repeated offset", idx + 5, 0, true,
       "index frame offset out of range", idx + 7},
  };
  for (const Damage& d : index_damage) {
    std::string bytes = good;
    bytes[d.at] = d.value;
    if (d.reseal) reseal_index(bytes);
    const std::string streaming = rejection([&] { decode_framed(bytes); });
    EXPECT_NE(streaming.find(d.needle), std::string::npos)
        << d.label << ": message was '" << streaming << "'";
    EXPECT_NE(streaming.find("byte " + std::to_string(d.byte) + ": "),
              std::string::npos)
        << d.label << ": message was '" << streaming << "'";
  }

  // Damage to the footer or the length must be rejected too.
  std::string foot_offset = good;
  foot_offset[good.size() - 16] ^= 0x01;
  std::string foot_magic = good;
  foot_magic[good.size() - 1] ^= 0x01;
  const std::pair<const char*, std::string> other_damage[] = {
      {"footer offset", foot_offset},
      {"footer magic", foot_magic},
      {"cut by a byte", good.substr(0, good.size() - 1)},
      {"a byte appended", good + '\0'},
  };
  for (const auto& [label, bytes] : other_damage) {
    EXPECT_NE(rejection([&] { decode_framed(bytes); }), "") << label;
  }
}

// The streaming decoder reads at most what an index of the frames it
// decoded can take past the end marker: junk after the footer is
// rejected without being read to its end.
TEST(TraceFrameReject, JunkAfterTheFooterIsNotReadInFull) {
  const std::string good = small_index_container();  // 4 frames
  const std::uint64_t end_off = footer_end_offset(good);
  std::istringstream is(good + std::string(1 << 20, '\x5A'),
                        std::ios::binary);
  FramedTraceDecoder dec(is);
  const std::string msg = rejection([&] {
    while (dec.next()) {
    }
  });
  EXPECT_NE(msg.find("trailing bytes after the footer"), std::string::npos)
      << "message was '" << msg << "'";
  // From the end marker on: the marker, the frame-count varint, two
  // varints per frame, the checksum and the footer.
  constexpr std::uint64_t kBound = 1 + 10 + 20 * 4 + 20;
  const std::streamoff pos = is.tellg();
  ASSERT_GE(pos, 0);
  EXPECT_LE(static_cast<std::uint64_t>(pos), end_off + 1 + kBound);
}

}  // namespace
}  // namespace pipo
