// Differential oracle for the framed trace container
// (workload/trace_frame.h), in the pattern of docs/testing.md: the text
// v1 codec — line-per-request, the seed's only trace path — is the
// reference implementation. Randomized traces must decode identically
// through framed containers at adversarial frame sizes, read whole and
// through a stream buffer that refills one byte at a time (so every
// header field, checksum, varint, payload and index field straddles a
// refill), and a teeth test proves that comparison can fail.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tests/workload/one_byte_streambuf.h"
#include "workload/trace_codec.h"
#include "workload/trace_frame.h"

namespace pipo {
namespace {

MemRequest random_request(Rng& rng) {
  MemRequest r;
  switch (rng.next() % 8) {
    case 0: r.addr = 0; break;
    case 1: r.addr = ~Addr{0}; break;  // full 64-bit corner
    case 2: r.addr = (1ull << 48) - 1; break;
    default: r.addr = rng.next() & ((1ull << 48) - 1); break;
  }
  r.type = static_cast<AccessType>(rng.next() % 3);
  r.bypass_private = (rng.next() & 1) != 0;
  r.pre_delay = (rng.next() & 7) == 0 ? 0xFFFFFFFFu
                                      : static_cast<std::uint32_t>(
                                            rng.next() & 0xFFFF);
  return r;
}

void expect_equal(const std::vector<MemRequest>& got,
                  const std::vector<MemRequest>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].addr, want[i].addr) << label << " req " << i;
    ASSERT_EQ(got[i].type, want[i].type) << label << " req " << i;
    ASSERT_EQ(got[i].pre_delay, want[i].pre_delay) << label << " req " << i;
    ASSERT_EQ(got[i].bypass_private, want[i].bypass_private)
        << label << " req " << i;
  }
}

// Framed decode must agree with the text reference on the same request
// stream, for adversarial frame sizes, read whole and a byte at a time.
TEST(TraceFrameDifferential, FramedAgreesWithTextReference) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
    std::vector<MemRequest> t(1 + rng.next() % 64);
    for (auto& r : t) r = random_request(rng);
    const std::string label = "seed " + std::to_string(seed);

    // Reference: text v1 round trip.
    std::stringstream text;
    save_trace_as(text, t, TraceFormat::kTextV1);
    const std::vector<MemRequest> reference = load_trace_auto(text);
    expect_equal(reference, t, label + " text");

    FramedTraceOptions opts;
    opts.frame_requests = 1 + rng.next() % 17;
    std::ostringstream os(std::ios::binary);
    {
      FramedTraceEncoder enc(os, opts);
      for (const MemRequest& r : t) enc.put(r);
      enc.finish();
    }
    const std::string bytes = os.str();
    std::istringstream whole(bytes, std::ios::binary);
    testbuf::OneByteStreambuf buf(bytes);
    std::istream one_byte(&buf);
    for (std::istream* is : {static_cast<std::istream*>(&whole), &one_byte}) {
      FramedTraceDecoder dec(*is);
      std::vector<MemRequest> got;
      while (auto r = dec.next()) got.push_back(*r);
      expect_equal(got, reference,
                   label + " frame_requests=" +
                       std::to_string(opts.frame_requests) +
                       (is == &whole ? " whole" : " one byte at a time"));
    }
  }
}

// Teeth: a flipped bypass bit under a recomputed checksum must be
// visible in the decode (the equality above cannot pass vacuously).
TEST(TraceFrameDifferential, ComparisonHasTeeth) {
  MemRequest r;
  r.addr = 0x1234C0;
  std::ostringstream os(std::ios::binary);
  {
    FramedTraceEncoder enc(os);
    enc.put(r);
    enc.finish();
  }
  std::string bytes = os.str();
  // magic(8), marker, request count 1, payload and raw lengths (one
  // byte each for a one-record frame), crc32 at 12..15, payload at 16.
  ASSERT_EQ(bytes[9], 1);
  const auto payload_len = static_cast<std::size_t>(bytes[10]);
  ASSERT_EQ(bytes[11], bytes[10]);
  bytes[16] ^= 0x04;  // the record's flags byte: flip bypass_private
  const std::uint32_t crc = framed_crc32(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + 16, payload_len);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  std::istringstream is(bytes, std::ios::binary);
  FramedTraceDecoder dec(is);
  const auto back = dec.next();
  ASSERT_TRUE(back.has_value());
  EXPECT_NE(back->bypass_private, r.bypass_private);
  EXPECT_EQ(back->addr, r.addr);
  EXPECT_FALSE(dec.next().has_value());
}

}  // namespace
}  // namespace pipo
