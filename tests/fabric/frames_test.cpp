// Unit tests for the fabric frame protocol (fabric/frames.h):
// round-trips for every message type, incremental decoding over a
// 1-byte-at-a-time arrival schedule, and — mirroring the binary trace
// codec's tests (tests/workload/trace_codec_test.cpp) — the
// malformed-input tables: bad magic, unsupported version, unknown type,
// oversized length prefix and mid-frame truncation, each rejected with
// the absolute stream byte offset in the message.
#include "fabric/frames.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/wire.h"

namespace pipo {
namespace {

CampaignSpec sample_spec() {
  CampaignSpec spec;
  spec.run_mixes = true;
  spec.mix_lo = 2;
  spec.mix_hi = 7;
  spec.defenses = {DefenseKind::kNone, DefenseKind::kPiPoMonitor,
                   DefenseKind::kRic};
  spec.seeds = 3;
  spec.instr = 123'456;
  spec.ws_div = 8;
  spec.inclusion = InclusionPolicy::kExclusive;
  spec.slice_hash = SliceHashKind::kIntelCas;
  spec.monitor_level = MonitorLevel::kL2;
  spec.scenarios = {{"scen_a", "/tmp/rec/scen_a"},
                    {"scen \"b\"", "/tmp/rec/scen b"}};
  spec.fuzz = {{"g0_0", "PPG1:interval=5000,ev_lines=8,ev_stride=1,"
                        "bypass_pct=100,far_delay=0,far_period=0,"
                        "key_bits=60,phase_pct=50,key_seed=0xf00d,"
                        "obs_bins=4"},
               {"g0_1", "genotype text travels as opaque bytes"}};
  spec.fuzz_perm_rounds = 73;
  return spec;
}

/// Encodes, then decodes through a FrameDecoder fed the whole buffer.
Frame round_trip(const Frame& f) {
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  auto got = dec.next();
  EXPECT_TRUE(got.has_value());
  EXPECT_FALSE(dec.mid_frame());
  EXPECT_EQ(dec.byte_offset(), bytes.size());
  return *got;
}

TEST(FabricFrames, HelloRoundTrip) {
  const HelloMsg m = decode_hello(round_trip(make_hello(HelloMsg{77})));
  EXPECT_EQ(m.worker_id, 77u);
}

TEST(FabricFrames, WelcomeRoundTripCarriesTheSpec) {
  WelcomeMsg in;
  in.worker_id = 3;
  in.spec = sample_spec();
  const WelcomeMsg m = decode_welcome(round_trip(make_welcome(in)));
  EXPECT_EQ(m.worker_id, 3u);
  EXPECT_EQ(m.spec, sample_spec());
}

TEST(FabricFrames, LeaseGrantRoundTrip) {
  const LeaseGrantMsg m = decode_lease_grant(
      round_trip(make_lease_grant(LeaseGrantMsg{901, 17, 60'000})));
  EXPECT_EQ(m.lease_id, 901u);
  EXPECT_EQ(m.config_id, 17u);
  EXPECT_EQ(m.lease_ms, 60'000u);
}

TEST(FabricFrames, ResultRoundTripPreservesJsonBytes) {
  ResultMsg in;
  in.lease_id = 5;
  in.config_id = 11;
  in.error = true;
  in.json = "{\"config\": 11, \"mix\": 1, \"error\": \"boom \\\"quoted\\\"\"}";
  const ResultMsg m = decode_result(round_trip(make_result(in)));
  EXPECT_EQ(m.lease_id, 5u);
  EXPECT_EQ(m.config_id, 11u);
  EXPECT_TRUE(m.error);
  EXPECT_EQ(m.json, in.json);
}

TEST(FabricFrames, EmptyPayloadMessagesRoundTrip) {
  EXPECT_EQ(round_trip(make_lease_request()).type, FrameType::kLeaseRequest);
  EXPECT_EQ(round_trip(make_heartbeat()).type, FrameType::kHeartbeat);
  EXPECT_EQ(round_trip(make_shutdown()).type, FrameType::kShutdown);
}

// The decoder must not care how bytes are chunked: feed a whole
// conversation one byte at a time and get the same frames.
TEST(FabricFrames, OneByteAtATimeArrival) {
  std::vector<std::uint8_t> stream;
  WelcomeMsg wm;
  wm.worker_id = 1;
  wm.spec = sample_spec();
  for (const Frame& f :
       {make_hello(HelloMsg{0}), make_welcome(wm), make_lease_request(),
        make_lease_grant(LeaseGrantMsg{1, 0, 100}), make_heartbeat(),
        make_no_work(NoWorkMsg{20}), make_shutdown()}) {
    const auto bytes = encode_frame(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameDecoder dec;
  std::vector<Frame> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    dec.feed(&stream[i], 1);
    while (auto f = dec.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 7u);
  EXPECT_EQ(got[0].type, FrameType::kHello);
  EXPECT_EQ(got[1].type, FrameType::kWelcome);
  EXPECT_EQ(decode_welcome(got[1]).spec, sample_spec());
  EXPECT_EQ(got[2].type, FrameType::kLeaseRequest);
  EXPECT_EQ(decode_lease_grant(got[3]).lease_id, 1u);
  EXPECT_EQ(got[4].type, FrameType::kHeartbeat);
  EXPECT_EQ(decode_no_work(got[5]).retry_ms, 20u);
  EXPECT_EQ(got[6].type, FrameType::kShutdown);
  EXPECT_FALSE(dec.mid_frame());
  EXPECT_EQ(dec.byte_offset(), stream.size());
}

// ------------------------------------------------- malformed-input table

/// Feeds `bytes` and expects the decoder to reject them, naming
/// `at_byte` (absolute stream offset) and containing `needle`.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     std::uint64_t at_byte, const std::string& needle) {
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  try {
    while (dec.next()) {
    }
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("byte " + std::to_string(at_byte)), std::string::npos)
        << "message '" << msg << "' should name byte " << at_byte;
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "message '" << msg << "' should mention '" << needle << "'";
    return;
  }
  ADD_FAILURE() << "expected invalid_argument at byte " << at_byte;
}

TEST(FabricFramesMalformed, BadMagicAtTheFirstWrongByte) {
  auto bytes = encode_frame(make_heartbeat());
  bytes[0] = 'X';
  expect_rejected(bytes, 0, "bad magic");

  bytes = encode_frame(make_heartbeat());
  bytes[2] = 'x';  // "PFxB"
  expect_rejected(bytes, 2, "bad magic");
}

// A wrong magic must be rejected even before a full header arrives —
// a text client on the port must not stall the decoder forever.
TEST(FabricFramesMalformed, BadMagicDetectedBelowHeaderSize) {
  const std::vector<std::uint8_t> bytes = {'G', 'E', 'T'};
  expect_rejected(bytes, 0, "bad magic");
  const std::vector<std::uint8_t> close_call = {'P', 'F', 'A', 'X'};
  expect_rejected(close_call, 3, "bad magic");
}

TEST(FabricFramesMalformed, UnsupportedVersionAtByte4) {
  auto bytes = encode_frame(make_heartbeat());
  bytes[4] = kFabricVersion + 1;
  expect_rejected(bytes, 4, "unsupported version");
  // Older peers are refused as well: their spec layouts differ (v4
  // still carried two intra-simulation sharding varints, v5 a trailing
  // trace-decode flag byte), so decoding one would misread the spec.
  for (const std::uint8_t old_version : {4, 5}) {
    bytes[4] = old_version;
    expect_rejected(bytes, 4, "unsupported version");
  }
}

TEST(FabricFramesMalformed, UnknownFrameTypeAtByte5) {
  auto bytes = encode_frame(make_heartbeat());
  bytes[5] = 0;
  expect_rejected(bytes, 5, "unknown frame type");
  bytes[5] = 200;
  expect_rejected(bytes, 5, "unknown frame type");
}

TEST(FabricFramesMalformed, OversizedLengthPrefixAtByte6) {
  auto bytes = encode_frame(make_heartbeat());
  // 2 MiB length — over the 1 MiB ceiling; must be rejected from the
  // header alone, before any payload is buffered.
  const std::uint32_t huge = 2u << 20;
  for (int i = 0; i < 4; ++i) {
    bytes[6 + static_cast<std::size_t>(i)] = (huge >> (8 * i)) & 0xFF;
  }
  expect_rejected(bytes, 6, "exceeds");
}

TEST(FabricFramesMalformed, OffsetsAreAbsoluteAcrossFrames) {
  // A good frame followed by garbage: the offset names the stream
  // position, not the position within the bad frame.
  const auto good = encode_frame(make_lease_grant(LeaseGrantMsg{1, 2, 3}));
  auto bad = encode_frame(make_heartbeat());
  bad[4] = 9;
  std::vector<std::uint8_t> stream = good;
  stream.insert(stream.end(), bad.begin(), bad.end());
  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  EXPECT_TRUE(dec.next().has_value());
  try {
    dec.next();
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string want = "byte " + std::to_string(good.size() + 4);
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(FabricFramesMalformed, MidFrameEofIsDistinguishable) {
  const auto bytes = encode_frame(make_result(
      ResultMsg{1, 2, false, "{\"mix\": 1}"}));
  FrameDecoder dec;
  // Header only: a frame is pending, so an EOF here is a truncation.
  dec.feed(bytes.data(), kFrameHeaderBytes);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.mid_frame());
  // The rest arrives: frame completes, boundary is clean again.
  dec.feed(bytes.data() + kFrameHeaderBytes,
           bytes.size() - kFrameHeaderBytes);
  EXPECT_TRUE(dec.next().has_value());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FabricFramesMalformed, OversizedEncodePayloadRejected) {
  Frame f;
  f.type = FrameType::kResult;
  f.payload.assign(kMaxFramePayload + 1, 0);
  EXPECT_THROW(encode_frame(f), std::invalid_argument);
}

// ------------------------------------------------ payload-level rejects

TEST(FabricFramesMalformed, WrongFrameTypeForDecoder) {
  EXPECT_THROW(decode_hello(make_heartbeat()), std::invalid_argument);
  EXPECT_THROW(decode_result(make_hello(HelloMsg{1})),
               std::invalid_argument);
}

TEST(FabricFramesMalformed, TrailingPayloadBytesRejected) {
  Frame f = make_hello(HelloMsg{1});
  f.payload.push_back(0);
  try {
    decode_hello(f);
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trailing bytes"), std::string::npos) << msg;
    // The one-byte worker id is followed by the first trailing byte.
    EXPECT_TRUE(msg.ends_with("at payload byte 1")) << msg;
  }
}

TEST(FabricFramesMalformed, TruncatedPayloadNamesFieldAndOffset) {
  Frame f = make_lease_grant(LeaseGrantMsg{300, 2, 3});
  f.payload.resize(1);  // cuts lease_id's varint in half
  try {
    decode_lease_grant(f);
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("LeaseGrant.lease_id"), std::string::npos) << msg;
    EXPECT_NE(msg.find("payload byte"), std::string::npos) << msg;
  }
}

TEST(FabricFramesMalformed, VarintOverflowRejected) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  Frame f;
  f.type = FrameType::kHello;
  f.payload.assign(11, 0xFF);
  EXPECT_THROW(decode_hello(f), std::invalid_argument);
}

TEST(FabricFrames, CampaignSpecWireRoundTripIsExact) {
  WireWriter w;
  encode_campaign_spec(w, sample_spec());
  WireReader r(w.bytes());
  EXPECT_EQ(decode_campaign_spec(r), sample_spec());
  EXPECT_TRUE(r.done());
}

// A fuzz-only campaign (no mixes, no trace scenarios — the fuzzer's
// per-generation shape) must survive the wire unchanged, fuzz cells and
// fuzz_perm_rounds included. kFabricVersion bumped to 3 for exactly
// this: a v2 worker would silently run zero of the fuzz configs.
TEST(FabricFrames, FuzzOnlyCampaignSpecRoundTrips) {
  CampaignSpec spec;
  spec.run_mixes = false;
  spec.defenses = {DefenseKind::kNone, DefenseKind::kPiPoMonitor};
  spec.fuzz = {{"gen3_cand11", "PPG1:whatever=the,driver=rendered"}};
  spec.fuzz_perm_rounds = 199;
  WireWriter w;
  encode_campaign_spec(w, spec);
  WireReader r(w.bytes());
  const CampaignSpec back = decode_campaign_spec(r);
  EXPECT_EQ(back, spec);
  EXPECT_TRUE(r.done());
  ASSERT_EQ(back.fuzz.size(), 1u);
  EXPECT_EQ(back.fuzz[0].name, "gen3_cand11");
  EXPECT_EQ(back.fuzz_perm_rounds, 199u);
}

TEST(FabricFramesMalformed, CampaignSpecBadDefenseKind) {
  WireWriter w;
  CampaignSpec spec = sample_spec();
  encode_campaign_spec(w, spec);
  auto bytes = w.take();
  // The first defense byte follows run_mixes(1) + mix_lo(1) + mix_hi(1)
  // + defense count(1).
  bytes[4] = 250;
  WireReader r(bytes);
  try {
    decode_campaign_spec(r);
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spec.defense"), std::string::npos) << msg;
    EXPECT_TRUE(msg.ends_with("at payload byte 4")) << msg;
  }
}

// mix_lo, mix_hi, seeds and fuzz_perm_rounds are 32-bit fields sent as
// 64-bit varints. A value above 32 bits must be rejected by name and by
// the payload byte the field starts at: if it were truncated,
// mix_lo = 2^32 + 3 would decode as mix 3 and validate.
TEST(FabricFramesMalformed, CampaignSpecOutOfRangeFieldsRejected) {
  CampaignSpec spec;
  spec.mix_lo = 3;
  spec.mix_hi = 4;
  spec.defenses = {DefenseKind::kNone};
  spec.seeds = 2;
  spec.fuzz = {{"g0_0", "PPG1:x"}};
  spec.fuzz_perm_rounds = 9;
  WireWriter w;
  encode_campaign_spec(w, spec);
  const std::vector<std::uint8_t> valid = w.take();
  // Every field below is one varint byte: run_mixes, mix_lo, mix_hi,
  // the defense count and its one defense byte, then seeds; the
  // permutation rounds come last.
  const struct {
    std::size_t offset;
    const char* field;
  } fields[] = {{1, "spec.mix_lo"},
                {2, "spec.mix_hi"},
                {5, "spec.seeds"},
                {valid.size() - 1, "spec.fuzz_perm_rounds"}};
  // Replaces the one-byte varint at `offset` by `value`'s encoding.
  const auto with = [&](std::size_t offset, std::uint64_t value) {
    WireWriter v;
    v.varint(value);
    std::vector<std::uint8_t> out(valid.begin(), valid.begin() + offset);
    out.insert(out.end(), v.bytes().begin(), v.bytes().end());
    out.insert(out.end(), valid.begin() + offset + 1, valid.end());
    return out;
  };
  for (const auto& f : fields) {
    ASSERT_LT(valid[f.offset], 0x80) << f.field;
    std::string at = "at payload byte ";
    at += std::to_string(f.offset);
    {
      // The largest 32-bit value still decodes.
      const std::vector<std::uint8_t> bytes = with(f.offset, 0xFFFF'FFFF);
      WireReader r(bytes);
      EXPECT_NO_THROW(decode_campaign_spec(r)) << f.field;
    }
    const std::uint64_t past = std::uint64_t{1} << 32;
    for (std::uint64_t v : {past, past + 3, ~std::uint64_t{0}}) {
      const std::vector<std::uint8_t> bytes = with(f.offset, v);
      WireReader r(bytes);
      try {
        decode_campaign_spec(r);
        ADD_FAILURE() << f.field << " = " << v << " decoded";
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(f.field), std::string::npos) << msg;
        EXPECT_TRUE(msg.ends_with(at)) << msg;
      }
    }
  }
}

}  // namespace
}  // namespace pipo
