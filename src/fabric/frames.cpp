#include "fabric/frames.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace pipo {

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "Hello";
    case FrameType::kWelcome: return "Welcome";
    case FrameType::kLeaseRequest: return "LeaseRequest";
    case FrameType::kLeaseGrant: return "LeaseGrant";
    case FrameType::kNoWork: return "NoWork";
    case FrameType::kResult: return "Result";
    case FrameType::kHeartbeat: return "Heartbeat";
    case FrameType::kShutdown: return "Shutdown";
  }
  return "?";
}

namespace {

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kShutdown);
}

[[noreturn]] void bad_stream(std::uint64_t offset, const std::string& why) {
  throw std::invalid_argument("fabric frame: " + why + " at byte " +
                              std::to_string(offset));
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  if (f.payload.size() > kMaxFramePayload) {
    throw std::invalid_argument(
        "fabric frame: payload of " + std::to_string(f.payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte limit");
  }
  // Sized once and written by index: gcc 12 misreads an insert of the
  // 4-byte magic into a freshly reserved vector as an out-of-bounds
  // write (-Wstringop-overflow / -Warray-bounds).
  std::vector<std::uint8_t> out(kFrameHeaderBytes + f.payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(kFabricMagic[i]);
  }
  out[4] = kFabricVersion;
  out[5] = static_cast<std::uint8_t>(f.type);
  const auto len = static_cast<std::uint32_t>(f.payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    out[6 + i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF);
  }
  std::copy(f.payload.begin(), f.payload.end(),
            out.begin() + kFrameHeaderBytes);
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Drop the consumed prefix before it can grow without bound on a
  // long-lived connection.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (1u << 16))) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) {
    // Bad magic is provable from the very first wrong byte — report it
    // now rather than stalling forever on a stream that can never
    // yield a frame (e.g. someone pointed a text client at the port).
    for (std::size_t i = 0; i < avail && i < 4; ++i) {
      if (buf_[pos_ + i] != static_cast<std::uint8_t>(kFabricMagic[i])) {
        bad_stream(consumed_ + i, "bad magic (expected \"PFAB\")");
      }
    }
    return std::nullopt;
  }
  const std::uint8_t* h = buf_.data() + pos_;
  if (std::memcmp(h, kFabricMagic, 4) != 0) {
    std::size_t i = 0;
    while (h[i] == static_cast<std::uint8_t>(kFabricMagic[i])) ++i;
    bad_stream(consumed_ + i, "bad magic (expected \"PFAB\")");
  }
  if (h[4] != kFabricVersion) {
    bad_stream(consumed_ + 4,
               "unsupported version " + std::to_string(h[4]) +
                   " (expected " + std::to_string(kFabricVersion) + ")");
  }
  if (!known_type(h[5])) {
    bad_stream(consumed_ + 5,
               "unknown frame type " + std::to_string(h[5]));
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(h[6 + i]) << (8 * i);
  }
  if (len > kMaxFramePayload) {
    bad_stream(consumed_ + 6,
               "payload length " + std::to_string(len) + " exceeds the " +
                   std::to_string(kMaxFramePayload) + "-byte limit");
  }
  if (avail < kFrameHeaderBytes + len) return std::nullopt;
  Frame f;
  f.type = static_cast<FrameType>(h[5]);
  f.payload.assign(h + kFrameHeaderBytes, h + kFrameHeaderBytes + len);
  pos_ += kFrameHeaderBytes + len;
  consumed_ += kFrameHeaderBytes + len;
  return f;
}

// ------------------------------------------------ typed message payloads

namespace {

Frame frame_of(FrameType type, WireWriter&& w) {
  Frame f;
  f.type = type;
  f.payload = w.take();
  return f;
}

WireReader reader_for(const Frame& f, FrameType want) {
  if (f.type != want) {
    throw std::invalid_argument(std::string("fabric frame: expected ") +
                                to_string(want) + ", got " +
                                to_string(f.type));
  }
  return WireReader(f.payload);
}

/// A 32-bit spec field: rejects a larger value rather than truncate it
/// into a campaign the coordinator never sent.
std::uint32_t varint32(WireReader& r, const char* what) {
  const std::uint64_t v = r.varint(what);
  if (v > UINT32_MAX) {
    r.bad(what, "value " + std::to_string(v) + " exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

Frame make_hello(const HelloMsg& m) {
  WireWriter w;
  w.varint(m.worker_id);
  return frame_of(FrameType::kHello, std::move(w));
}

HelloMsg decode_hello(const Frame& f) {
  WireReader r = reader_for(f, FrameType::kHello);
  HelloMsg m;
  m.worker_id = r.varint("Hello.worker_id");
  r.expect_done("Hello");
  return m;
}

Frame make_welcome(const WelcomeMsg& m) {
  WireWriter w;
  w.varint(m.worker_id);
  encode_campaign_spec(w, m.spec);
  return frame_of(FrameType::kWelcome, std::move(w));
}

WelcomeMsg decode_welcome(const Frame& f) {
  WireReader r = reader_for(f, FrameType::kWelcome);
  WelcomeMsg m;
  m.worker_id = r.varint("Welcome.worker_id");
  m.spec = decode_campaign_spec(r);
  r.expect_done("Welcome");
  return m;
}

Frame make_lease_request() { return Frame{FrameType::kLeaseRequest, {}}; }

Frame make_lease_grant(const LeaseGrantMsg& m) {
  WireWriter w;
  w.varint(m.lease_id);
  w.varint(m.config_id);
  w.varint(m.lease_ms);
  return frame_of(FrameType::kLeaseGrant, std::move(w));
}

LeaseGrantMsg decode_lease_grant(const Frame& f) {
  WireReader r = reader_for(f, FrameType::kLeaseGrant);
  LeaseGrantMsg m;
  m.lease_id = r.varint("LeaseGrant.lease_id");
  m.config_id = r.varint("LeaseGrant.config_id");
  m.lease_ms = r.varint("LeaseGrant.lease_ms");
  r.expect_done("LeaseGrant");
  return m;
}

Frame make_no_work(const NoWorkMsg& m) {
  WireWriter w;
  w.varint(m.retry_ms);
  return frame_of(FrameType::kNoWork, std::move(w));
}

NoWorkMsg decode_no_work(const Frame& f) {
  WireReader r = reader_for(f, FrameType::kNoWork);
  NoWorkMsg m;
  m.retry_ms = r.varint("NoWork.retry_ms");
  r.expect_done("NoWork");
  return m;
}

Frame make_result(const ResultMsg& m) {
  WireWriter w;
  w.varint(m.lease_id);
  w.varint(m.config_id);
  w.u8(m.error ? 1 : 0);
  w.str(m.json);
  return frame_of(FrameType::kResult, std::move(w));
}

ResultMsg decode_result(const Frame& f) {
  WireReader r = reader_for(f, FrameType::kResult);
  ResultMsg m;
  m.lease_id = r.varint("Result.lease_id");
  m.config_id = r.varint("Result.config_id");
  const std::uint8_t err = r.u8("Result.error");
  if (err > 1) r.bad("Result.error", "flag must be 0 or 1");
  m.error = err != 0;
  m.json = r.str("Result.json");
  r.expect_done("Result");
  return m;
}

Frame make_heartbeat() { return Frame{FrameType::kHeartbeat, {}}; }
Frame make_shutdown() { return Frame{FrameType::kShutdown, {}}; }

// -------------------------------------------------- campaign spec wire

void encode_campaign_spec(WireWriter& w, const CampaignSpec& spec) {
  w.u8(spec.run_mixes ? 1 : 0);
  w.varint(spec.mix_lo);
  w.varint(spec.mix_hi);
  w.varint(spec.defenses.size());
  for (DefenseKind k : spec.defenses) w.u8(static_cast<std::uint8_t>(k));
  w.varint(spec.seeds);
  w.varint(spec.instr);
  w.varint(spec.ws_div);
  w.u8(static_cast<std::uint8_t>(spec.inclusion));
  w.u8(static_cast<std::uint8_t>(spec.slice_hash));
  w.u8(static_cast<std::uint8_t>(spec.monitor_level));
  w.varint(spec.scenarios.size());
  for (const TraceScenario& s : spec.scenarios) {
    w.str(s.name);
    w.str(s.path);
  }
  // v3: fuzz-genotype cells. The genotype travels in its canonical text
  // form — the same bytes the JSON records and the corpus carry, so a
  // wire round trip can never reinterpret a scenario.
  w.varint(spec.fuzz.size());
  for (const FuzzCell& c : spec.fuzz) {
    w.str(c.name);
    w.str(c.genotype);
  }
  w.varint(spec.fuzz_perm_rounds);
  // record_dir deliberately does not travel: capture campaigns are
  // standalone-only (each worker would record to its own disk), and the
  // coordinator rejects them before any worker connects.
}

CampaignSpec decode_campaign_spec(WireReader& r) {
  CampaignSpec spec;
  const std::uint8_t mixes = r.u8("spec.run_mixes");
  if (mixes > 1) r.bad("spec.run_mixes", "flag must be 0 or 1");
  spec.run_mixes = mixes != 0;
  spec.mix_lo = varint32(r, "spec.mix_lo");
  spec.mix_hi = varint32(r, "spec.mix_hi");
  const std::uint64_t n_def = r.varint("spec.defenses");
  if (n_def > 64) r.bad("spec.defenses", "implausible defense count");
  spec.defenses.clear();
  for (std::uint64_t i = 0; i < n_def; ++i) {
    const std::uint8_t k = r.u8("spec.defense");
    if (k > static_cast<std::uint8_t>(DefenseKind::kRic)) {
      r.bad("spec.defense", "unknown defense kind " + std::to_string(k));
    }
    spec.defenses.push_back(static_cast<DefenseKind>(k));
  }
  spec.seeds = varint32(r, "spec.seeds");
  spec.instr = r.varint("spec.instr");
  spec.ws_div = r.varint("spec.ws_div");
  const std::uint8_t inc = r.u8("spec.inclusion");
  if (inc > static_cast<std::uint8_t>(InclusionPolicy::kExclusive)) {
    r.bad("spec.inclusion", "unknown inclusion policy " + std::to_string(inc));
  }
  spec.inclusion = static_cast<InclusionPolicy>(inc);
  const std::uint8_t hash = r.u8("spec.slice_hash");
  if (hash > static_cast<std::uint8_t>(SliceHashKind::kIntelCas)) {
    r.bad("spec.slice_hash", "unknown slice hash " + std::to_string(hash));
  }
  spec.slice_hash = static_cast<SliceHashKind>(hash);
  const std::uint8_t lvl = r.u8("spec.monitor_level");
  if (lvl > static_cast<std::uint8_t>(MonitorLevel::kLlc)) {
    r.bad("spec.monitor_level", "unknown monitor level " + std::to_string(lvl));
  }
  spec.monitor_level = static_cast<MonitorLevel>(lvl);
  const std::uint64_t n_scen = r.varint("spec.scenarios");
  if (n_scen > (1u << 16)) r.bad("spec.scenarios", "implausible count");
  for (std::uint64_t i = 0; i < n_scen; ++i) {
    TraceScenario s;
    s.name = r.str("spec.scenario.name");
    s.path = r.str("spec.scenario.path");
    spec.scenarios.push_back(std::move(s));
  }
  const std::uint64_t n_fuzz = r.varint("spec.fuzz");
  if (n_fuzz > (1u << 16)) r.bad("spec.fuzz", "implausible count");
  for (std::uint64_t i = 0; i < n_fuzz; ++i) {
    FuzzCell c;
    c.name = r.str("spec.fuzz.name");
    c.genotype = r.str("spec.fuzz.genotype");
    spec.fuzz.push_back(std::move(c));
  }
  spec.fuzz_perm_rounds = varint32(r, "spec.fuzz_perm_rounds");
  return spec;
}

}  // namespace pipo
