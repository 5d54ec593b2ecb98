// The fabric's frame protocol: every coordinator<->worker message is one
// length-prefixed, versioned, magic-tagged binary frame.
//
// Frame layout (header is 10 bytes, fixed):
//
//   +-------------------+---------+--------+--------------------+
//   | magic "PFAB"      | version | type   | payload length     |
//   | 4 bytes           | 1 byte  | 1 byte | u32 little-endian  |
//   +-------------------+---------+--------+--------------------+
//   | payload (length bytes, wire.h encoding per message type)  |
//   +-----------------------------------------------------------+
//
// The decoder is incremental (feed() bytes as they arrive, next() yields
// complete frames) and rejects every malformed shape *at the earliest
// byte that proves it* — bad magic, unsupported version, unknown type
// and oversized length are all diagnosed from the 10-byte header before
// any payload is buffered, each with the absolute stream offset, the
// same idiom as the binary trace codec (workload/trace_codec.h). A
// connection that closes mid-frame is distinguishable from a clean
// close via mid_frame(), so truncation (a crashed peer, an injected
// fault) never silently looks like an orderly shutdown.
//
// Messages (payload encodings in frames.cpp; unknown types are
// rejected):
//
//   worker -> coordinator          coordinator -> worker
//   ---------------------          ---------------------
//   kHello {worker_id}             kWelcome {worker_id, CampaignSpec}
//   kLeaseRequest {}               kLeaseGrant {lease_id, config_id,
//   kResult {lease_id, config_id,               lease_ms}
//            error, json}          kNoWork {retry_ms}
//   kHeartbeat {}                  kShutdown {}
//
// Results carry the per-config JSON record already rendered by
// campaign.h's one canonical formatter, so merged distributed output is
// byte-identical to serial output by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fabric/campaign.h"
#include "fabric/wire.h"

namespace pipo {

inline constexpr char kFabricMagic[4] = {'P', 'F', 'A', 'B'};
/// v2: CampaignSpec carries the hierarchy-variant axes (inclusion,
/// slice_hash, monitor_level). v3: the spec additionally carries
/// fuzz-genotype cells and their permutation-round budget. v4: the spec
/// carries the trace_prefetch decode knob. v5: the spec drops v4's two
/// intra-simulation sharding varints. v6: the spec drops the
/// trace_prefetch byte. Version mismatch is a handshake reject, so an
/// old worker can never silently run a newer campaign with fields
/// dropped or misread (a v2 worker receiving a fuzz campaign would
/// otherwise run zero fuzz configs and still "complete").
inline constexpr std::uint8_t kFabricVersion = 6;
inline constexpr std::size_t kFrameHeaderBytes = 10;
/// Payload ceiling. A real frame is tiny (the largest is a Welcome
/// carrying a campaign spec, or a Result's JSON record — both well under
/// 64 KiB); anything near the ceiling is a corrupt or hostile length
/// field, and rejecting it early keeps a bad peer from ballooning the
/// receive buffer.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kLeaseRequest = 3,
  kLeaseGrant = 4,
  kNoWork = 5,
  kResult = 6,
  kHeartbeat = 7,
  kShutdown = 8,
};
const char* to_string(FrameType t);

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

/// Serializes header + payload into one contiguous buffer (one
/// send_all per frame — the convention FaultyTransport relies on to
/// treat each send as a frame). Throws std::invalid_argument if the
/// payload exceeds kMaxFramePayload.
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Incremental frame parser over an arbitrary byte-arrival schedule.
class FrameDecoder {
 public:
  /// Appends received bytes. Cheap; validation happens in next().
  void feed(const std::uint8_t* data, std::size_t n);

  /// Returns the next complete frame, or nullopt if more bytes are
  /// needed. Malformed input throws std::invalid_argument naming the
  /// absolute stream byte offset of the offending header field.
  std::optional<Frame> next();

  /// True when a partial frame is buffered — an EOF now is a mid-frame
  /// truncation, not a clean close.
  bool mid_frame() const { return buf_.size() > pos_; }

  /// Absolute offset of the first unconsumed byte (frame boundary).
  std::uint64_t byte_offset() const { return consumed_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;          ///< consumed prefix of buf_
  std::uint64_t consumed_ = 0;   ///< stream offset of buf_[pos_]
};

// ------------------------------------------------ typed message payloads

struct HelloMsg {
  std::uint64_t worker_id = 0;  ///< 0 = new worker, else reconnect identity
};

struct WelcomeMsg {
  std::uint64_t worker_id = 0;
  CampaignSpec spec;
};

struct LeaseGrantMsg {
  std::uint64_t lease_id = 0;
  std::uint64_t config_id = 0;
  std::uint64_t lease_ms = 0;  ///< informational: coordinator's deadline
};

struct NoWorkMsg {
  std::uint64_t retry_ms = 0;  ///< everything is leased; ask again later
};

struct ResultMsg {
  std::uint64_t lease_id = 0;
  std::uint64_t config_id = 0;
  bool error = false;     ///< the json is a structured failure record
  std::string json;       ///< campaign.h config_result_json(…, false)
};

Frame make_hello(const HelloMsg& m);
Frame make_welcome(const WelcomeMsg& m);
Frame make_lease_request();
Frame make_lease_grant(const LeaseGrantMsg& m);
Frame make_no_work(const NoWorkMsg& m);
Frame make_result(const ResultMsg& m);
Frame make_heartbeat();
Frame make_shutdown();

/// Payload decoders: throw std::invalid_argument (field name + payload
/// byte offset) on any malformed payload, including trailing bytes and
/// a frame of the wrong type.
HelloMsg decode_hello(const Frame& f);
WelcomeMsg decode_welcome(const Frame& f);
LeaseGrantMsg decode_lease_grant(const Frame& f);
NoWorkMsg decode_no_work(const Frame& f);
ResultMsg decode_result(const Frame& f);

/// CampaignSpec <-> wire (inside Welcome; exposed for tests).
void encode_campaign_spec(WireWriter& w, const CampaignSpec& spec);
CampaignSpec decode_campaign_spec(WireReader& r);

}  // namespace pipo
