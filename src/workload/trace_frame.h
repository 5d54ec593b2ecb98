// Framed trace container ("framed v3").
//
// The varint-delta records (trace_record.h) are cut into frames. Each
// frame restarts the line-delta base at line 0 and carries its request
// count and a checksum of its payload, so the decoder holds one frame's
// payload at a time and rejects a damaged frame before any of its
// records replays. An end marker, an index of every frame and a fixed
// footer follow the frames. Replay always starts at the first frame; the
// index stays because the decoder cross-checks it against the frames it
// decoded, and because every framed trace written so far carries it.
//
// Layout (varints are minimal LEB128, trace_record.h; u32/u64 are
// little-endian fixed width):
//
//   offset 0: magic "PIPOTRC3" (8 bytes)
//   then zero or more frames:
//     +--------+---------------+-------------+---------+-------+---------+
//     | marker | varint        | varint      | varint  | u32   | payload |
//     | 1 byte | request_count | payload_len | raw_len | crc32 | bytes   |
//     +--------+---------------+-------------+---------+-------+---------+
//     marker 0x01 = raw payload (the only frame kind; 0x02 was the
//     retired zstd-compressed frame and is rejected by name)
//     request_count > 0; payload_len = stored payload bytes;
//     raw_len = decoded payload bytes (always == payload_len);
//     crc32 (IEEE, poly 0xEDB88320) covers the stored payload bytes.
//     The payload is a record stream (trace_record.h) whose line-delta
//     base restarts at line 0 — each frame decodes independently.
//   end marker: one 0x00 byte
//   index ("seek index" in diagnostics):
//     varint frame_count
//     per frame: varint offset_delta  (marker-byte offset; the first
//                                      entry is absolute from the file
//                                      start, later entries are deltas
//                                      from the previous marker)
//                varint request_count
//     u32 crc32 of the index bytes (frame_count through the last entry)
//   footer (16 bytes, fixed, always the last bytes of the file):
//     u64 byte offset of the end marker
//     magic "PIPOIDX1" (8 bytes)
//
// The one reader, FramedTraceDecoder, reads frames in order and verifies
// every frame checksum before decoding. On reaching the end marker it
// reads the rest of its stream, at most the 31 + 20 * F bytes an index
// of its F frames can take, validates the index, its checksum and the
// footer, and cross-checks the index against the frames it decoded, so
// a truncated or tampered file cannot replay silently.
// tests/workload/trace_frame_test.cpp pins the layout byte for byte.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <vector>

#include "workload/trace_codec.h"
#include "workload/trace_record.h"

namespace pipo {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the frame and
/// index checksum. Exposed for tools and tests that craft or verify
/// container bytes by hand.
std::uint32_t framed_crc32(const std::uint8_t* data, std::size_t len);

struct FramedTraceOptions {
  /// Requests per frame (delta-base restart interval). Smaller frames
  /// localize corruption and shrink the decoder's buffer; larger frames
  /// amortize the ~8-byte header and the index entry. The default keeps
  /// a frame around 64 KiB of payload for typical captures.
  std::size_t frame_requests = 1 << 14;
};

/// A frame as the index lists it.
struct FramedIndexEntry {
  std::uint64_t offset;    ///< of the frame's marker byte
  std::uint64_t requests;  ///< records in the frame
  bool operator==(const FramedIndexEntry&) const = default;
};

/// Streaming writer for the framed container. put() buffers records
/// into the current frame and flushes a frame every
/// `opts.frame_requests` requests; finish() flushes the tail frame and
/// writes the end marker, index and footer. finish() is
/// idempotent, throws std::runtime_error if the sink stream failed, and
/// is required for a valid container — put() after finish() throws
/// std::logic_error (the index is already on disk).
class FramedTraceEncoder final : public TraceEncoder {
 public:
  explicit FramedTraceEncoder(std::ostream& os, FramedTraceOptions opts = {});
  ~FramedTraceEncoder() override {
    try {
      finish();
    } catch (...) {  // destructors must not throw; see TraceEncoder docs
    }
  }
  void put(const MemRequest& r) override;
  void finish() override;

 private:
  void flush_frame();
  void write_bytes(const std::uint8_t* data, std::size_t len);

  std::ostream& os_;
  FramedTraceOptions opts_;
  std::vector<std::uint8_t> payload_;  ///< current frame's record bytes
  std::vector<std::uint8_t> head_;     ///< header/index scratch
  LineAddr prev_line_ = 0;             ///< restarts at 0 per frame
  std::uint64_t frame_count_ = 0;      ///< requests in the current frame
  std::uint64_t written_ = 0;          ///< bytes written (offset tracker)
  std::vector<FramedIndexEntry> index_;
  bool finished_ = false;
};

/// Streaming reader for the framed container: next() yields requests
/// in order across frame boundaries. Every frame's checksum is verified
/// before its records are decoded, a frame's decoded record count must
/// match its header, and the trailing index and footer are validated and
/// checked against the frames actually seen — any mismatch throws
/// std::invalid_argument with an absolute byte offset. It reads through
/// the stream's own buffer, so memory is O(frame payload), not
/// O(trace). At the end marker it reads at most the 31 + 20 * F bytes an
/// index of its F frames can take, so junk after the footer is rejected
/// without being read in full.
class FramedTraceDecoder final : public TraceDecoder {
 public:
  /// Decodes from the file start; validates the magic immediately (a
  /// retired flat "PIPOTRC2" trace is rejected by name).
  explicit FramedTraceDecoder(std::istream& is);

  std::optional<MemRequest> next() override;

 private:
  /// Reads the next frame header+payload, verifies the checksum and
  /// arms the record cursor; false at the end marker (after which the
  /// index and footer have been validated).
  bool load_next_frame();
  /// Reads the tail after the end marker, parses it and checks the
  /// index against the frames decoded.
  void check_tail(std::uint64_t end_marker_offset);

  trace_v2::StreamByteSource src_;
  std::vector<std::uint8_t> stored_;   ///< current frame, as on disk
  std::optional<trace_v2::BufferByteSource> cur_;  ///< record cursor
  LineAddr prev_line_ = 0;
  std::uint64_t frame_left_ = 0;       ///< records left in this frame
  std::vector<FramedIndexEntry> seen_;  ///< frames decoded so far
  bool done_ = false;
};

}  // namespace pipo
