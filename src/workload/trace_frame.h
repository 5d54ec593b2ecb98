// Framed seekable trace container ("framed v3").
//
// The varint-delta records (trace_record.h) form a delta-chain:
// decoding record N requires every record before it. A single chain
// would rule out starting a multi-gigabyte capture at request 2
// billion, validating a tail, or sharding one trace across sweep
// workers. The framed container cuts the chain into frames — delta-base
// restart points — and appends a seek index, so replay can begin at any
// frame boundary with one footer read and one seek.
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
//   seek index:
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
// One parser validates everything from the end marker to the end of the
// file (marker, index, index checksum, footer) for both readers.
// Seek-open reads the 16-byte footer, jumps to the end marker, hands
// the rest of the file to that parser and keeps its (frame offset,
// first request, request count) triples — O(footer + index) I/O
// however large the trace is. The streaming decoder reads frames in
// order, verifies every frame checksum before decoding, and on reaching
// the end marker reads the rest of its stream, runs the same parser and
// cross-checks the index against the frames it actually decoded, so a
// truncated or tampered file cannot replay silently. Replay from frame
// k is byte-identical to the tail of a full replay
// (tests/oracle/trace_frame_oracle_test.cpp pins this, request stream
// and System::Stats both).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "workload/stream_trace.h"
#include "workload/trace_codec.h"
#include "workload/trace_record.h"

namespace pipo {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the frame and
/// index checksum. Exposed for tools and tests that craft or verify
/// container bytes by hand.
std::uint32_t framed_crc32(const std::uint8_t* data, std::size_t len);

struct FramedTraceOptions {
  /// Requests per frame (delta-base restart interval). Smaller frames
  /// seek finer and localize corruption; larger frames amortize the
  /// ~8-byte header. The default keeps a frame around 64 KiB of
  /// payload for typical captures.
  std::size_t frame_requests = 1 << 14;
};

/// Streaming writer for the framed container. put() buffers records
/// into the current frame and flushes a frame every
/// `opts.frame_requests` requests; finish() flushes the tail frame and
/// writes the end marker, seek index and footer. finish() is
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
  /// Frames flushed so far (the tail frame counts once finished).
  std::uint64_t frames() const { return index_.size(); }

 private:
  struct IndexEntry {
    std::uint64_t offset;    ///< of the frame's marker byte
    std::uint64_t requests;  ///< records in the frame
  };

  void flush_frame();
  void write_bytes(const std::uint8_t* data, std::size_t len);

  std::ostream& os_;
  FramedTraceOptions opts_;
  std::vector<std::uint8_t> payload_;  ///< current frame's record bytes
  std::vector<std::uint8_t> head_;     ///< header/index scratch
  LineAddr prev_line_ = 0;             ///< restarts at 0 per frame
  std::uint64_t frame_count_ = 0;      ///< requests in the current frame
  std::uint64_t written_ = 0;          ///< bytes written (offset tracker)
  std::vector<IndexEntry> index_;
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
  /// Resumes mid-file at a frame boundary (FramedTraceFile's seek path):
  /// `is` must be positioned at the marker byte of frame
  /// `skipped_frames`, whose absolute offset is `start_offset`;
  /// `skipped_requests` is the request count of the skipped prefix.
  /// End-of-stream index validation checks the skipped prefix against
  /// the index too, so a stale index cannot pass.
  FramedTraceDecoder(std::istream& is, std::uint64_t start_offset,
                     std::uint64_t skipped_frames,
                     std::uint64_t skipped_requests);

  std::optional<MemRequest> next() override;

 private:
  struct SeenFrame {
    std::uint64_t offset;
    std::uint64_t requests;
  };

  /// Reads the next frame header+payload, verifies the checksum and
  /// arms the record cursor; false at the end marker (after which the
  /// index and footer have been validated).
  bool load_next_frame();
  /// Reads the tail after the end marker, parses it and checks the
  /// index against the skipped prefix and the frames decoded.
  void check_tail(std::uint64_t end_marker_offset);

  trace_v2::StreamByteSource src_;
  std::vector<std::uint8_t> stored_;   ///< current frame, as on disk
  std::optional<trace_v2::BufferByteSource> cur_;  ///< record cursor
  LineAddr prev_line_ = 0;
  std::uint64_t frame_left_ = 0;       ///< records left in this frame
  std::vector<SeenFrame> seen_;
  std::uint64_t skipped_frames_ = 0;
  std::uint64_t skipped_requests_ = 0;
  bool done_ = false;
};

/// One entry of a container's seek index, as exposed to callers.
struct FramedFrameInfo {
  std::uint64_t byte_offset;    ///< of the frame's marker byte
  std::uint64_t first_request;  ///< requests in all frames before it
  std::uint64_t request_count;  ///< requests in this frame
};

/// Seek handle over a framed trace file: opens the footer and index
/// only (O(index) I/O and memory), then hands out workloads positioned
/// at any frame boundary. Throws std::runtime_error if the file cannot
/// be opened and std::invalid_argument if the magic, footer or index is
/// malformed.
class FramedTraceFile {
 public:
  explicit FramedTraceFile(std::string path);

  const std::string& path() const { return path_; }
  const std::vector<FramedFrameInfo>& frames() const { return frames_; }
  std::uint64_t total_requests() const { return total_requests_; }

  /// Replays frames [k, end) — stats-identical to the tail of a full
  /// replay; replayed() counts from 0. `k == frames().size()` yields an
  /// immediately-exhausted workload (it still validates the index on
  /// its first next()). The decoder underneath validates frame
  /// checksums and the trailing index exactly like a from-the-start
  /// decode. Throws std::out_of_range for `k > frames().size()`.
  std::unique_ptr<StreamingTraceWorkload> workload_from_frame(
      std::size_t k) const;

 private:
  std::string path_;
  std::vector<FramedFrameInfo> frames_;
  std::uint64_t total_requests_ = 0;
  std::uint64_t end_marker_offset_ = 0;
};

}  // namespace pipo
