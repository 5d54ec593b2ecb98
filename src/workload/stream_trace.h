// Streaming trace replay and capture.
//
// `TraceWorkload` (trace.h) materializes the whole request list — fine
// for tests, impossible for multi-gigabyte recorded traces. This header
// is the production-scale path:
//
//   * `TraceReader` — format-autodetecting pull reader over any
//     std::istream (or file), built on the streaming codecs of
//     trace_codec.h / trace_frame.h;
//   * `StreamingTraceWorkload` — a Workload that refills a fixed-size
//     request chunk from a TraceReader, so replay memory is O(chunk)
//     regardless of trace length (the chunk buffer's capacity is pinned
//     by tests/workload/stream_trace_test.cpp);
//   * `TraceRecorder` — wraps any Workload and captures exactly the
//     requests the simulation consumed to any trace format, so a
//     synthetic mix can be snapshotted once and replayed
//     deterministically (the capture/replay loop is proven
//     stats-identical by tests/e2e/trace_replay_e2e_test.cpp).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "sim/workload_if.h"
#include "workload/trace_codec.h"

namespace pipo {

/// Pull reader over one trace stream. Owns the stream (file or caller-
/// supplied istream) and the decoder; format is autodetected unless
/// given. Malformed input throws std::invalid_argument from next()
/// with the codec's line/byte diagnostics.
class TraceReader {
 public:
  /// Opens `path` in binary mode; throws std::runtime_error on failure.
  explicit TraceReader(const std::string& path);
  /// Reads from `is` (e.g. a std::istringstream in tests).
  explicit TraceReader(std::unique_ptr<std::istream> is);
  /// Wraps an already-positioned decoder (e.g. a framed seek decoder
  /// from FramedTraceFile::decode_from_frame, trace_frame.h).
  TraceReader(std::unique_ptr<std::istream> is,
              std::unique_ptr<TraceDecoder> decoder, TraceFormat format);

  TraceFormat format() const { return format_; }
  /// Fills up to `max` requests into `out`; returns the count (0 = end
  /// of trace).
  std::size_t fill(MemRequest* out, std::size_t max);
  /// Requests decoded so far.
  std::uint64_t decoded() const { return decoder_->decoded(); }

 private:
  std::unique_ptr<std::istream> is_;
  TraceFormat format_;
  std::unique_ptr<TraceDecoder> decoder_;
};

/// Replays a trace file/stream through the simulator in O(chunk)
/// memory. Drop-in for TraceWorkload on traces of any length.
class StreamingTraceWorkload final : public Workload {
 public:
  static constexpr std::size_t kDefaultChunkRequests = 4096;

  explicit StreamingTraceWorkload(
      const std::string& path,
      std::size_t chunk_requests = kDefaultChunkRequests);
  explicit StreamingTraceWorkload(
      std::unique_ptr<std::istream> is,
      std::size_t chunk_requests = kDefaultChunkRequests);
  /// Replays an already-positioned reader (e.g. a framed seek reader
  /// from FramedTraceFile::reader_from_frame, trace_frame.h).
  explicit StreamingTraceWorkload(
      TraceReader reader, std::size_t chunk_requests = kDefaultChunkRequests);

  std::optional<MemRequest> next(Tick) override;

  /// Primes the next chunk without consuming anything and reports
  /// whether at least one request remains. Scenario loading uses this
  /// to reject zero-request trace files up front (a truncated-to-empty
  /// capture must not replay as a silently idle core) while direct
  /// codec users keep the permissive empty-trace behavior.
  bool has_requests();

  TraceFormat format() const { return reader_.format(); }
  std::uint64_t replayed() const { return replayed_; }
  /// The chunk buffer's capacity — never grows past the configured
  /// chunk size (the O(chunk)-memory property the unit test pins).
  std::size_t chunk_capacity() const { return chunk_.capacity(); }

 private:
  TraceReader reader_;
  std::vector<MemRequest> chunk_;
  std::size_t pos_ = 0;   ///< next unreturned request in chunk_
  std::size_t len_ = 0;   ///< valid requests in chunk_
  std::uint64_t replayed_ = 0;
};

/// Wraps a Workload and records every request it hands the simulator.
/// next()/on_complete() forward to the inner workload, so wrapping is
/// invisible to the run — the capture is exactly the stream the
/// simulation consumed. finish() flushes the sink and throws
/// std::runtime_error if writing failed (call it explicitly once the
/// run is done — the destructor flushes too but must swallow the
/// error).
class TraceRecorder final : public Workload {
 public:
  /// Records to `sink` (owned) in `format`.
  TraceRecorder(std::unique_ptr<Workload> inner,
                std::unique_ptr<std::ostream> sink, TraceFormat format);
  /// Records to `path` (opened binary-mode; throws std::runtime_error).
  TraceRecorder(std::unique_ptr<Workload> inner, const std::string& path,
                TraceFormat format);
  ~TraceRecorder() override {
    try {
      finish();
    } catch (...) {  // destructors must not throw; see class docs
    }
  }

  std::optional<MemRequest> next(Tick now) override;
  void on_complete(const MemRequest& req, Tick issued,
                   Tick completed) override {
    inner_->on_complete(req, issued, completed);
  }

  void finish() { encoder_->finish(); }
  std::uint64_t recorded() const { return encoder_->encoded(); }
  Workload& inner() { return *inner_; }

 private:
  std::unique_ptr<Workload> inner_;
  std::unique_ptr<std::ostream> sink_;
  std::unique_ptr<TraceEncoder> encoder_;
};

}  // namespace pipo
