// Streaming trace replay and capture.
//
// `TraceWorkload` (trace.h) materializes the whole request list — fine
// for tests, impossible for multi-gigabyte recorded traces. This header
// is the production-scale path:
//
//   * `StreamingTraceWorkload` — a Workload that owns its istream and a
//     format-autodetected decoder (trace_codec.h / trace_frame.h) and
//     pulls each request straight from the decoder, so replay memory is
//     the decoder's own buffers however long the trace;
//   * `TraceRecorder` — wraps any Workload and captures exactly the
//     requests the simulation consumed to any trace format, so a
//     synthetic mix can be snapshotted once and replayed
//     deterministically (the capture/replay loop is proven
//     stats-identical by tests/e2e/trace_replay_e2e_test.cpp).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <string>

#include "sim/workload_if.h"
#include "workload/trace_codec.h"

namespace pipo {

/// Replays a trace file or stream through the simulator, one decoded
/// request at a time. Drop-in for TraceWorkload on traces of any
/// length. Malformed input throws std::invalid_argument from next()
/// with the codec's line/byte diagnostics.
class StreamingTraceWorkload final : public Workload {
 public:
  /// Opens `path` in binary mode; throws std::runtime_error on failure.
  explicit StreamingTraceWorkload(const std::string& path);
  /// Reads from `is` (e.g. a std::istringstream in tests); the format
  /// is autodetected.
  explicit StreamingTraceWorkload(std::unique_ptr<std::istream> is);

  std::optional<MemRequest> next(Tick) override;

  /// Decodes one request ahead without consuming it and reports
  /// whether at least one request remains. Scenario loading uses this
  /// to reject zero-request trace files up front (a truncated-to-empty
  /// capture must not replay as a silently idle core) while direct
  /// codec users keep the permissive empty-trace behavior.
  bool has_requests();

  /// Requests handed to the simulator so far.
  std::uint64_t replayed() const {
    return decoder_->decoded() - (ahead_ ? 1 : 0);
  }

 private:
  std::unique_ptr<std::istream> is_;  ///< outlives decoder_, which reads it
  std::unique_ptr<TraceDecoder> decoder_;
  std::optional<MemRequest> ahead_;   ///< decoded by has_requests()
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
