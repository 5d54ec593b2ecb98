#include "workload/stream_trace.h"

#include <fstream>
#include <stdexcept>

namespace pipo {

namespace {

std::unique_ptr<std::istream> open_input(const std::string& path) {
  auto f = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*f) throw std::runtime_error("cannot open trace file: " + path);
  return f;
}

}  // namespace

TraceReader::TraceReader(const std::string& path)
    : TraceReader(open_input(path)) {}

TraceReader::TraceReader(std::unique_ptr<std::istream> is)
    : is_(std::move(is)),
      format_(detect_trace_format(*is_)),
      decoder_(make_trace_decoder(*is_, format_)) {}

TraceReader::TraceReader(std::unique_ptr<std::istream> is,
                         std::unique_ptr<TraceDecoder> decoder,
                         TraceFormat format)
    : is_(std::move(is)), format_(format), decoder_(std::move(decoder)) {}

std::size_t TraceReader::fill(MemRequest* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    auto r = decoder_->next();
    if (!r) break;
    out[n++] = *r;
  }
  return n;
}

StreamingTraceWorkload::StreamingTraceWorkload(const std::string& path,
                                               std::size_t chunk_requests)
    : StreamingTraceWorkload(TraceReader(path), chunk_requests) {}

StreamingTraceWorkload::StreamingTraceWorkload(
    std::unique_ptr<std::istream> is, std::size_t chunk_requests)
    : StreamingTraceWorkload(TraceReader(std::move(is)), chunk_requests) {}

StreamingTraceWorkload::StreamingTraceWorkload(TraceReader reader,
                                               std::size_t chunk_requests)
    : reader_(std::move(reader)) {
  // Fixed-size once: resize() here, never push_back, so the buffer's
  // capacity stays at the configured chunk for the life of the replay.
  chunk_.resize(chunk_requests == 0 ? 1 : chunk_requests);
  chunk_.shrink_to_fit();
}

bool StreamingTraceWorkload::has_requests() {
  if (pos_ >= len_) {
    len_ = reader_.fill(chunk_.data(), chunk_.size());
    pos_ = 0;
  }
  return pos_ < len_;
}

std::optional<MemRequest> StreamingTraceWorkload::next(Tick) {
  if (!has_requests()) return std::nullopt;
  ++replayed_;
  return chunk_[pos_++];
}

namespace {

std::unique_ptr<std::ostream> open_output(const std::string& path) {
  auto f = std::make_unique<std::ofstream>(path, std::ios::binary);
  if (!*f) throw std::runtime_error("cannot open trace file: " + path);
  return f;
}

}  // namespace

TraceRecorder::TraceRecorder(std::unique_ptr<Workload> inner,
                             std::unique_ptr<std::ostream> sink,
                             TraceFormat format)
    : inner_(std::move(inner)),
      sink_(std::move(sink)),
      encoder_(make_trace_encoder(*sink_, format)) {}

TraceRecorder::TraceRecorder(std::unique_ptr<Workload> inner,
                             const std::string& path, TraceFormat format)
    : TraceRecorder(std::move(inner), open_output(path), format) {}

std::optional<MemRequest> TraceRecorder::next(Tick now) {
  auto r = inner_->next(now);
  if (r) encoder_->put(*r);
  return r;
}

}  // namespace pipo
