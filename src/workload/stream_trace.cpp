#include "workload/stream_trace.h"

#include <fstream>
#include <stdexcept>
#include <utility>

namespace pipo {

namespace {

std::unique_ptr<std::istream> open_input(const std::string& path) {
  auto f = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*f) throw std::runtime_error("cannot open trace file: " + path);
  return f;
}

}  // namespace

StreamingTraceWorkload::StreamingTraceWorkload(const std::string& path)
    : StreamingTraceWorkload(open_input(path)) {}

StreamingTraceWorkload::StreamingTraceWorkload(
    std::unique_ptr<std::istream> is)
    : is_(std::move(is)), decoder_(make_trace_decoder(*is_)) {}

bool StreamingTraceWorkload::has_requests() {
  if (!ahead_) ahead_ = decoder_->next();
  return ahead_.has_value();
}

std::optional<MemRequest> StreamingTraceWorkload::next(Tick) {
  if (ahead_) return std::exchange(ahead_, std::nullopt);
  return decoder_->next();
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
