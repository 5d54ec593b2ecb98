// trace_convert — translate request traces between the text v1 and
// framed v3 formats (docs/traces.md), pulling each request from the
// input's decoder straight into the output's encoder, so multi-gigabyte
// traces convert in the codecs' own buffers.
//
// Usage:
//   trace_convert <in> <out> [--to text|framed] [--frame-requests N]
//
// The input format is autodetected. Without --to, the output is the
// other format. Because both codecs are lossless, converting
// text -> framed -> text reproduces the canonical text byte-for-byte
// (the CI smoke step pins this with cmp).
// --frame-requests sets the framed container's restart interval; it is
// rejected (exit 2) when the output is text.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/parse_num.h"
#include "workload/trace_codec.h"
#include "workload/trace_frame.h"

namespace {

using namespace pipo;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: trace_convert <in> <out> [--to text|framed] "
               "[--frame-requests N]\n"
               "input format is autodetected; default output is the "
               "other format\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string in_path = argv[1];
  const std::string out_path = argv[2];
  bool have_to = false;
  TraceFormat to = TraceFormat::kTextV1;
  FramedTraceOptions framed_opts;
  bool have_frame_requests = false;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        usage();
      }
      return argv[++i];
    };
    if (a == "--to") {
      const std::string v = need();
      const auto fmt = parse_trace_format(v);
      if (!fmt) {
        std::fprintf(stderr, "unknown format '%s'\n", v.c_str());
        usage();
      }
      to = *fmt;
      have_to = true;
    } else if (a == "--frame-requests") {
      try {
        framed_opts.frame_requests = static_cast<std::size_t>(
            parse_uint(need(), "--frame-requests", 1));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage();
      }
      have_frame_requests = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      usage();
    }
  }

  try {
    // Opening the output truncates it — converting a trace onto itself
    // would destroy the input before a single record is read.
    std::error_code ec;
    if (std::filesystem::equivalent(in_path, out_path, ec) && !ec) {
      throw std::runtime_error("input and output are the same file: " +
                               in_path);
    }
    std::ifstream in(in_path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open trace file: " + in_path);
    const TraceFormat from = detect_trace_format(in);
    if (!have_to) {
      to = from == TraceFormat::kTextV1 ? TraceFormat::kFramedV3
                                        : TraceFormat::kTextV1;
    }
    // Checked before the output is opened, which would truncate it.
    if (have_frame_requests && to != TraceFormat::kFramedV3) {
      std::fprintf(stderr,
                   "--frame-requests applies to framed output only; this "
                   "conversion writes %s\n",
                   to_string(to));
      return 2;
    }
    const auto decoder = make_trace_decoder(in, from);
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot open output file: " + out_path);
    }
    const auto encoder =
        to == TraceFormat::kFramedV3
            ? std::unique_ptr<TraceEncoder>(
                  std::make_unique<FramedTraceEncoder>(out, framed_opts))
            : make_trace_encoder(out, to);
    while (const auto r = decoder->next()) encoder->put(*r);
    encoder->finish();
    if (!out) throw std::runtime_error("write failed: " + out_path);
    std::fprintf(stderr, "trace_convert: %llu requests, %s -> %s\n",
                 static_cast<unsigned long long>(encoder->encoded()),
                 to_string(from), to_string(to));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_convert: %s\n", e.what());
    return 1;
  }
  return 0;
}
