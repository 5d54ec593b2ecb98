// Trace-codec microbenchmark: decode (and encode) throughput of the
// text v1 and framed v3 trace formats (workload/trace_codec.h,
// workload/trace_frame.h), on a synthetic request stream with mix-like
// locality (mostly short line deltas, occasional far jumps, all six
// type x bypass combinations).
//
// The baseline is text v1 — the seed's only trace path — and the
// engine number is framed v3, the capture and replay container; its
// decode rate includes the per-frame checksums and restart points. Also
// reports the encoded bytes per request for both formats.
//
// Human-readable by default; one JSON object with --json for
// BENCH_engine.json (see docs/benchmarks.md).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "workload/trace_codec.h"

namespace {

using namespace pipo;

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Mix-like stream: hot/streaming locality (small line deltas from a
/// moving cursor), rare far jumps, geometric-ish pre_delays.
std::vector<MemRequest> make_stream(std::uint64_t n) {
  std::vector<MemRequest> out;
  out.reserve(n);
  std::uint64_t rng = 42;
  std::uint64_t line = 1u << 20;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix(rng);
    if ((r & 0xFF) == 0) {
      line = (r >> 8) & ((1ull << 42) - 1);  // far jump (48-bit space)
    } else {
      const std::int64_t delta = static_cast<std::int64_t>((r >> 8) & 1023) -
                                 512;
      line = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(line) + delta);
    }
    MemRequest q;
    q.addr = (line << 6) | ((r >> 52) & 63);
    q.type = static_cast<AccessType>((r >> 2) % 3);
    q.bypass_private = (r & 0xF0) == 0xF0;  // ~1/16 of accesses
    q.pre_delay = static_cast<std::uint32_t>((r >> 40) & 15);
    out.push_back(q);
  }
  return out;
}

struct CodecNumbers {
  double decode_rps = 0;     ///< requests decoded per second (best of reps)
  double encode_rps = 0;
  double bytes_per_req = 0;
};

CodecNumbers measure(TraceFormat fmt, const std::vector<MemRequest>& stream,
                     int reps, std::uint64_t& sink) {
  CodecNumbers out;
  std::string encoded;
  {
    std::ostringstream os;
    save_trace_as(os, stream, fmt);
    encoded = os.str();
  }
  out.bytes_per_req = static_cast<double>(encoded.size()) /
                      static_cast<double>(stream.size());
  for (int rep = 0; rep < reps; ++rep) {
    {
      std::ostringstream os;
      const auto t0 = std::chrono::steady_clock::now();
      save_trace_as(os, stream, fmt);
      const auto t1 = std::chrono::steady_clock::now();
      sink += os.str().size();
      const double rps =
          static_cast<double>(stream.size()) /
          std::chrono::duration<double>(t1 - t0).count();
      out.encode_rps = out.encode_rps >= rps ? out.encode_rps : rps;
    }
    {
      std::istringstream is(encoded);
      const auto dec = make_trace_decoder(is);
      const auto t0 = std::chrono::steady_clock::now();
      while (auto r = dec->next()) sink += r->pre_delay;
      const auto t1 = std::chrono::steady_clock::now();
      const double rps =
          static_cast<double>(dec->decoded()) /
          std::chrono::duration<double>(t1 - t0).count();
      out.decode_rps = out.decode_rps >= rps ? out.decode_rps : rps;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  constexpr std::uint64_t kRequests = 2'000'000;
  constexpr int kReps = 3;

  const auto stream = make_stream(kRequests);
  std::uint64_t sink = 0;
  const CodecNumbers text =
      measure(TraceFormat::kTextV1, stream, kReps, sink);
  const CodecNumbers framed =
      measure(TraceFormat::kFramedV3, stream, kReps, sink);

  if (json) {
    std::printf(
        "{\"bench\":\"micro_trace_io\",\"requests\":%llu,"
        "\"reps\":\"best of %d\","
        "\"text_v1\":{\"decode_rps\":%.0f,\"encode_rps\":%.0f,"
        "\"bytes_per_req\":%.2f},"
        "\"framed_v3\":{\"decode_rps\":%.0f,\"encode_rps\":%.0f,"
        "\"bytes_per_req\":%.2f},"
        "\"decode_speedup\":%.2f,\"size_ratio\":%.2f,\"sink\":%llu}\n",
        static_cast<unsigned long long>(kRequests), kReps, text.decode_rps,
        text.encode_rps, text.bytes_per_req, framed.decode_rps,
        framed.encode_rps, framed.bytes_per_req,
        framed.decode_rps / text.decode_rps,
        text.bytes_per_req / framed.bytes_per_req,
        static_cast<unsigned long long>(sink));
    return 0;
  }

  std::printf("micro_trace_io: %llu requests, best of %d\n\n",
              static_cast<unsigned long long>(kRequests), kReps);
  std::printf("%-12s %14s %14s %12s\n", "codec", "decode req/s",
              "encode req/s", "bytes/req");
  std::printf("%-12s %14.2e %14.2e %12.2f\n", "text v1", text.decode_rps,
              text.encode_rps, text.bytes_per_req);
  std::printf("%-12s %14.2e %14.2e %12.2f\n", "framed v3", framed.decode_rps,
              framed.encode_rps, framed.bytes_per_req);
  std::printf("\ndecode speedup %.2fx, size ratio %.2fx\n",
              framed.decode_rps / text.decode_rps,
              text.bytes_per_req / framed.bytes_per_req);
  return 0;
}
