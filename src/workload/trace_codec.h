// Trace codecs: the two on-disk request-stream formats and their
// streaming encoder/decoder pairs.
//
// Text v1 (this header) is the human-readable import/export path — one
// request per line, greppable, hand-editable; the importers and the
// fuzz corpus write it. Framed v3 (trace_frame.h) is the capture format
// for production-scale traces (multi-gigabyte pin/gem5 conversions,
// recorded attack transcripts): compact varint-delta records
// (trace_record.h) in checksummed frames with a trailing frame index,
// decodable in memory of one frame's payload.
//
// Text v1 grammar, one request per line:
//
//     <hex byte address> <L|S|I|l|s|i|P> <pre_delay>
//
// L = load, S = store, I = instruction fetch; the lowercase letters are
// the same access types with MemRequest::bypass_private set (LLC-direct
// probe accesses) — bypass is encoded orthogonally to the type, so all
// six field combinations round-trip exactly. 'P' is the legacy spelling
// of a bypass load ('l') and is still parsed; the encoder writes 'l'.
// The address is hex with an optional 0x prefix; pre_delay is unsigned
// decimal (sign characters are rejected — they used to wrap through
// unsigned extraction). Lines starting with '#' and blank lines are
// ignored.
//
// Fidelity contract: decode(encode(t)) == t for every trace t in both
// formats, and encode(decode(s)) == s for every canonical stream (one
// an encoder wrote; for text, legacy 'P' and unusual spacing are
// normalized). tests/workload/trace_io_test.cpp pins both directions
// for text, tests/workload/trace_codec_test.cpp for framed.
//
// Malformed input throws std::invalid_argument: the text decoder names
// the 1-based line number, the framed decoder the absolute byte offset
// (trace_record.h, trace_frame.h).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/workload_if.h"

namespace pipo {

enum class TraceFormat : std::uint8_t {
  kTextV1,    ///< line-per-request text (this header)
  kFramedV3,  ///< framed container of varint records (trace_frame.h)
};

const char* to_string(TraceFormat f);
/// Inverse of to_string ("text" / "framed"); nullopt for anything else.
/// The one name->format mapping the CLI flags share.
std::optional<TraceFormat> parse_trace_format(const std::string& name);

/// Sniffs the format from the first byte without consuming it: a framed
/// trace starts with its magic's 'P', which can never begin a text
/// trace line (those start with a hex digit, '#' or whitespace). The
/// framed decoder still validates the full magic.
TraceFormat detect_trace_format(std::istream& is);

/// Incremental writer for one trace stream. The header is written on
/// construction; finish() flushes buffered records, throws
/// std::runtime_error if the sink stream failed (ostreams set badbit
/// silently — a truncated capture must not look like a success), and is
/// idempotent. Destructors flush too but swallow the error; call
/// finish() explicitly to learn whether the capture is intact.
class TraceEncoder {
 public:
  virtual ~TraceEncoder() = default;
  virtual void put(const MemRequest& r) = 0;
  virtual void finish() = 0;
  /// Requests written so far.
  std::uint64_t encoded() const { return count_; }

 protected:
  std::uint64_t count_ = 0;
};

/// Incremental reader for one trace stream. next() yields requests in
/// order and nullopt at a clean end of trace; malformed input throws
/// std::invalid_argument (see the header comment for diagnostics).
class TraceDecoder {
 public:
  virtual ~TraceDecoder() = default;
  virtual std::optional<MemRequest> next() = 0;
  /// Requests decoded so far.
  std::uint64_t decoded() const { return count_; }

 protected:
  std::uint64_t count_ = 0;
};

// ------------------------------------------------------------- text v1

/// Writes the v1 header comment on construction, then one canonical
/// line per put() (the form the fidelity contract round-trips).
class TextTraceEncoder final : public TraceEncoder {
 public:
  explicit TextTraceEncoder(std::ostream& os);
  void put(const MemRequest& r) override;
  void finish() override;

 private:
  std::ostream& os_;
};

/// Line-at-a-time v1 parser; O(longest line) memory. Comments and blank
/// lines are skipped; errors carry the 1-based line number.
class TextTraceDecoder final : public TraceDecoder {
 public:
  explicit TextTraceDecoder(std::istream& is) : is_(is) {}
  std::optional<MemRequest> next() override;
  std::size_t line_no() const { return line_no_; }

 private:
  std::istream& is_;
  std::string line_;
  std::size_t line_no_ = 0;
};

// ------------------------------------------------------------ framed v3

/// Framed container magic (the format itself lives in trace_frame.h;
/// the magic is here so detect_trace_format need not depend on it).
inline constexpr char kTraceMagicV3[8] = {'P', 'I', 'P', 'O',
                                          'T', 'R', 'C', '3'};

// ------------------------------------------------- factories + helpers

std::unique_ptr<TraceEncoder> make_trace_encoder(std::ostream& os,
                                                 TraceFormat format);
std::unique_ptr<TraceDecoder> make_trace_decoder(std::istream& is,
                                                 TraceFormat format);
/// Autodetecting variant (detect_trace_format on the first byte).
std::unique_ptr<TraceDecoder> make_trace_decoder(std::istream& is);

/// Format-dispatching whole-trace wrappers; loading autodetects.
void save_trace_as(std::ostream& os, const std::vector<MemRequest>& trace,
                   TraceFormat format);
std::vector<MemRequest> load_trace_auto(std::istream& is);
/// File variants (binary-mode streams; throw std::runtime_error if the
/// file cannot be opened).
void save_trace_file_as(const std::string& path,
                        const std::vector<MemRequest>& trace,
                        TraceFormat format);
std::vector<MemRequest> load_trace_file_auto(const std::string& path);

}  // namespace pipo
