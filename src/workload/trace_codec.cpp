#include "workload/trace_codec.h"

#include <cctype>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/types.h"
#include "workload/trace_frame.h"

namespace pipo {

namespace {

[[noreturn]] void bad_line(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("trace line " + std::to_string(line_no) +
                              ": " + what);
}

bool all_hex(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
          (c >= 'A' && c <= 'F'))) {
      return false;
    }
  }
  return true;
}

bool all_dec(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// v1 type letter: uppercase plain, lowercase with bypass_private set —
/// bypass is orthogonal to the access type, so all six combinations
/// have distinct codes. 'P' (the pre-fix bypass-load spelling) is still
/// parsed, and normalized to 'l' on save.
char type_code(const MemRequest& r) {
  char c = '?';
  switch (r.type) {
    case AccessType::kLoad: c = 'L'; break;
    case AccessType::kStore: c = 'S'; break;
    case AccessType::kInstFetch: c = 'I'; break;
  }
  if (r.bypass_private) c = static_cast<char>(c - 'A' + 'a');
  return c;
}

bool parse_type_code(char c, MemRequest& r) {
  switch (c) {
    case 'L': r.type = AccessType::kLoad; break;
    case 'S': r.type = AccessType::kStore; break;
    case 'I': r.type = AccessType::kInstFetch; break;
    case 'l': r.type = AccessType::kLoad; r.bypass_private = true; break;
    case 's': r.type = AccessType::kStore; r.bypass_private = true; break;
    case 'i': r.type = AccessType::kInstFetch; r.bypass_private = true; break;
    case 'P': r.type = AccessType::kLoad; r.bypass_private = true; break;
    default: return false;
  }
  return true;
}

}  // namespace

const char* to_string(TraceFormat f) {
  switch (f) {
    case TraceFormat::kTextV1: return "text";
    case TraceFormat::kFramedV3: return "framed";
  }
  return "?";
}

std::optional<TraceFormat> parse_trace_format(const std::string& name) {
  if (name == "text") return TraceFormat::kTextV1;
  if (name == "framed") return TraceFormat::kFramedV3;
  return std::nullopt;
}

TraceFormat detect_trace_format(std::istream& is) {
  return is.peek() == static_cast<unsigned char>(kTraceMagicV3[0])
             ? TraceFormat::kFramedV3
             : TraceFormat::kTextV1;
}

// ------------------------------------------------------------- text v1

TextTraceEncoder::TextTraceEncoder(std::ostream& os) : os_(os) {
  os_ << "# pipomonitor trace v1: <hex addr> <L|S|I|l|s|i> <pre_delay>\n"
      << "# lowercase = bypass_private (LLC-direct probe); legacy P = l\n";
}

void TextTraceEncoder::put(const MemRequest& r) {
  os_ << std::hex << r.addr << std::dec << ' ' << type_code(r) << ' '
      << r.pre_delay << '\n';
  ++count_;
}

void TextTraceEncoder::finish() {
  os_.flush();
  // ostreams fail silently (badbit, no throw); a capture truncated by a
  // full disk must not look like a successful recording.
  if (!os_) throw std::runtime_error("trace write failed (text encoder)");
}

std::optional<MemRequest> TextTraceDecoder::next() {
  while (std::getline(is_, line_)) {
    ++line_no_;
    if (line_.empty() || line_[0] == '#') continue;

    // Split into whitespace-separated tokens by hand so sign characters
    // can be rejected: unsigned stream extraction would silently wrap a
    // "-5" pre_delay to ~4e9 cycles.
    std::string tok[3];
    std::size_t n_tok = 0;
    std::size_t i = 0;
    while (i < line_.size()) {
      while (i < line_.size() && std::isspace(
                 static_cast<unsigned char>(line_[i]))) {
        ++i;
      }
      if (i >= line_.size()) break;
      const std::size_t start = i;
      while (i < line_.size() && !std::isspace(
                 static_cast<unsigned char>(line_[i]))) {
        ++i;
      }
      if (n_tok == 3) bad_line(line_no_, "trailing tokens: '" +
                               line_.substr(start) + "'");
      tok[n_tok++] = line_.substr(start, i - start);
    }
    if (n_tok == 0) continue;  // whitespace-only line
    if (n_tok != 3) {
      bad_line(line_no_, "expected '<hex addr> <L|S|I|l|s|i|P> <pre_delay>'");
    }

    MemRequest r;
    // Accept an optional 0x prefix — the pre-PR-5 istream hex
    // extraction did, and externally converted traces use it.
    std::string hex = tok[0];
    if (hex.size() > 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
      hex = hex.substr(2);
    }
    if (!all_hex(hex)) {
      bad_line(line_no_, "bad hex address '" + tok[0] + "'");
    }
    try {
      // lint:allow(raw-parse) token prevalidated by all_hex(); parse_num.h
      // is decimal-only and trace addresses are hex
      r.addr = std::stoull(hex, nullptr, 16);
    } catch (const std::out_of_range&) {
      bad_line(line_no_, "address out of range '" + tok[0] + "'");
    }
    if (tok[1].size() != 1 || !parse_type_code(tok[1][0], r)) {
      bad_line(line_no_, "unknown access type '" + tok[1] + "'");
    }
    if (!all_dec(tok[2])) {
      bad_line(line_no_, "bad pre_delay '" + tok[2] +
                         "' (unsigned decimal required)");
    }
    unsigned long long delay = 0;
    try {
      // lint:allow(raw-parse) token prevalidated by all_dec() just above
      delay = std::stoull(tok[2]);
    } catch (const std::out_of_range&) {
      bad_line(line_no_, "pre_delay out of range '" + tok[2] + "'");
    }
    if (delay > 0xFFFFFFFFull) {
      bad_line(line_no_, "pre_delay out of range '" + tok[2] + "'");
    }
    r.pre_delay = static_cast<std::uint32_t>(delay);
    ++count_;
    return r;
  }
  // getline stops on badbit exactly like on EOF; only the latter is a
  // clean end of trace.
  if (is_.bad()) bad_line(line_no_ + 1, "stream read error");
  return std::nullopt;
}

// ------------------------------------------------- factories + helpers

std::unique_ptr<TraceEncoder> make_trace_encoder(std::ostream& os,
                                                 TraceFormat format) {
  if (format == TraceFormat::kFramedV3) {
    return std::make_unique<FramedTraceEncoder>(os);
  }
  return std::make_unique<TextTraceEncoder>(os);
}

std::unique_ptr<TraceDecoder> make_trace_decoder(std::istream& is,
                                                 TraceFormat format) {
  if (format == TraceFormat::kFramedV3) {
    return std::make_unique<FramedTraceDecoder>(is);
  }
  return std::make_unique<TextTraceDecoder>(is);
}

std::unique_ptr<TraceDecoder> make_trace_decoder(std::istream& is) {
  return make_trace_decoder(is, detect_trace_format(is));
}

void save_trace_as(std::ostream& os, const std::vector<MemRequest>& trace,
                   TraceFormat format) {
  const auto enc = make_trace_encoder(os, format);
  for (const MemRequest& r : trace) enc->put(r);
  enc->finish();
}

std::vector<MemRequest> load_trace_auto(std::istream& is) {
  const auto dec = make_trace_decoder(is);
  std::vector<MemRequest> out;
  while (auto r = dec->next()) out.push_back(*r);
  return out;
}

void save_trace_file_as(const std::string& path,
                        const std::vector<MemRequest>& trace,
                        TraceFormat format) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  save_trace_as(f, trace, format);
}

std::vector<MemRequest> load_trace_file_auto(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  return load_trace_auto(f);
}

}  // namespace pipo
