// Checked numeric parsing for command-line values.
//
// The CLIs used to lean on std::stoul, which has two traps for flag
// values: a leading '-' is accepted and wrapped ("--threads -1" became
// ~4e9 worker threads) and trailing junk is ignored ("--instr 10x"
// parsed as 10). parse_uint consumes the whole token or throws,
// rejects signs, and range-checks, so every mistyped flag fails loudly
// with the flag name in the message instead of silently running a
// different experiment. Shared by sweep_runner and the fabric CLIs
// (tools/pipo_coordinator.cpp, tools/pipo_worker.cpp).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pipo {

/// Parses `token` as an unsigned decimal integer in [min, max].
/// The entire token must be digits (no sign, no whitespace, no trailing
/// characters, no empty string); violations throw std::invalid_argument
/// naming `what` — pass the flag name so the user sees which value is
/// bad. Hex/octal prefixes are rejected too: flag values are decimal.
inline std::uint64_t parse_uint(const std::string& token, const char* what,
                                std::uint64_t min = 0,
                                std::uint64_t max = UINT64_MAX) {
  auto bad = [&](const std::string& why) -> std::invalid_argument {
    return std::invalid_argument(std::string(what) + ": " + why + ": \"" +
                                 token + "\"");
  };
  if (token.empty()) throw bad("expected a number, got an empty value");
  for (char c : token) {
    if (c < '0' || c > '9') {
      throw bad(c == '-' ? "negative values are not allowed"
                         : "not a decimal number");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') {
    throw bad("out of range (does not fit in 64 bits)");
  }
  if (v < min || v > max) {
    throw bad("must be in [" + std::to_string(min) + ", " +
              std::to_string(max) + "]");
  }
  return v;
}

/// parse_uint narrowed to `unsigned` (the thread-count flags).
inline unsigned parse_uint32(const std::string& token, const char* what,
                             std::uint64_t min = 0,
                             std::uint64_t max = UINT32_MAX) {
  return static_cast<unsigned>(parse_uint(token, what, min, max));
}

/// Parses `token` as a finite decimal floating-point value in
/// [min, max]. Same contract as parse_uint: the whole token must parse
/// (no trailing junk, no empty string), inf/nan and range violations
/// throw std::invalid_argument naming `what`. Scientific notation
/// ("1e-3") is accepted; a leading '-' is only useful when min < 0.
inline double parse_double(const std::string& token, const char* what,
                           double min = -HUGE_VAL, double max = HUGE_VAL) {
  auto bad = [&](const std::string& why) -> std::invalid_argument {
    return std::invalid_argument(std::string(what) + ": " + why + ": \"" +
                                 token + "\"");
  };
  if (token.empty()) throw bad("expected a number, got an empty value");
  // strtod skips leading whitespace; the flag token must not have any.
  if (std::isspace(static_cast<unsigned char>(token.front()))) {
    throw bad("not a decimal number");
  }
  errno = 0;
  char* end = nullptr;
  // lint:allow(raw-parse) this is the checked-parse implementation
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) throw bad("not a decimal number");
  if (errno == ERANGE || !std::isfinite(v)) throw bad("not a finite value");
  if (v < min || v > max) {
    char range[64];
    // lint:allow(float-format) bounds rendered into an error message only
    std::snprintf(range, sizeof range, "must be in [%g, %g]", min, max);
    throw bad(range);
  }
  return v;
}

}  // namespace pipo
