#pragma once

/// \file cli_args.h
/// Strict numeric flag values shared by the command-line tools. A value
/// must be the whole argument: one number, no trailing text, within
/// range (and, for counts, no sign). Anything else prints which flag
/// was wrong and exits 2, so `--peers 4x` or `--seed -3` never runs
/// with a truncated or wrapped value.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>

namespace icollect::tools {

/// Value of a count flag: plain decimal digits only, no sign, no
/// surrounding text, and at most `max`. Anything else exits 2.
inline std::uint64_t parse_count(
    const char* argv0, const char* flag, std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range || (ec == std::errc{} && v > max)) {
    std::fprintf(stderr, "%s: %s value '%s' is out of range\n", argv0, flag,
                 std::string{text}.c_str());
    std::exit(2);
  }
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr,
                 "%s: %s expects an unsigned decimal integer, got '%s'\n",
                 argv0, flag, std::string{text}.c_str());
    std::exit(2);
  }
  return v;
}

/// Value of a real-valued flag: one finite decimal number (sign and
/// exponent allowed) and nothing else. Anything else exits 2; range
/// rules such as "must be > 0" stay with the tool.
inline double parse_real(const char* argv0, const char* flag,
                         std::string_view text) {
  double v = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    std::fprintf(stderr, "%s: %s expects a finite number, got '%s'\n", argv0,
                 flag, std::string{text}.c_str());
    std::exit(2);
  }
  return v;
}

/// Split "HOST:PORT" at the last colon. False unless the port is plain
/// decimal digits in 1..65535.
inline bool split_host_port(const std::string& s, std::string& host,
                            std::uint16_t& port) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos) return false;
  const char* const first = s.data() + colon + 1;
  const char* const end = s.data() + s.size();
  unsigned long p = 0;
  const auto [ptr, ec] = std::from_chars(first, end, p);
  if (ec != std::errc{} || ptr != end || p == 0 || p > 0xFFFF) return false;
  host = s.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace icollect::tools
