// Full-token numeric parsing shared by the CLI (its flag grammar and
// positional arguments) and the graph readers: unlike the atoi family,
// trailing junk ("4x"), signs, empty tokens, overflow, and out-of-range
// values are all rejected with a message naming the offending
// flag/argument.
#pragma once

#include <charconv>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string_view>
#include <system_error>

namespace slumber::util {

/// Parses `token` as a full-token unsigned integer in
/// [min_value, max_value] via std::from_chars. On failure prints a
/// diagnostic naming `what` to `err` and returns false.
inline bool parse_uint(std::string_view token, const char* what,
                       std::uint64_t* out, std::uint64_t min_value = 0,
                       std::uint64_t max_value =
                           std::numeric_limits<std::uint64_t>::max(),
                       std::ostream& err = std::cerr) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    err << "error: " << what << ": '" << token
        << "' overflows a 64-bit integer\n";
    return false;
  }
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      token.empty()) {
    err << "error: " << what << ": '" << token
        << "' is not an unsigned integer\n";
    return false;
  }
  if (value < min_value || value > max_value) {
    err << "error: " << what << ": " << value << " is out of range ["
        << min_value << ", " << max_value << "]\n";
    return false;
  }
  *out = value;
  return true;
}

/// Parses `token` as a full-token probability in [0, 1] via
/// std::from_chars. On failure prints a diagnostic naming `what` to
/// `err` and returns false.
inline bool parse_prob(std::string_view token, const char* what, double* out,
                       std::ostream& err = std::cerr) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      token.empty()) {
    err << "error: " << what << ": '" << token << "' is not a number\n";
    return false;
  }
  if (!(value >= 0.0 && value <= 1.0)) {
    err << "error: " << what << ": " << value
        << " is out of range [0, 1]\n";
    return false;
  }
  *out = value;
  return true;
}

}  // namespace slumber::util
