// Checked number parsing for the command-line tools (sketchd and
// ddsketch_cli). Every numeric argument goes through ParseNumber, so a
// value like "12abc", "1x" or "1e3" where an integer belongs is refused
// instead of being read as some other number.

#ifndef DDSKETCH_TOOLS_PARSE_NUMBER_H_
#define DDSKETCH_TOOLS_PARSE_NUMBER_H_

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <system_error>

namespace dd {

/// Parses the whole of `text` as a T in [lo, hi]. std::from_chars takes
/// no leading whitespace, '+' or base prefix, and no '-' for an unsigned
/// T; trailing characters, values T cannot hold and NaN are refused too.
template <typename T>
bool ParseNumber(std::string_view text, T lo, T hi, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

/// ParseNumber for one command-line argument. On failure prints
/// "<program>: <name> wants a number in [lo, hi], got '<text>'" to
/// stderr; the caller then exits 2, a usage error.
template <typename T>
bool ParseArg(const char* program, std::string_view name,
              std::string_view text, T lo, T hi, T* out) {
  if (ParseNumber(text, lo, hi, out)) return true;
  std::ostringstream message;
  message << program << ": " << name << " wants a number in [" << lo << ", "
          << hi << "], got '" << text << "'\n";
  std::fputs(message.str().c_str(), stderr);
  return false;
}

}  // namespace dd

#endif  // DDSKETCH_TOOLS_PARSE_NUMBER_H_
