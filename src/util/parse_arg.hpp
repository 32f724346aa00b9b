/// \file parse_arg.hpp
/// \brief Strict numeric command-line arguments for the benches and
/// examples.
///
/// `std::stoull` and friends throw on malformed text, accept a sign on
/// unsigned types (`-1` silently becomes 2^64 - 1), and ignore trailing
/// garbage.  `parse_number` accepts exactly one decimal number spanning
/// the whole argument; `parse_arg_or_exit` turns a rejection into a
/// usage message and exit status 2.  `option_value` and `usage_exit`
/// give unknown options and options missing their value the same
/// treatment, so a mistyped command line never runs something else.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace stps::util {

/// The value of \p text if the whole of it is one decimal number of type
/// T: unsigned types reject any sign, out-of-range values are rejected,
/// and floating-point values must be finite and non-negative.
template <typename T>
std::optional<T> parse_number(std::string_view text)
{
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value) || value < T{0}) {
      return std::nullopt;
    }
  }
  return value;
}

/// Prints "\p problem '\p arg'" and \p usage to stderr and exits with
/// status 2.
[[noreturn]] inline void usage_exit(const char* problem, const char* arg,
                                    const char* usage)
{
  std::fprintf(stderr, "%s '%s'\n%s", problem, arg, usage);
  std::exit(2);
}

/// Consumes and returns the value of option argv[i], advancing \p i
/// past it; exits through `usage_exit` when argv[i] is the last
/// argument.
inline const char* option_value(int argc, char** argv, int& i,
                                const char* usage)
{
  if (i + 1 >= argc) {
    usage_exit("missing value for", argv[i], usage);
  }
  return argv[++i];
}

/// Stores the value \p text of option \p flag in \p out; on a malformed
/// value prints the problem and \p usage to stderr and exits with
/// status 2.
template <typename T>
void parse_arg_or_exit(T& out, const char* flag, const char* text,
                       const char* usage)
{
  if (const std::optional<T> value = parse_number<T>(text)) {
    out = *value;
    return;
  }
  std::fprintf(stderr, "invalid value for %s: '%s'\n%s", flag, text, usage);
  std::exit(2);
}

} // namespace stps::util
