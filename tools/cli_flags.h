// Strict numeric flag values for the command-line tools (emogi_serve,
// emogi_client, bench_compare). A value is taken whole or rejected:
// a sign on an integer, a suffix, an empty string or an out-of-range
// number is a usage error (the tools exit 2), never a silently zeroed,
// clamped or wrapped setting.

#ifndef EMOGI_TOOLS_CLI_FLAGS_H_
#define EMOGI_TOOLS_CLI_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace emogi::tools {

// Decimal digits only, in [min, max].
inline bool ParseUnsigned(const std::string& text, std::uint64_t min,
                          std::uint64_t max, std::uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || parsed < min || parsed > max) return false;
  *out = parsed;
  return true;
}

// A finite decimal number in [min, max], consumed to the last byte.
inline bool ParseReal(const std::string& text, double min, double max,
                      double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(parsed) ||
      parsed < min || parsed > max) {
    return false;
  }
  *out = parsed;
  return true;
}

// Parses the value of `--flag` into `*out` (an unsigned or signed
// integer type, or double) within [min, max], with max defaulting to
// the largest value of T (which is deduced from `out` alone). On
// failure prints "<tool>: --<flag> '<value>' is not ..." on stderr and
// returns false.
template <typename T>
bool ParseFlag(const char* tool, const std::string& flag,
               const std::string& value, std::common_type_t<T> min, T* out,
               std::common_type_t<T> max = std::numeric_limits<T>::max()) {
  if constexpr (std::is_integral_v<T>) {
    std::uint64_t parsed = 0;
    if (ParseUnsigned(value, static_cast<std::uint64_t>(min),
                      static_cast<std::uint64_t>(max), &parsed)) {
      *out = static_cast<T>(parsed);
      return true;
    }
    std::fprintf(stderr, "%s: --%s '%s' is not an integer in [%llu, %llu]\n",
                 tool, flag.c_str(), value.c_str(),
                 static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
  } else {
    if (ParseReal(value, min, max, out)) return true;
    std::fprintf(stderr, "%s: --%s '%s' is not a number in [%g, %g]\n", tool,
                 flag.c_str(), value.c_str(), min, max);
  }
  return false;
}

}  // namespace emogi::tools

#endif  // EMOGI_TOOLS_CLI_FLAGS_H_
