#include "bench/options.h"

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "runtime/sweep_runner.h"

namespace emogi::bench {
namespace {

constexpr std::uint64_t kMaxThreads = 1024;

// Warns that `spelling`'s value was rejected and returns false, so a
// rule can `return Reject(...)`; the caller's current value stays.
bool Reject(const std::string& spelling, const std::string& value,
            const std::string& expected) {
  std::fprintf(stderr, "warning: ignoring %s='%s' (%s)\n", spelling.c_str(),
               value.c_str(), expected.c_str());
  return false;
}

// Parses a positive integer no greater than `max`. Rejects anything
// that is not a clean in-range positive number -- silent zero-clamping
// of garbage like EMOGI_SOURCES=abc used to hide typos.
bool ParsePositive(const std::string& spelling, const std::string& text,
                   std::uint64_t max, std::uint64_t* value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  // The leading-digit requirement rejects the forms strtoull would
  // quietly accept: whitespace, '+', and (wrapping!) '-' prefixes.
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || parsed == 0 || parsed > max) {
    return Reject(spelling, text,
                  "expected a positive integer <= " + std::to_string(max));
  }
  *value = parsed;
  return true;
}

bool IsDirectory(const std::string& path) {
  struct stat st {};
  return !path.empty() && ::stat(path.c_str(), &st) == 0 &&
         S_ISDIR(st.st_mode);
}

// Parses "sym=A,B,..." into known dataset symbols. Unknown symbols are
// individually warned and dropped; an empty result rejects the flag.
bool ParseFilter(const std::string& spelling, const std::string& value,
                 std::vector<std::string>* symbols) {
  const std::string prefix = "sym=";
  if (value.compare(0, prefix.size(), prefix) != 0) {
    return Reject(spelling, value, "expected sym=SYM[,SYM...]");
  }
  std::vector<std::string> parsed;
  std::string rest = value.substr(prefix.size());
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string symbol = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    if (symbol.empty()) continue;
    bool known = false;
    for (const std::string& s : graph::AllDatasetSymbols()) {
      known |= (s == symbol);
    }
    if (!known) {
      std::fprintf(stderr,
                   "warning: %s names unknown dataset symbol '%s'; "
                   "dropping it\n",
                   spelling.c_str(), symbol.c_str());
      continue;
    }
    parsed.push_back(symbol);
  }
  if (parsed.empty()) return Reject(spelling, value, "no known symbols left");
  *symbols = std::move(parsed);
  return true;
}

// "memory-budget" -> "EMOGI_MEMORY_BUDGET", the README table's mapping.
std::string EnvName(const std::string& flag) {
  std::string name = "EMOGI_";
  for (const char c : flag) {
    name += c == '-' ? '_' : static_cast<char>(std::toupper(
                                 static_cast<unsigned char>(c)));
  }
  return name;
}

}  // namespace

const std::vector<std::string>& Options::FlagNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "scale",     "sources",       "threads",  "data-dir",
      "cache-dir", "memory-budget", "paged-csr", "filter"};
  return *names;
}

Options Options::FromEnv() {
  Options options;
  options.threads = runtime::ResolveThreadCount(0);
  for (const std::string& flag : FlagNames()) {
    if (flag == "filter") continue;  // A flag with no variable.
    const std::string name = EnvName(flag);
    if (const char* value = std::getenv(name.c_str())) {
      options.Apply(flag, name, value);
    }
  }
  return options;
}

bool Options::Set(const std::string& name, const std::string& value) {
  return Apply(name, "--" + name, value);
}

bool Options::Apply(const std::string& name, const std::string& spelling,
                    const std::string& value) {
  std::uint64_t parsed = 0;
  if (name == "scale") {
    if (!ParsePositive(spelling, value, ~0ull, &parsed)) return false;
    scale = parsed;
    return true;
  }
  if (name == "sources") {
    if (!ParsePositive(spelling, value, 0x7fffffffull, &parsed)) return false;
    sources = static_cast<int>(parsed);
    return true;
  }
  if (name == "threads") {
    if (!ParsePositive(spelling, value, kMaxThreads, &parsed)) return false;
    threads = static_cast<int>(parsed);
    return true;
  }
  if (name == "data-dir") {
    if (!IsDirectory(value)) {
      return Reject(spelling, value, "not an existing directory");
    }
    data.data_dir = value;
    return true;
  }
  if (name == "cache-dir") {
    if (value.empty()) {
      return Reject(spelling, value,
                    "expected a directory path; the cache goes next to the "
                    "data");
    }
    data.cache_dir = value;
    return true;
  }
  if (name == "memory-budget") {
    if (!graph::ParseByteCount(value, &data.memory_budget)) {
      return Reject(spelling, value,
                    "expected a positive byte count, optionally suffixed "
                    "K/M/G");
    }
    return true;
  }
  if (name == "paged-csr") {
    if (value != "0" && value != "1") {
      return Reject(spelling, value, "expected 0 or 1");
    }
    data.paged = (value == "1");
    return true;
  }
  if (name == "filter") return ParseFilter(spelling, value, &symbols);
  std::fprintf(stderr, "warning: unknown option %s\n", spelling.c_str());
  return false;
}

}  // namespace emogi::bench
