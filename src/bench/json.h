// Minimal JSON for the bench reports: a reader enough to genuinely
// parse an `emogi-bench-report` document rather than grep it, plus the
// value writers the sinks and tools/bench_history share. Consumers are
// the sinks, the report tests and the bench tools; this is not a
// general-purpose JSON library (no \uXXXX beyond control-character
// skipping, numbers via strtod).

#ifndef EMOGI_BENCH_JSON_H_
#define EMOGI_BENCH_JSON_H_

#include <map>
#include <string>
#include <vector>

namespace emogi::bench {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  // Member lookup that treats absence as a programming error: aborts
  // with the missing key on stderr. Use Find() when absence is a
  // legitimate input condition (e.g. comparing foreign reports).
  const JsonValue& At(const std::string& key) const;

  // Member lookup returning nullptr when the key is absent or this
  // value is not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Parses `text` as one JSON document (trailing garbage is an error).
// On success returns true and fills *value; on failure returns false
// and fills *error with a byte-offset diagnostic.
bool ParseJson(const std::string& text, JsonValue* value,
               std::string* error);

// `text` quoted, with quotes, backslashes and control bytes escaped.
std::string JsonString(const std::string& text);

// The shortest representation that round-trips `value` exactly; "null"
// for NaN and infinities, which JSON cannot spell.
std::string JsonNumber(double value);

// Appends the whole file at `path` to *out; false on an I/O error.
bool ReadFile(const std::string& path, std::string* out);

}  // namespace emogi::bench

#endif  // EMOGI_BENCH_JSON_H_
