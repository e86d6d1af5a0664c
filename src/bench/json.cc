#include "bench/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace emogi::bench {
namespace {

// Recursive-descent parser reporting the first failure by byte offset.
// Errors unwind through the bool return of each production; `error_` is
// set once, at the deepest failure.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* value, std::string* error) {
    if (!ParseValue(value)) {
      *error = error_;
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      *error = Diag("trailing garbage after document");
      return false;
    }
    return true;
  }

 private:
  std::string Diag(const std::string& what) const {
    return what + " at byte " + std::to_string(pos_);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char* c) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      error_ = Diag("unexpected end of input");
      return false;
    }
    *c = text_[pos_];
    return true;
  }

  bool Expect(char expected) {
    char c = 0;
    if (!Peek(&c)) return false;
    if (c != expected) {
      error_ = Diag(std::string("expected '") + expected + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* value) {
    char c = 0;
    if (!Peek(&c)) return false;
    if (c == '{') return ParseObject(value);
    if (c == '[') return ParseArray(value);
    if (c == '"') return ParseString(value);
    if (c == 't' || c == 'f') return ParseBool(value);
    if (c == 'n') return ParseNull(value);
    return ParseNumber(value);
  }

  bool ParseObject(JsonValue* value) {
    value->type = JsonValue::Type::kObject;
    if (!Expect('{')) return false;
    char c = 0;
    if (!Peek(&c)) return false;
    if (c == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue key;
      if (!ParseString(&key)) return false;
      if (!Expect(':')) return false;
      if (!ParseValue(&value->object[key.string])) return false;
      if (!Peek(&c)) return false;
      if (c == ',') {
        ++pos_;
        continue;
      }
      return Expect('}');
    }
  }

  bool ParseArray(JsonValue* value) {
    value->type = JsonValue::Type::kArray;
    if (!Expect('[')) return false;
    char c = 0;
    if (!Peek(&c)) return false;
    if (c == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      value->array.emplace_back();
      if (!ParseValue(&value->array.back())) return false;
      if (!Peek(&c)) return false;
      if (c == ',') {
        ++pos_;
        continue;
      }
      return Expect(']');
    }
  }

  bool ParseString(JsonValue* value) {
    value->type = JsonValue::Type::kString;
    if (!Expect('"')) return false;
    while (true) {
      if (pos_ >= text_.size()) {
        error_ = Diag("unterminated string");
        return false;
      }
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          error_ = Diag("unterminated escape");
          return false;
        }
        const char escaped = text_[pos_++];
        switch (escaped) {
          case 'n':
            value->string += '\n';
            break;
          case 't':
            value->string += '\t';
            break;
          case 'r':
            value->string += '\r';
            break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              error_ = Diag("truncated \\u escape");
              return false;
            }
            pos_ += 4;  // The sink only emits control chars this way; drop.
            break;
          default:
            value->string += escaped;  // \" \\ \/
        }
      } else {
        value->string += c;
      }
    }
  }

  bool ParseBool(JsonValue* value) {
    value->type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return true;
    }
    error_ = Diag("expected true/false");
    return false;
  }

  bool ParseNull(JsonValue* value) {
    *value = JsonValue();
    if (text_.compare(pos_, 4, "null") != 0) {
      error_ = Diag("expected null");
      return false;
    }
    pos_ += 4;
    return true;
  }

  bool ParseNumber(JsonValue* value) {
    value->type = JsonValue::Type::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      error_ = Diag("expected a value");
      return false;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    value->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      error_ = Diag("malformed number '" + token + "'");
      return false;
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue& JsonValue::At(const std::string& key) const {
  const JsonValue* found = Find(key);
  if (found == nullptr) {
    std::fprintf(stderr, "JsonValue::At: missing key '%s'\n", key.c_str());
    std::abort();
  }
  return *found;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

bool ParseJson(const std::string& text, JsonValue* value,
               std::string* error) {
  return JsonParser(text).Parse(value, error);
}

std::string JsonString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    double reparsed = 0;
    std::sscanf(shorter, "%lf", &reparsed);
    if (reparsed == value) return shorter;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buffer[65536];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

}  // namespace emogi::bench
