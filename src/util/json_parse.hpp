// Minimal recursive-descent JSON parser for the tooling that consumes our
// own telemetry documents (trace dumps, metrics JSON). Numbers keep their
// raw token so 64-bit ids and nanosecond timestamps round-trip exactly
// (doubles alone lose precision past 2^53). Not a general-purpose parser:
// \uXXXX escapes outside the BMP-ASCII range decode to '?', and inputs are
// bounded by a nesting-depth cap.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace psw {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  // exact number token as it appeared in the input
  std::string str;  // decoded string value
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, in order

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  // Nested member lookup by a dotted path ("service.completion.completed");
  // nullptr when any step is absent.
  const JsonValue* find_path(const std::string& path) const;

  // Typed accessors with defaults (never throw).
  double as_double(double def = 0.0) const;
  int64_t as_i64(int64_t def = 0) const;
  uint64_t as_u64(uint64_t def = 0) const;
  const std::string& as_string() const { return str; }
  bool as_bool(bool def = false) const;
};

// Parses `text` into `*out`. Returns false (and sets `*error` when
// non-null) on malformed input; trailing non-whitespace is an error.
bool json_parse(const std::string& text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace psw
