#include "util/json.hpp"

#include <cmath>
#include <cstdio>

namespace psw {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::indent() { out_.append(2 * first_.size(), ' '); }

void JsonWriter::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
    out_ += '\n';
    indent();
  }
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool empty = first_.back();
  first_.pop_back();
  if (!empty) {
    out_ += '\n';
    indent();
  }
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool empty = first_.back();
  first_.pop_back();
  if (!empty) {
    out_ += '\n';
    indent();
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  pre_value();
  out_ += json_quote(name);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  // %g may print an integer-looking value; that is still valid JSON.
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
  pre_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  pre_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  pre_value();
  out_ += json_quote(v);
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& json) {
  pre_value();
  out_ += json;
  return *this;
}

}  // namespace psw
