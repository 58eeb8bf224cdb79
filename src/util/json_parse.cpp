#include "util/json_parse.hpp"

#include <cctype>
#include <cstdlib>

namespace psw {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& m : members) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue* JsonValue::find_path(const std::string& path) const {
  const JsonValue* v = this;
  size_t from = 0;
  while (v != nullptr) {
    const size_t dot = path.find('.', from);
    v = v->find(path.substr(from, dot - from));
    if (dot == std::string::npos) return v;
    from = dot + 1;
  }
  return nullptr;
}

double JsonValue::as_double(double def) const {
  return type == Type::kNumber ? number : def;
}

int64_t JsonValue::as_i64(int64_t def) const {
  if (type != Type::kNumber) return def;
  return std::strtoll(raw.c_str(), nullptr, 10);
}

uint64_t JsonValue::as_u64(uint64_t def) const {
  if (type != Type::kNumber) return def;
  if (!raw.empty() && raw[0] == '-') return def;
  return std::strtoull(raw.c_str(), nullptr, 10);
}

bool JsonValue::as_bool(bool def) const {
  return type == Type::kBool ? boolean : def;
}

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  const std::string& text;
  size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_literal(const char* lit, JsonValue* out, JsonValue::Type type,
                     bool boolean) {
    size_t i = 0;
    while (lit[i] != '\0') {
      if (pos + i >= text.size() || text[pos + i] != lit[i]) {
        return fail("bad literal");
      }
      ++i;
    }
    pos += i;
    out->type = type;
    out->boolean = boolean;
    return true;
  }

  bool parse_string(std::string* out) {
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        if (pos + 1 >= text.size()) return fail("truncated escape");
        const char e = text[pos + 1];
        pos += 2;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            pos += 4;
            // ASCII decodes exactly; anything wider is replaced (our own
            // documents never emit it).
            out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
            break;
          }
          default:
            return fail("bad escape");
        }
        continue;
      }
      out->push_back(c);
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    if (pos == start || (pos == start + 1 && text[start] == '-')) {
      return fail("bad number");
    }
    out->type = JsonValue::Type::kNumber;
    out->raw = text.substr(start, pos - start);
    out->number = std::strtod(out->raw.c_str(), nullptr);
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->type = JsonValue::Type::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        if (!consume(':')) return fail("expected ':'");
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        out->members.emplace_back(std::move(key), std::move(v));
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out->type = JsonValue::Type::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        out->items.push_back(std::move(v));
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return parse_string(&out->str);
    }
    if (c == 't') return parse_literal("true", out, JsonValue::Type::kBool, true);
    if (c == 'f') return parse_literal("false", out, JsonValue::Type::kBool, false);
    if (c == 'n') return parse_literal("null", out, JsonValue::Type::kNull, false);
    return parse_number(out);
  }
};

}  // namespace

bool json_parse(const std::string& text, JsonValue* out, std::string* error) {
  Parser p{text, 0, {}};
  JsonValue v;
  if (!p.parse_value(&v, 0)) {
    if (error != nullptr) *error = p.error;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing data at offset " + std::to_string(p.pos);
    }
    return false;
  }
  *out = std::move(v);
  return true;
}

}  // namespace psw
