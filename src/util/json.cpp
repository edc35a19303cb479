#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace spmap {

bool Json::as_bool() const {
  require(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_double() const {
  require(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double d = as_double();
  require(std::nearbyint(d) == d, "Json: number is not integral");
  // [-2^63, 2^63) is exactly the set of doubles the cast is defined for.
  require(d >= -0x1p63 && d < 0x1p63,
          "Json: integer is outside the 64-bit range");
  return static_cast<std::int64_t>(d);
}

const std::string& Json::as_string() const {
  require(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  require(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  require(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  require(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  require(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

const Json& Json::at(const std::string& key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return v;
  }
  throw Error("Json: missing key '" + key + "'");
}

bool Json::contains(const std::string& key) const {
  if (!is_object()) return false;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return true;
  }
  return false;
}

void Json::set(const std::string& key, Json value) {
  if (is_null()) value_ = Object{};
  auto& obj = as_object();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(key, std::move(value));
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(value));
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void format_number(double d, std::string& out) {
  char buf[32];
  if (!std::isfinite(d)) {
    // JSON has no NaN/Infinity token; null keeps the document parseable
    // (matching JSON.stringify) instead of emitting 'nan'/'inf'.
    out += "null";
    return;
  }
  if (d == 0.0 && std::signbit(d)) {
    // The integral fast path below would print negative zero as "0" and
    // lose the sign on a round trip; "-0" parses back to -0.0 exactly.
    out += "-0";
    return;
  }
  if (std::nearbyint(d) == d && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  // The shortest `%.{p}g` that parses back to exactly `d`, so committed
  // files stay human-readable (0.7, not 0.69999999999999996) without
  // losing round-trip exactness. No string with fewer significant digits
  // than to_chars' shortest round-trip form parses back to `d`, so the
  // search starts at that digit count. That form is not emitted itself:
  // it spells some values differently from %g (1e-04 vs 0.0001).
  // to_chars(general, p) is printf %.{p}g; strtod checks the round trip.
  const std::to_chars_result shortest =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::scientific);
  int precision = 0;
  for (const char* c = buf; c != shortest.ptr && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (;; ++precision) {
    char* const end = std::to_chars(buf, buf + sizeof buf - 1, d,
                                    std::chars_format::general, precision)
                          .ptr;
    *end = '\0';
    if (precision >= 17 || std::strtod(buf, nullptr) == d) {
      out.append(buf, end);
      return;
    }
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent >= 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    format_number(as_double(), out);
  } else if (is_string()) {
    escape_string(as_string(), out);
  } else if (is_array()) {
    const auto& arr = as_array();
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ',';
      newline(depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    if (!arr.empty()) newline(depth);
    out += ']';
  } else {
    const auto& obj = as_object();
    out += '{';
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i) out += ',';
      newline(depth + 1);
      escape_string(obj[i].first, out);
      out += indent >= 0 ? ": " : ":";
      obj[i].second.dump_to(out, indent, depth + 1);
    }
    if (!obj.empty()) newline(depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw Error("Json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t len = 0;
    while (lit[len]) ++len;
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid number");
    // strtod instead of std::stod: stod throws out_of_range whenever strtod
    // reports ERANGE, which glibc also does for *subnormal* results — so a
    // dumped denormal like 5e-324 would not parse back. Underflow to a
    // subnormal (or to zero) is a valid parse; only overflow to infinity
    // and trailing garbage are errors.
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (!std::isfinite(value)) fail("number out of range");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

void Json::require_keys(const std::string& context,
                        const std::vector<std::string>& accepted) const {
  require(is_object(), context + ": expected a JSON object");
  for (const auto& [key, value] : as_object()) {
    bool known = false;
    for (const std::string& a : accepted) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (known) continue;
    std::string message =
        context + ": unknown key '" + key + "' (accepted keys: ";
    for (std::size_t i = 0; i < accepted.size(); ++i) {
      if (i) message += ", ";
      message += accepted[i];
    }
    throw Error(message + ")");
  }
}

}  // namespace spmap
