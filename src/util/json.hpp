#pragma once
/// \file json.hpp
/// Minimal JSON value type with parser and serializer.
///
/// Used by the graph / workflow (de)serialization layer. Supports the full
/// JSON data model (null, bool, number, string, array, object) with ordered
/// object keys for deterministic output. Not a general-purpose library:
/// numbers are doubles, strings must be UTF-8, and parse errors throw
/// spmap::Error with a byte offset.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace spmap {

/// A JSON document node.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;  // ordered

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const;
  double as_double() const;
  /// The number as an integer; throws spmap::Error unless it is integral
  /// and inside [-2^63, 2^63).
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object access; throws spmap::Error if absent or not an object.
  const Json& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;
  /// Object insertion (appends or overwrites).
  void set(const std::string& key, Json value);
  /// Array append.
  void push_back(Json value);

  /// Serializes; indent < 0 means compact single-line output. Numbers
  /// parse back exactly: integral values below 1e15 print as integers,
  /// negative zero as `-0`, NaN and infinities as `null`, anything else as
  /// the shortest printf `%.{p}g` that parses back to the same double
  /// (`0.7`, `0.0001`). Parsing a dump and dumping it again reproduces it.
  std::string dump(int indent = -1) const;

  /// Parses a JSON document. Throws spmap::Error on malformed input.
  static Json parse(const std::string& text);

  /// Schema guard for the declarative formats (platform / workload /
  /// scenario files): throws spmap::Error if this object contains a key not
  /// in `accepted`, naming the offender and listing what is accepted —
  /// mirroring the MapperRegistry option diagnostics, so typos in committed
  /// experiment files fail loudly instead of being ignored. `context`
  /// prefixes the message (e.g. "platform device").
  void require_keys(const std::string& context,
                    const std::vector<std::string>& accepted) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace spmap
