#ifndef HPDR_TELEMETRY_JSON_HPP
#define HPDR_TELEMETRY_JSON_HPP

/// \file json.hpp
/// Minimal JSON document model used by the telemetry subsystem: run
/// manifests, metric snapshots, and merged chrome traces are all assembled
/// as `Value` trees and serialized with dump(). A strict parser is provided
/// so tests (and tools) can round-trip every artifact the framework emits —
/// an observability file that does not parse is a bug, not an output.
///
/// Object keys preserve insertion order so emitted manifests are stable and
/// diffable across runs.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace hpdr::telemetry {

/// Escape a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Returns the escaped body without the
/// surrounding quotes.
std::string json_escape(std::string_view s);

/// One JSON value. Numbers are stored as double, or as an exact integer:
/// int64, or uint64 for a value above INT64_MAX (a u64 seed or hash), so
/// every integer in [INT64_MIN, UINT64_MAX] round-trips exactly.
class Value {
 public:
  using Array = std::vector<Value>;
  /// Insertion-ordered object (manifests are small; linear lookup is fine).
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  /// Integral types keep their exact value: as int64, or as uint64 when
  /// an unsigned value does not fit int64.
  template <class T, std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool>,
                                      int> = 0>
  Value(T i) {
    if (std::is_unsigned_v<T> &&
        static_cast<std::uint64_t>(i) > std::uint64_t{INT64_MAX})
      v_ = static_cast<std::uint64_t>(i);
    else
      v_ = static_cast<std::int64_t>(i);
  }
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  static Value object() { return Value(Object{}); }
  static Value array() { return Value(Array{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const {
    return std::holds_alternative<double>(v_) || is_int();
  }
  bool is_int() const {
    return std::holds_alternative<std::int64_t>(v_) ||
           std::holds_alternative<std::uint64_t>(v_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_double() const {
    if (auto* i = std::get_if<std::int64_t>(&v_))
      return static_cast<double>(*i);
    if (auto* u = std::get_if<std::uint64_t>(&v_))
      return static_cast<double>(*u);
    return std::get<double>(v_);
  }
  /// An integer above INT64_MAX throws std::bad_variant_access here; read
  /// it with as_uint().
  std::int64_t as_int() const {
    if (auto* d = std::get_if<double>(&v_))
      return static_cast<std::int64_t>(*d);
    return std::get<std::int64_t>(v_);
  }
  /// A non-negative integer, exactly (a negative one wraps).
  std::uint64_t as_uint() const {
    if (auto* u = std::get_if<std::uint64_t>(&v_)) return *u;
    return static_cast<std::uint64_t>(as_int());
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// Object helpers: set() replaces an existing key or appends; get()
  /// returns nullptr when absent.
  void set(std::string key, Value val);
  const Value* get(std::string_view key) const;

  /// Array helper.
  void push_back(Value val) { as_array().push_back(std::move(val)); }

 private:
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t,
               std::string, Array, Object>
      v_;
};

/// Serialize. `indent` > 0 pretty-prints with that many spaces per level.
std::string dump(const Value& v, int indent = 0);

/// Strict parser; throws hpdr::Error on malformed input or trailing junk.
Value parse(std::string_view text);

}  // namespace hpdr::telemetry

#endif  // HPDR_TELEMETRY_JSON_HPP
