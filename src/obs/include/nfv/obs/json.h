// Minimal JSON support for the telemetry layer: a streaming writer (used
// by the metrics/trace/report emitters) and a small recursive-descent
// parser (used by `nfvpr report` to reload and diff saved run reports).
// No external dependencies; numbers are written with enough precision to
// round-trip doubles.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace nfv::obs {

/// Escapes a string for inclusion in a JSON string literal (no quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Streaming JSON writer with automatic comma/indent handling.
///
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("events"); w.begin_array();
///   w.value(1.5); w.value("x");
///   w.end_array();
///   w.end_object();
///
/// Misuse (e.g. a value where a key is required) throws via NFV_CHECK.
class JsonWriter {
 public:
  /// `indent` 0 is the compact one-line form, members separated by ", ".
  explicit JsonWriter(std::ostream& os, int indent = 2);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);  ///< NaN / infinity are emitted as null
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(bool v);
  void null();

  /// Convenience: key + value in one call.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  enum class Frame : std::uint8_t { kObject, kArray };

  void before_value();
  void separate();  ///< comma and line break before a member
  void newline();

  std::ostream& os_;
  int indent_width_;
  std::vector<Frame> stack_;
  std::vector<bool> has_members_;
  bool pending_key_ = false;
};

/// A parsed JSON document.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// std::map keeps member iteration deterministic for diffing.
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] double as_number() const { return std::get<double>(v_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(v_);
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(v_); }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(v_);
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// find(key) as a number, or `fallback` when absent / wrong type.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback = 0.0) const;
  /// find(key) as a string, or `fallback`.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback = "") const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses a complete JSON document.  On failure returns nullopt and, when
/// `error` is non-null, stores a byte-offset diagnostic.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace nfv::obs
