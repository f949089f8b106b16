// Field lists (DESIGN.md §9.2): each serialized struct is described once, by
// a function template that names its keys in file order —
//
//   void fields(auto& v, obs::Of<TimelineRecord> auto& r) {
//     v("window", r.window);
//     v("t_start", r.t_start);
//     ...
//     if (v.flag(r.has_autoscale, "instances")) v("instances", r.instances);
//   }
//
// — and one walker per direction runs every list: FieldWriter streams the
// struct into a JsonWriter (no intermediate tree), FieldReader fills it
// from a parsed JsonValue and throws the format's own error type.  Adding a
// field is one line in its list.
//
// Codecs follow the member's type: unsigned integers (range-checked to the
// member's width on read), double (%.17g, non-finite written as null),
// bool, string, std::int8_t (a sign: -1, 0 or 1), std::uint8_t (a 0/1 flag
// byte), optional<double> (null when empty), enums (their number; their
// to_string() name in the run report) and vectors / deques / sets of these.
// A tag after the member narrows the codec: Below{n} bounds an integer (or
// every entry) below n, Hex carries a u64 as 16 hex digits and Remap
// renumbers slot vectors.
//
// Emission rules: `v.when(on, key)` guards keys written only while `on`
// holds; the reader takes them whenever `key` is present.  `v.flag(b, key)`
// is the same with a bool member that records the presence on read.
// Cross-field checks stay code: `v.require(ok, what)` fails a read, and
// `if constexpr (kReads<decltype(v)>)` holds read-side fix-ups.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "nfv/obs/json.h"

namespace nfv::obs {

/// A described struct: `T` for the reader, `const T` for the writer.
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

struct Below {
  std::uint64_t n;  ///< exclusive upper bound; for enums, the largest + 1
};
struct Hex {};
/// Slot numbers travel as `to[slot]`; a kUnmapped target fails the read.
struct Remap {
  const std::vector<std::uint32_t>& to;
};
inline constexpr std::uint32_t kUnmapped = 0xffffffffu;

/// True inside a description while FieldReader walks it.
template <class V>
inline constexpr bool kReads = std::remove_cvref_t<V>::kReading;

class FieldWriter {
 public:
  static constexpr bool kReading = false;
  /// `report` selects the run-report view of the shared lists: report-only
  /// keys, nested groups, and enum names instead of numbers.
  explicit FieldWriter(JsonWriter& w, bool report_view = false)
      : report(report_view), w_(w) {}

  const bool report;

  /// Bounds (a Below tag) are checked on read only.
  template <class T, class... Bound>
  void operator()(std::string_view key, const T& v, Bound...) {
    if (!tuple_) w_.key(key);
    put(v);
  }
  void operator()(std::string_view key, std::uint64_t v, Hex) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex(16, '0');
    for (std::size_t i = 16; i-- > 0; v >>= 4) hex[i] = kDigits[v & 0xf];
    (*this)(key, hex);
  }
  void operator()(std::string_view key, const std::vector<std::uint32_t>& v,
                  Remap remap) {
    w_.key(key);
    w_.begin_array();
    for (const std::uint32_t x : v) w_.value(std::uint64_t{remap.to[x]});
    w_.end_array();
  }

  bool when(bool on, std::string_view /*key*/) const { return on; }
  bool flag(bool on, std::string_view /*key*/) const { return on; }
  void require(bool /*ok*/, std::string_view /*what*/) const {}

  template <class F>
  void object(std::string_view key, F&& body) {
    w_.key(key);
    w_.begin_object();
    body();
    w_.end_object();
  }
  /// `body`'s keys nest under `key` in the run report and sit inline in
  /// every other format.
  template <class F>
  void group(std::string_view key, F&& body) {
    if (report) {
      object(key, body);
    } else {
      body();
    }
  }
  /// One object per item; items for which `skip` holds are left out.
  template <class C, class F, class Skip = std::nullptr_t>
  void array(std::string_view key, const C& items, F&& each,
             Skip skip = nullptr) {
    w_.key(key);
    w_.begin_array();
    for (const auto& item : items) {
      if constexpr (!std::is_null_pointer_v<Skip>) {
        if (skip(item)) continue;
      }
      w_.begin_object();
      each(item);
      w_.end_object();
    }
    w_.end_array();
  }
  /// One positional array per item: the keys of `each` are not written.
  template <class C, class F>
  void tuples(std::string_view key, const C& items, F&& each) {
    w_.key(key);
    w_.begin_array();
    for (const auto& item : items) {
      w_.begin_array();
      tuple_ = true;
      each(item);
      tuple_ = false;
      w_.end_array();
    }
    w_.end_array();
  }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double>) {
      w_.value(v);
    } else if constexpr (std::is_enum_v<T>) {
      if (report) {
        w_.value(to_string(v));
      } else {
        w_.value(static_cast<std::uint64_t>(v));
      }
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      w_.value(static_cast<std::int64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      w_.value(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      w_.value(std::string_view(v));
    } else if constexpr (requires { v.has_value(); }) {
      if (v.has_value()) {
        put(*v);
      } else {
        w_.null();
      }
    } else {
      w_.begin_array();
      for (const auto& x : v) put(x);
      w_.end_array();
    }
  }

  JsonWriter& w_;
  bool tuple_ = false;
};

/// Fills described structs from `object`; every failure throws `Error`
/// with `prefix` + a message naming the key.
template <class Error>
class FieldReader {
 public:
  static constexpr bool kReading = true;
  static constexpr bool report = false;

  /// `strict` also rejects non-finite numbers and numeric booleans.
  FieldReader(const JsonValue& object, std::string prefix, bool strict = false)
      : cur_(&object), prefix_(std::move(prefix)), strict_(strict) {}

  template <class T>
  void operator()(std::string_view key, T& out) {
    get(at(key), key, out);
  }
  template <class T>
  void operator()(std::string_view key, T& out, Below below) {
    const JsonValue& j = at(key);
    if constexpr (std::is_enum_v<T>) {
      std::uint64_t v = 0;
      get(j, key, v);
      check_below(key, v, below);
      out = static_cast<T>(v);
    } else {
      get(j, key, out);
      if constexpr (std::is_integral_v<T>) {
        check_below(key, out, below);
      } else {
        for (const auto x : out) check_below(key, x, below);
      }
    }
  }
  void operator()(std::string_view key, std::uint64_t& out, Hex) {
    std::string hex;
    get(at(key), key, hex);
    if (hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      fail(quote(key) + " must be a 16-digit hex string");
    }
    out = std::stoull(hex, nullptr, 16);
  }
  void operator()(std::string_view key, std::vector<std::uint32_t>& out,
                  Remap remap) {
    (*this)(key, out, Below{remap.to.size()});
    for (std::uint32_t& x : out) {
      if (remap.to[x] == kUnmapped) {
        fail(quote(key) + " names a dropped entry");
      }
      x = remap.to[x];
    }
  }

  bool when(bool /*on*/, std::string_view key) const {
    return cur_->find(key) != nullptr;
  }
  bool flag(bool& on, std::string_view key) const {
    on = cur_->find(key) != nullptr;
    return on;
  }
  /// A cross-field check: fails the read with `what` unless `ok`.
  void require(bool ok, std::string_view what) const {
    if (!ok) fail(std::string(what));
  }

  template <class F>
  void object(std::string_view key, F&& body) {
    const JsonValue& j = at(key);
    if (!j.is_object()) fail(quote(key) + " must be an object");
    const JsonValue* outer = std::exchange(cur_, &j);
    body();
    cur_ = outer;
  }
  template <class F>
  void group(std::string_view /*key*/, F&& body) {
    body();
  }
  /// Replaces `items` with one element per array entry; map entries must
  /// have distinct keys.
  template <class C, class F, class Skip = std::nullptr_t>
  void array(std::string_view key, C& items, F&& each,
             Skip /*write-side*/ = nullptr) {
    items.clear();
    const JsonValue* outer = cur_;
    for (const JsonValue& j : elements(key)) {
      if (!j.is_object()) fail(quote(key) + " entries must be objects");
      cur_ = &j;
      if constexpr (requires { typename C::mapped_type; }) {
        std::pair<typename C::key_type, typename C::mapped_type> item;
        each(item);
        if (!items.insert(std::move(item)).second) {
          fail(quote(key) + " repeats an id");
        }
      } else {
        typename C::value_type item;
        each(item);
        items.push_back(std::move(item));
      }
    }
    cur_ = outer;
  }
  template <class C, class F>
  void tuples(std::string_view key, C& items, F&& each) {
    items.clear();
    for (const JsonValue& j : elements(key)) {
      if (!j.is_array()) fail(quote(key) + " entries must be arrays");
      tuple_ = &j.as_array();
      slot_ = 0;
      typename C::value_type item;
      each(item);
      if (slot_ != tuple_->size()) fail(quote(key) + " entries are misshapen");
      items.push_back(std::move(item));
    }
    tuple_ = nullptr;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(prefix_ + what);
  }

 private:
  static std::string quote(std::string_view key) {
    return "field \"" + std::string(key) + "\"";
  }

  /// The member `key`, or the next slot while reading a tuple.
  const JsonValue& at(std::string_view key) {
    if (tuple_ != nullptr) {
      if (slot_ >= tuple_->size()) fail(quote(key) + " is missing");
      return (*tuple_)[slot_++];
    }
    const JsonValue* v = cur_->find(key);
    if (v == nullptr) fail("missing field \"" + std::string(key) + "\"");
    return *v;
  }
  const JsonValue::Array& elements(std::string_view key) {
    const JsonValue& j = at(key);
    if (!j.is_array()) fail(quote(key) + " must be an array");
    return j.as_array();
  }
  template <class T>
  void check_below(std::string_view key, T v, Below below) const {
    if (static_cast<std::uint64_t>(v) >= below.n) {
      fail(quote(key) + " value " + std::to_string(v) + " is out of range");
    }
  }

  void get(const JsonValue& j, std::string_view key, double& out) const {
    if (!j.is_number()) fail(quote(key) + " must be a number");
    out = j.as_number();
    if (strict_ && !std::isfinite(out)) fail(quote(key) + " must be finite");
  }
  void get(const JsonValue& j, std::string_view key, bool& out) const {
    if (j.is_bool()) {
      out = j.as_bool();
    } else if (!strict_ && j.is_number()) {
      out = j.as_number() != 0.0;
    } else {
      fail(quote(key) + " must be a boolean");
    }
  }
  void get(const JsonValue& j, std::string_view key, std::uint8_t& out) const {
    if (!j.is_number()) fail(quote(key) + " entries must be 0/1");
    out = j.as_number() != 0.0 ? 1 : 0;
  }
  void get(const JsonValue& j, std::string_view key, std::int8_t& out) const {
    const double d = j.is_number() ? j.as_number() : 2.0;
    if (d != -1.0 && d != 0.0 && d != 1.0) {
      fail(quote(key) + " must be -1, 0, or 1");
    }
    out = static_cast<std::int8_t>(d);
  }
  template <std::unsigned_integral T>
  void get(const JsonValue& j, std::string_view key, T& out) const {
    const double d = j.is_number() ? j.as_number() : -1.0;
    if (!(d >= 0.0) || d != std::floor(d) || d > 1.8e19) {
      fail(quote(key) + " must be a non-negative integer");
    }
    const auto v = static_cast<std::uint64_t>(d);
    if (v > std::numeric_limits<T>::max()) {
      fail(quote(key) + " value " + std::to_string(v) + " is out of range");
    }
    out = static_cast<T>(v);
  }
  void get(const JsonValue& j, std::string_view key, std::string& out) const {
    if (!j.is_string()) fail(quote(key) + " must be a string");
    out = j.as_string();
  }
  /// A constant (a schema string): the input must carry exactly it.
  void get(const JsonValue& j, std::string_view key,
           const std::string_view& expected) const {
    if (!j.is_string() || j.as_string() != expected) {
      fail("unsupported " + std::string(key) + " '" +
           (j.is_string() ? j.as_string() : std::string()) + "' (expected '" +
           std::string(expected) + "')");
    }
  }
  void get(const JsonValue& j, std::string_view key,
           std::optional<double>& out) const {
    out.reset();
    if (!j.is_null()) get(j, key, out.emplace());
  }
  template <class C>
  void get(const JsonValue& j, std::string_view key, C& out) const {
    if (!j.is_array()) fail(quote(key) + " must be an array");
    out.clear();
    for (const JsonValue& e : j.as_array()) {
      typename C::value_type x{};
      get(e, key, x);
      if constexpr (requires { out.push_back(x); }) {
        out.push_back(x);
      } else {
        out.insert(x);
      }
    }
  }

  const JsonValue* cur_;
  std::string prefix_;
  bool strict_;
  const JsonValue::Array* tuple_ = nullptr;
  std::size_t slot_ = 0;
};

}  // namespace nfv::obs
