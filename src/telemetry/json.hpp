// Minimal JSON support for the telemetry layer.
//
// JsonWriter is a streaming writer over a std::string: callers push
// objects/arrays/keys/values and the writer handles commas, quoting and
// escaping. Doubles are rendered with %.17g so a value round-trips
// bit-exactly — manifests produced by bit-identical runs must themselves be
// bit-identical (the sweep-determinism CI gate diffs them byte-for-byte).
//
// JsonValue is a small recursive-descent parser for the same dialect
// (objects, arrays, strings, numbers, bools, null). It exists so the trace
// round-trip test and tooling can re-read what the writers emit without an
// external dependency; it is not a general-purpose validating parser.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace flov::telemetry {

class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Starts a key inside an object; follow with exactly one value/container.
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();
  /// Splices pre-rendered JSON verbatim (caller guarantees validity).
  void raw(const std::string& json);

  // key+value shorthands
  template <typename T>
  void kv(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();
  void escape(const std::string& s);

  std::string out_;
  /// True when the next emission at the current nesting level needs a
  /// leading comma.
  std::vector<bool> need_comma_{false};
  bool after_key_ = false;
};

/// Parsed JSON value (tree form).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool has(const std::string& k) const { return obj.count(k) != 0; }
  const JsonValue& at(const std::string& k) const;

  /// Parses `text`; aborts (FLOV_CHECK) on malformed input.
  static JsonValue parse(const std::string& text);

  /// Tolerant variant for inputs that may legitimately be malformed (e.g.
  /// an incident record the ops plane folds): returns false instead of
  /// aborting, leaving `*out` unspecified.
  static bool try_parse(const std::string& text, JsonValue* out);
};

}  // namespace flov::telemetry
