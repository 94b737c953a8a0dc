// Minimal JSON value model and strict recursive-descent parser for the
// serve protocol (DESIGN.md §16).
//
// The daemon's requests arrive as one JSON object per line over a Unix
// socket. The repo's JSON *emitters* are all hand-written streaming code
// (lint, sweep, advise, misses) — that stays unchanged, and responses are
// assembled by splicing those exact bytes. Only the *parsing* direction
// needs a real JSON reader, and this is the smallest one that is strict
// enough to trust in a fault-injected daemon: it rejects trailing garbage,
// unterminated strings, bad escapes and malformed numbers with a typed
// ParseError instead of guessing, and it never recurses deeper than a
// fixed bound (a hostile 100k-bracket line must not overflow the stack of
// a server thread).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace sdlo::serve {

/// One parsed JSON value. Numbers keep their integer identity when the
/// text had no fraction/exponent, because requests carry exact int64
/// payloads (capacities, environment bindings) that must not round-trip
/// through double.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kDouble, kString, kArray, kObject
  };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; each throws sdlo::Error when the kind mismatches,
  /// naming `what` (the request field being read) in the message.
  bool as_bool(const std::string& what) const;
  std::int64_t as_int(const std::string& what) const;
  double as_double(const std::string& what) const;
  const std::string& as_string(const std::string& what) const;
  const std::vector<JsonValue>& as_array(const std::string& what) const;
  const std::map<std::string, JsonValue>& as_object(
      const std::string& what) const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  // Construction (used by the parser and by tests).
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_int(std::int64_t i);
  static JsonValue make_double(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> a);
  static JsonValue make_object(std::map<std::string, JsonValue> o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses exactly one JSON value spanning the whole input (leading and
/// trailing whitespace permitted, anything else is a ParseError). Nesting
/// is bounded (64 levels) so malformed input cannot exhaust the stack.
JsonValue parse_json(const std::string& text);

/// The shared escaper (support/string_util.hpp), re-exported for the
/// protocol's callers.
using sdlo::json_escape;

/// Serializes the raw JSON token of a request id for verbatim echo in the
/// response: strings are quoted+escaped, integers print exactly, anything
/// else (including absence) renders as null.
std::string json_id_token(const JsonValue* id);

}  // namespace sdlo::serve
