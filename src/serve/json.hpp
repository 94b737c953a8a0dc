// Minimal JSON value model and strict recursive-descent parser for the
// serve protocol (DESIGN.md §16).
//
// The daemon's requests arrive as one JSON object per line over a Unix
// socket. The repo's JSON *emitters* are all hand-written streaming code
// (lint, sweep, advise, misses) — that stays unchanged, and responses are
// assembled by splicing those exact bytes. Only the *parsing* direction
// needs a real JSON reader, and this is the only one: it reads requests,
// and it reads responses back for the client, whose payload bytes it
// takes from the spans it records. It is the smallest reader strict
// enough to trust in a fault-injected daemon: it rejects trailing garbage,
// unterminated strings, bad escapes and malformed numbers with a typed
// ParseError instead of guessing, and it never recurses deeper than a
// fixed bound (a hostile 100k-bracket line must not overflow the stack of
// a server thread).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace sdlo::serve {

/// One parsed JSON value. Numbers keep their integer identity when the
/// text had no fraction/exponent, because requests carry exact int64
/// payloads (capacities, environment bindings) that must not round-trip
/// through double. Every value also records the byte span of its text in
/// the document it was parsed from, so a reader can take a member's exact
/// wire bytes without a second tokenizer.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kDouble, kString, kArray, kObject
  };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; each throws sdlo::Error when the kind mismatches,
  /// naming `what` (the request field being read) in the message.
  bool as_bool(const std::string& what) const;
  std::int64_t as_int(const std::string& what) const;
  double as_double(const std::string& what) const;
  const std::string& as_string(const std::string& what) const;
  const std::vector<JsonValue>& as_array(const std::string& what) const;
  /// The members in document order, duplicates included.
  const std::vector<Member>& as_object(const std::string& what) const;

  /// Object member lookup (the last duplicate wins); nullptr when absent
  /// or not an object.
  const JsonValue* find(const std::string& key) const;

  /// This value's text within `document`, the string it was parsed from.
  std::string_view text_in(std::string_view document) const {
    return document.substr(begin_, end_ - begin_);
  }

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
  std::size_t begin_ = 0;  ///< byte span [begin_, end_) in the document
  std::size_t end_ = 0;
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
