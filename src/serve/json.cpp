#include "serve/json.hpp"

#include <cctype>
#include <charconv>

namespace sdlo::serve {

namespace {

[[noreturn]] void kind_error(const std::string& what, const char* want) {
  throw Error("request field '" + what + "' must be " + want);
}

}  // namespace

bool JsonValue::as_bool(const std::string& what) const {
  if (kind_ != Kind::kBool) kind_error(what, "a boolean");
  return bool_;
}

std::int64_t JsonValue::as_int(const std::string& what) const {
  if (kind_ == Kind::kInt) return int_;
  kind_error(what, "an integer");
}

double JsonValue::as_double(const std::string& what) const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ == Kind::kDouble) return double_;
  kind_error(what, "a number");
}

const std::string& JsonValue::as_string(const std::string& what) const {
  if (kind_ != Kind::kString) kind_error(what, "a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array(
    const std::string& what) const {
  if (kind_ != Kind::kArray) kind_error(what, "an array");
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::as_object(
    const std::string& what) const {
  if (kind_ != Kind::kObject) kind_error(what, "an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (auto it = object_.rbegin(); it != object_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

/// Recursive-descent JSON parser over one contiguous buffer. Depth is
/// bounded so adversarial nesting cannot overflow a server thread's stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("json: " + msg + " at offset " +
                     std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  char next() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_++];
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string_view(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    v.begin_ = pos_;
    switch (peek()) {
      case '{':
        v.kind_ = JsonValue::Kind::kObject;
        parse_object(depth, v.object_);
        break;
      case '[':
        v.kind_ = JsonValue::Kind::kArray;
        parse_array(depth, v.array_);
        break;
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        break;
      case 't':
      case 'f':
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = peek() == 't';
        if (!consume_literal(v.bool_ ? "true" : "false")) {
          fail("invalid literal");
        }
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        break;
      default:
        parse_number(v);
        break;
    }
    v.end_ = pos_;
    return v;
  }

  void parse_object(int depth, std::vector<JsonValue::Member>& members) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // Duplicates are kept in document order; find() reads the last one
      // (the common lenient reading). The serve protocol never emits them.
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  void parse_array(int depth, std::vector<JsonValue>& items) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = next();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (next() != '\\' || next() != 'u') fail("lone surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  /// Fills `v` as a kInt when the token is an integer that fits int64,
  /// else as a kDouble.
  void parse_number(JsonValue& v) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("invalid number");
    }
    if (peek() == '0' && pos_ + 1 < s_.size() &&
        std::isdigit(static_cast<unsigned char>(s_[pos_ + 1]))) {
      fail("invalid number: leading zero");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    bool integral = true;
    if (peek() == '.') {
      integral = false;
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("invalid number: digit required after '.'");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("invalid number: digit required in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string_view tok(s_.data() + start, pos_ - start);
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        v.kind_ = JsonValue::Kind::kInt;
        v.int_ = i;
        return;
      }
      // Out-of-range integer: fall through to double.
    }
    double d = 0.0;
    const auto [p, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      fail("invalid number");
    }
    v.kind_ = JsonValue::Kind::kDouble;
    v.double_ = d;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

std::string json_id_token(const JsonValue* id) {
  if (id == nullptr) return "null";
  switch (id->kind()) {
    case JsonValue::Kind::kString:
      return "\"" + json_escape(id->as_string("id")) + "\"";
    case JsonValue::Kind::kInt:
      return std::to_string(id->as_int("id"));
    default:
      return "null";
  }
}

}  // namespace sdlo::serve
