#include "serve/protocol.hpp"

#include <sstream>

#include "support/cli.hpp"

namespace sdlo::serve {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kTruncated: return "truncated";
    case Status::kRejected: return "rejected";
  }
  return "error";
}

Verb parse_verb(const std::string& name) {
  if (analysis::parse_verb(name)) return Verb::kAnalysis;
  if (name == "batch") return Verb::kBatch;
  if (name == "stats") return Verb::kStats;
  if (name == "ping") return Verb::kPing;
  if (name == "shutdown") return Verb::kShutdown;
  throw Error("unknown verb '" + name +
              "' (valid: analyze, misses, sweep, lint, advise, batch, "
              "stats, ping, shutdown)");
}

bool is_control_verb(Verb v) {
  return v == Verb::kStats || v == Verb::kPing || v == Verb::kShutdown;
}

namespace {

Request parse_request_object(const JsonValue& obj, bool allow_batch) {
  Request r;
  r.id_token = json_id_token(obj.find("id"));
  const JsonValue* verb = obj.find("verb");
  if (verb == nullptr) throw Error("request is missing 'verb'");
  const std::string name = verb->as_string("verb");
  r.verb = parse_verb(name);
  analysis::VerbRequest& c = r.call;
  if (r.verb == Verb::kAnalysis) c.verb = *analysis::parse_verb(name);
  if (const JsonValue* v = obj.find("program")) {
    c.program = v->as_string("program");
  }
  if (const JsonValue* v = obj.find("env")) {
    for (const auto& [sym_name, value] : v->as_object("env")) {
      c.env[sym_name] = value.as_int("env." + sym_name);
    }
  }
  if (const JsonValue* v = obj.find("cap")) c.cap = v->as_int("cap");
  if (const JsonValue* v = obj.find("line")) c.line = v->as_int("line");
  if (const JsonValue* v = obj.find("simulate")) {
    c.simulate = v->as_bool("simulate");
  }
  if (const JsonValue* v = obj.find("sites")) c.sites = v->as_bool("sites");
  if (const JsonValue* v = obj.find("engine")) {
    c.engine = v->as_string("engine");
  }
  if (const JsonValue* v = obj.find("top")) c.top = v->as_int("top");
  if (const JsonValue* v = obj.find("deadline")) {
    r.deadline_sec = v->as_double("deadline");
  }
  if (r.verb == Verb::kBatch) {
    if (!allow_batch) throw Error("batch requests cannot nest");
    const JsonValue* subs = obj.find("requests");
    if (subs == nullptr) throw Error("batch request is missing 'requests'");
    for (const JsonValue& sub : subs->as_array("requests")) {
      r.batch.push_back(
          parse_request_object(sub, /*allow_batch=*/false));
    }
  }
  return r;
}

void render_one(const Response& r, std::ostream& os, bool top_level) {
  os << "{";
  if (top_level) os << "\"version\":\"" << kVersionNumber << "\",";
  os << "\"id\":" << r.id_token << ",\"status\":\"" << status_name(r.status)
     << "\",\"cached\":" << (r.cached ? "true" : "false")
     << ",\"queue_ms\":" << r.queue_ms << ",\"run_ms\":" << r.run_ms;
  if (r.status == Status::kRejected) {
    os << ",\"retry_after_ms\":" << r.retry_after_ms;
  }
  if (!r.error.empty()) os << ",\"error\":\"" << json_escape(r.error) << "\"";
  if (r.payload.find('\n') != std::string::npos) {
    throw FramingError("response payload holds a raw newline and cannot be "
                       "framed as one line");
  }
  if (!r.payload.empty()) os << ",\"payload\":" << r.payload;
  if (!r.batch.empty()) {
    os << ",\"responses\":[";
    for (std::size_t i = 0; i < r.batch.size(); ++i) {
      if (i != 0) os << ",";
      render_one(r.batch[i], os, /*top_level=*/false);
    }
    os << "]";
  }
  os << "}";
}

}  // namespace

Request parse_request(const std::string& line) {
  const JsonValue doc = parse_json(line);
  if (!doc.is_object()) throw Error("request must be a JSON object");
  return parse_request_object(doc, /*allow_batch=*/true);
}

std::string render_response(const Response& r) {
  std::ostringstream os;
  render_one(r, os, /*top_level=*/true);
  return os.str();
}

bool take_line(std::string& buf, std::string& line) {
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return false;
  line = buf.substr(0, nl);
  buf.erase(0, nl + 1);
  return true;
}

Status parse_status(const std::string& name) {
  if (name == "ok") return Status::kOk;
  if (name == "error") return Status::kError;
  if (name == "truncated") return Status::kTruncated;
  if (name == "rejected") return Status::kRejected;
  throw Error("unknown response status '" + name + "'");
}

namespace {

/// Scans one raw JSON value starting at `pos` (which must point at its
/// first byte) and returns the position one past its end. String-aware
/// bracket matching; assumes the document already parses (callers run
/// parse_json first when they need validation).
std::size_t skip_raw_value(const std::string& s, std::size_t pos) {
  const auto fail = [&] {
    throw ParseError("json: malformed value at offset " +
                     std::to_string(pos));
  };
  if (pos >= s.size()) fail();
  const char c = s[pos];
  if (c == '"') {
    for (std::size_t i = pos + 1; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        return i + 1;
      }
    }
    fail();
  }
  if (c == '{' || c == '[') {
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = pos; i < s.size(); ++i) {
      const char d = s[i];
      if (in_string) {
        if (d == '\\') ++i;
        else if (d == '"') in_string = false;
      } else if (d == '"') {
        in_string = true;
      } else if (d == '{' || d == '[') {
        ++depth;
      } else if (d == '}' || d == ']') {
        if (--depth == 0) return i + 1;
      }
    }
    fail();
  }
  // Scalar: runs to the next delimiter.
  std::size_t i = pos;
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r') {
    ++i;
  }
  if (i == pos) fail();
  return i;
}

std::size_t skip_ws(const std::string& s, std::size_t pos) {
  while (pos < s.size() &&
         (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
          s[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

/// Splits a raw JSON array into the raw byte spans of its elements.
std::vector<std::string> split_array_elements(const std::string& raw) {
  std::vector<std::string> out;
  std::size_t pos = skip_ws(raw, 0);
  if (pos >= raw.size() || raw[pos] != '[') {
    throw ParseError("json: expected array");
  }
  pos = skip_ws(raw, pos + 1);
  if (pos < raw.size() && raw[pos] == ']') return out;
  while (true) {
    const std::size_t end = skip_raw_value(raw, pos);
    out.push_back(raw.substr(pos, end - pos));
    pos = skip_ws(raw, end);
    if (pos >= raw.size()) throw ParseError("json: unterminated array");
    if (raw[pos] == ']') break;
    if (raw[pos] != ',') throw ParseError("json: expected ',' in array");
    pos = skip_ws(raw, pos + 1);
  }
  return out;
}

Response parse_response_object(const std::string& raw) {
  // Validate + scalar access through the real parser; raw spans for the
  // byte-exact members.
  const JsonValue doc = parse_json(raw);
  Response r;
  r.id_token = json_id_token(doc.find("id"));
  if (const JsonValue* v = doc.find("status")) {
    r.status = parse_status(v->as_string("status"));
  }
  if (const JsonValue* v = doc.find("cached")) {
    r.cached = v->as_bool("cached");
  }
  if (const JsonValue* v = doc.find("queue_ms")) {
    r.queue_ms = v->as_double("queue_ms");
  }
  if (const JsonValue* v = doc.find("run_ms")) {
    r.run_ms = v->as_double("run_ms");
  }
  if (const JsonValue* v = doc.find("retry_after_ms")) {
    r.retry_after_ms = static_cast<int>(v->as_int("retry_after_ms"));
  }
  if (const JsonValue* v = doc.find("error")) {
    r.error = v->as_string("error");
  }
  for (const auto& [key, value] : top_level_members(raw)) {
    if (key == "payload") {
      r.payload = value;
    } else if (key == "responses") {
      for (const std::string& sub : split_array_elements(value)) {
        r.batch.push_back(parse_response_object(sub));
      }
    }
  }
  return r;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> top_level_members(
    const std::string& json_object) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = skip_ws(json_object, 0);
  if (pos >= json_object.size() || json_object[pos] != '{') {
    throw ParseError("json: expected object");
  }
  pos = skip_ws(json_object, pos + 1);
  if (pos < json_object.size() && json_object[pos] == '}') return out;
  while (true) {
    if (pos >= json_object.size() || json_object[pos] != '"') {
      throw ParseError("json: expected object key");
    }
    const std::size_t key_end = skip_raw_value(json_object, pos);
    // The key span includes its quotes; decode through the parser so
    // escaped keys compare correctly.
    const std::string key =
        parse_json(json_object.substr(pos, key_end - pos)).as_string("key");
    pos = skip_ws(json_object, key_end);
    if (pos >= json_object.size() || json_object[pos] != ':') {
      throw ParseError("json: expected ':' after key");
    }
    pos = skip_ws(json_object, pos + 1);
    const std::size_t val_end = skip_raw_value(json_object, pos);
    out.emplace_back(key, json_object.substr(pos, val_end - pos));
    pos = skip_ws(json_object, val_end);
    if (pos >= json_object.size()) {
      throw ParseError("json: unterminated object");
    }
    if (json_object[pos] == '}') break;
    if (json_object[pos] != ',') {
      throw ParseError("json: expected ',' in object");
    }
    pos = skip_ws(json_object, pos + 1);
  }
  return out;
}

Response parse_response(const std::string& line) {
  return parse_response_object(line);
}

std::string salvage_id_token(const std::string& line) {
  try {
    for (const auto& [key, raw] : top_level_members(line)) {
      if (key == "id") return raw;
    }
  } catch (...) {
    // Not even an object — fall through to "null".
  }
  return "null";
}

int status_exit_code(Status s) {
  switch (s) {
    case Status::kOk: return to_int(ExitCode::kOk);
    case Status::kError: return to_int(ExitCode::kError);
    case Status::kTruncated:
    case Status::kRejected: return to_int(ExitCode::kTruncated);
  }
  return to_int(ExitCode::kError);
}

}  // namespace sdlo::serve
