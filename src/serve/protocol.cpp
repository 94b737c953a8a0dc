#include "serve/protocol.hpp"

#include <map>
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
    // By name, the last duplicate winning: a bad binding is reported in
    // the same order whatever order the line spells them in.
    std::map<std::string, const JsonValue*> bindings;
    for (const auto& [sym_name, value] : v->as_object("env")) {
      bindings[sym_name] = &value;
    }
    for (const auto& [sym_name, value] : bindings) {
      c.env[sym_name] = value->as_int("env." + sym_name);
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

/// Reads one response envelope out of `line`, the document `obj` was
/// parsed from: payloads are the exact wire bytes of their span.
Response response_of(const JsonValue& obj, const std::string& line) {
  if (!obj.is_object()) throw ParseError("json: expected object");
  Response r;
  r.id_token = json_id_token(obj.find("id"));
  if (const JsonValue* v = obj.find("status")) {
    r.status = parse_status(v->as_string("status"));
  }
  if (const JsonValue* v = obj.find("cached")) {
    r.cached = v->as_bool("cached");
  }
  if (const JsonValue* v = obj.find("queue_ms")) {
    r.queue_ms = v->as_double("queue_ms");
  }
  if (const JsonValue* v = obj.find("run_ms")) {
    r.run_ms = v->as_double("run_ms");
  }
  if (const JsonValue* v = obj.find("retry_after_ms")) {
    r.retry_after_ms = static_cast<int>(v->as_int("retry_after_ms"));
  }
  if (const JsonValue* v = obj.find("error")) {
    r.error = v->as_string("error");
  }
  if (const JsonValue* v = obj.find("payload")) {
    r.payload = v->text_in(line);
  }
  if (const JsonValue* v = obj.find("responses")) {
    for (const JsonValue& sub : v->as_array("responses")) {
      r.batch.push_back(response_of(sub, line));
    }
  }
  return r;
}

}  // namespace

Response parse_response(const std::string& line) {
  return response_of(parse_json(line), line);
}

std::vector<std::pair<std::string, std::string>> top_level_members(
    const std::string& json_object) {
  const JsonValue doc = parse_json(json_object);
  if (!doc.is_object()) throw ParseError("json: expected object");
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, value] : doc.as_object("object")) {
    out.emplace_back(key, value.text_in(json_object));
  }
  return out;
}

std::string salvage_id_token(const std::string& line) {
  try {
    return json_id_token(parse_json(line).find("id"));
  } catch (const ParseError&) {
    return "null";  // not JSON: nothing in it can be echoed
  }
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
