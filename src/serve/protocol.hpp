// Wire protocol of the `sdlo serve` daemon (DESIGN.md §16).
//
// Transport: newline-delimited JSON over a Unix-domain stream socket. One
// request per line, one response line per request; a client pipelining
// several requests matches responses by the echoed `id` (responses may
// complete out of order). Both directions read JSON through parse_json
// alone (serve/json.hpp).
//
// Request object:
//
//   {"id": <string|int>,          optional, echoed (any other id, and a
//                                 line that is not JSON, answer null)
//    "verb": "analyze"|"misses"|"sweep"|"lint"|"advise"
//            |"batch"|"stats"|"ping"|"shutdown",
//    "program": "<textual IR>",   analysis verbs
//    "env": {"N": 512, ...},      symbol bindings (integers)
//    "cap": 4096,                 misses/lint/advise capacity (elements)
//    "line": 4,                   sweep/lint/advise line size (elements)
//    "simulate": true,            misses: cross-check with the simulator
//    "sites": true,               sweep: per-site breakdown
//    "engine": "symbolic",        sweep engine (default: planned from the
//                                 trace's size, as `sdlo sweep` plans it)
//    "top": 3,                    advise: max recommendations
//    "deadline": 0.5,             per-request wall-clock ceiling (seconds)
//    "requests": [...]}           batch: sub-request objects (no nesting)
//
// The analysis fields are the flags of `sdlo <verb>`: an absent field
// takes the CLI's default, and a present one must be valid — one
// analysis::run_verb (analysis/verbs.hpp) sits behind both front doors, so
// `"cap":-5` is the error `sdlo misses --cap -5` prints, never a default.
//
// Response envelope (one line):
//
//   {"version":"...","id":...,
//    "status":"ok"|"error"|"truncated"|"rejected",
//    "cached":true|false,"queue_ms":...,"run_ms":...,
//    "payload":{...}              the verb's JSON document, byte-identical
//                                 to the equivalent CLI --json invocation
//    "error":"...",               status error only
//    "retry_after_ms":N,          status rejected only (admission shed)
//    "responses":[...]}           batch only: per-sub-request envelopes
//
// `status` mirrors the CLI exit-code taxonomy (support/cli.hpp): ok ↔ 0,
// error ↔ 1, truncated ↔ 2 (a valid partial payload); `rejected` is the
// daemon-only fourth state — admission control shed the request before it
// ran, and the client should retry after `retry_after_ms`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verbs.hpp"
#include "serve/json.hpp"

namespace sdlo::serve {

/// Terminal state of one request, mirroring the CLI exit-code taxonomy
/// plus the daemon-only admission-shed state.
enum class Status : std::uint8_t { kOk, kError, kTruncated, kRejected };

/// "ok" / "error" / "truncated" / "rejected".
const char* status_name(Status s);

/// Protocol verbs. kAnalysis is any of the five analysis verbs, which
/// Request::call names; the control verbs (stats/ping/shutdown) are
/// daemon-only and bypass admission.
enum class Verb : std::uint8_t { kAnalysis, kBatch, kStats, kPing, kShutdown };

/// Parses a verb name; throws sdlo::Error listing the valid verbs.
Verb parse_verb(const std::string& name);

/// True for stats/ping/shutdown: answered inline, never queued.
bool is_control_verb(Verb v);

/// One parsed request (or batch sub-request).
struct Request {
  std::string id_token = "null";  ///< raw JSON token echoed in the response
  Verb verb = Verb::kPing;
  /// Analysis verbs: the question, exactly as `sdlo <verb>` builds it from
  /// its flags; analysis::run_verb checks and runs it.
  analysis::VerbRequest call;
  double deadline_sec = 0;        ///< 0 = server default
  std::vector<Request> batch;     ///< kBatch sub-requests
};

/// Parses one request line. Throws ParseError (malformed JSON) or Error
/// (bad field types, unknown verb, nested batch).
Request parse_request(const std::string& line);

/// One response envelope.
struct Response {
  std::string id_token = "null";
  Status status = Status::kOk;
  bool cached = false;            ///< payload came from the memo cache
  double queue_ms = 0;            ///< admission → start of execution
  double run_ms = 0;              ///< execution wall time
  std::string payload;            ///< verb JSON document (no trailing \n)
  std::string error;              ///< status kError
  int retry_after_ms = 0;         ///< status kRejected
  std::vector<Response> batch;    ///< kBatch sub-responses
};

/// Thrown when a response cannot be framed as one NDJSON line: a payload
/// (the verb's JSON document, spliced in verbatim) holds a raw newline.
class FramingError : public Error {
 public:
  using Error::Error;
};

/// Renders the one-line envelope (no trailing newline). Throws
/// FramingError rather than emit a line a client would split.
std::string render_response(const Response& r);

/// The NDJSON line reader: when `buf` holds a complete line, removes it
/// (and its '\n') from `buf` and returns it; otherwise leaves `buf` alone
/// and returns false. serve::Client reads every response through this.
bool take_line(std::string& buf, std::string& line);

/// Parses "ok"/"error"/"truncated"/"rejected"; throws sdlo::Error else.
Status parse_status(const std::string& name);

/// Parses a response line back into the envelope. `payload` (and each
/// batch sub-payload) carries the *exact bytes* of the wire document —
/// the span parse_json recorded, never re-serialized — so clients and
/// tests can assert bit-identity against the CLI emitters.
Response parse_response(const std::string& line);

/// Splits the top-level members of one JSON object into (key, raw value
/// bytes) pairs, in document order. Throws ParseError on malformed input.
/// The raw spans preserve the wire bytes exactly.
std::vector<std::pair<std::string, std::string>> top_level_members(
    const std::string& json_object);

/// The id token of a line that failed request parsing, so a transport can
/// still address its error response: json_id_token of the line's `id`
/// when the line is JSON, else "null" — never bytes that are not JSON.
std::string salvage_id_token(const std::string& line);

/// Maps a response status onto the shared CLI exit-code taxonomy:
/// ok → 0, error → 1, truncated and rejected → 2 (resource states).
int status_exit_code(Status s);

}  // namespace sdlo::serve
