// Unit and end-to-end tests for the `sdlo serve` daemon (DESIGN.md §16):
// the strict JSON reader, the NDJSON protocol codec, the memo cache
// (including an injected hash collision), the deterministic retry backoff
// schedule, the transport-independent Service, and the Unix-socket Server
// with real concurrent clients, admission shedding, mid-request
// disconnects and the serve failpoint sites.
//
// The headline promise — a response payload byte-identical to the
// equivalent CLI invocation — is asserted here against the shared
// emitters directly (the fuzz `serve` oracle enforces the same property
// over generated programs).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/misses_driver.hpp"
#include "analysis/verbs.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/memo_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/failpoints.hpp"

namespace sdlo {
namespace {

// A tiny two-loop program in the repo grammar, plus a differently
// formatted rendition of the same structure (extra whitespace and blank
// lines) for the canonicalization tests.
constexpr const char* kProgram = "for i<N>, j<N> {\n  S1: B[i] += A[j]\n}\n";
constexpr const char* kProgramReformatted =
    "\nfor i<N>,  j<N>  {\n\n    S1:  B[i] += A[j]\n}\n\n";

std::string socket_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("sdlo_serve_" + std::to_string(::getpid()) + "_" + tag + ".sock"))
      .string();
}

/// Builds one analysis request line with env {"N": n}.
std::string analysis_request(const std::string& id, const std::string& verb,
                             const std::string& program, std::int64_t n = 12,
                             const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"verb\":\"" + verb + "\",\"program\":\"" +
         serve::json_escape(program) + "\",\"env\":{\"N\":" +
         std::to_string(n) + "}" + extra + "}";
}

/// Request lines whose id the daemon cannot echo: three are not JSON (a
/// bare token, a bad escape, a raw control byte in a string) and one has
/// an object id.
const std::vector<std::string> kUnechoableIdLines = {
    "{\"id\":12x,\"verb\":\"ping\"}",
    "{\"id\":\"a\\q\",\"verb\":\"misses\"}",
    "{\"id\":\"a\x01\",\"verb\":\"ping\"}",
    "{\"id\":{\"k\":[1,2]},\"verb\":\"nope\"}",
};

/// The exact bytes `sdlo misses --json` prints (trailing newline chomped,
/// as the envelope embeds the document mid-line).
std::string expected_misses_payload(const std::string& text,
                                    std::int64_t n, std::int64_t cap = 8192,
                                    bool simulate = false) {
  const auto prog = ir::parse_program(text);
  analysis::MissesOptions mo;
  mo.capacity = cap;
  mo.simulate = simulate;
  const auto oc = analysis::run_misses(prog, {{"N", n}}, mo);
  std::ostringstream os;
  analysis::render_misses_json(oc, os);
  std::string s = os.str();
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesTypedValuesAndKeepsIntegerIdentity) {
  const auto v = serve::parse_json(
      "{\"a\":1,\"b\":-2,\"big\":4611686018427387904,\"t\":true,"
      "\"s\":\"x\\ny\",\"arr\":[1,2],\"obj\":{\"n\":null},\"d\":1.5}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_int("a"), 1);
  EXPECT_EQ(v.find("b")->as_int("b"), -2);
  // A 62-bit integer must not round-trip through double.
  EXPECT_EQ(v.find("big")->as_int("big"), 4611686018427387904LL);
  EXPECT_TRUE(v.find("t")->as_bool("t"));
  EXPECT_EQ(v.find("s")->as_string("s"), "x\ny");
  EXPECT_EQ(v.find("arr")->as_array("arr").size(), 2u);
  EXPECT_TRUE(v.find("obj")->find("n")->is_null());
  EXPECT_DOUBLE_EQ(v.find("d")->as_double("d"), 1.5);
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(ServeJson, RejectsMalformedInputWithTypedErrors) {
  EXPECT_THROW(serve::parse_json("{} trailing"), Error);
  EXPECT_THROW(serve::parse_json("{\"a\":\"unterminated"), Error);
  EXPECT_THROW(serve::parse_json("{\"a\":\"bad \\q escape\"}"), Error);
  EXPECT_THROW(serve::parse_json("{\"a\":01}"), Error);
  EXPECT_THROW(serve::parse_json(""), Error);
  // A hostile deep-nesting line must hit the bound, not the thread stack.
  std::string deep(100000, '[');
  EXPECT_THROW(serve::parse_json(deep), Error);
}

TEST(ServeJson, EscapeCoversQuotesAndControls) {
  EXPECT_EQ(serve::json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(serve::json_escape(std::string(1, '\x01')), "\\u0001");
}

// ---------------------------------------------------------------------------
// Protocol codec
// ---------------------------------------------------------------------------

TEST(ServeProtocol, RequestDefaultsMatchFlaglessCli) {
  const auto req = serve::parse_request(analysis_request("r1", "misses",
                                                         kProgram));
  EXPECT_EQ(req.verb, serve::Verb::kAnalysis);
  EXPECT_EQ(req.id_token, "\"r1\"");
  EXPECT_EQ(req.call.verb, analysis::Verb::kMisses);
  // Absent knobs stay absent: run_verb gives them the CLI's defaults.
  EXPECT_FALSE(req.call.cap.has_value());
  EXPECT_FALSE(req.call.line.has_value());
  EXPECT_FALSE(req.call.simulate);
  EXPECT_FALSE(req.call.engine.has_value());  // planned, as the CLI
  EXPECT_EQ(req.deadline_sec, 0.0);
  EXPECT_EQ(req.call.env.at("N"), 12);

  // Every verb and knob case of the fuzz serve family decodes into the
  // question `sdlo <verb>` asks with the same flags, once both resolve.
  using analysis::Verb;
  struct Case {
    analysis::VerbRequest cli;
    std::string extra;  ///< the same knobs as request members
  };
  const std::vector<Case> cases = {
      {{.verb = Verb::kAnalyze}, ""},
      {{.verb = Verb::kMisses, .cap = 21}, ",\"cap\":21"},
      {{.verb = Verb::kLint}, ""},
      {{.verb = Verb::kMisses, .cap = 21, .simulate = true},
       ",\"cap\":21,\"simulate\":true"},
      {{.verb = Verb::kSweep}, ""},
      {{.verb = Verb::kSweep, .engine = "symbolic"},
       ",\"engine\":\"symbolic\""},
      {{.verb = Verb::kSweep, .sites = true}, ",\"sites\":true"},
      {{.verb = Verb::kSweep, .line = 4}, ",\"line\":4"},
      {{.verb = Verb::kAdvise}, ""},
  };
  for (Case c : cases) {
    c.cli.program = kProgram;
    c.cli.env = {{"N", 12}};
    const std::string verb = analysis::verb_name(c.cli.verb);
    const auto decoded =
        serve::parse_request(analysis_request("r", verb, kProgram, 12,
                                              c.extra));
    EXPECT_TRUE(analysis::resolve(decoded.call) == analysis::resolve(c.cli))
        << verb << c.extra;
  }
}

TEST(ServeProtocol, IdTokenIsEchoedVerbatim) {
  EXPECT_EQ(serve::parse_request("{\"id\":7,\"verb\":\"ping\"}").id_token,
            "7");
  EXPECT_EQ(serve::parse_request("{\"id\":\"a b\",\"verb\":\"ping\"}")
                .id_token,
            "\"a b\"");
  EXPECT_EQ(serve::parse_request("{\"verb\":\"ping\"}").id_token, "null");
}

TEST(ServeProtocol, BadRequestsThrowTypedErrors) {
  EXPECT_THROW(serve::parse_request("not json"), Error);
  EXPECT_THROW(serve::parse_request("{\"verb\":\"frobnicate\"}"), Error);
  // Nested batches are rejected outright.
  EXPECT_THROW(serve::parse_request(
                   "{\"verb\":\"batch\",\"requests\":[{\"verb\":\"batch\","
                   "\"requests\":[]}]}"),
               Error);
}

TEST(ServeProtocol, ResponseRoundTripPreservesPayloadBytes) {
  serve::Response r;
  r.id_token = "\"x\"";
  r.status = serve::Status::kOk;
  r.cached = true;
  r.payload = "{\"version\":\"1\",\"rows\":[1,2,{\"k\":\"v\"}]}";
  const auto back = serve::parse_response(serve::render_response(r));
  EXPECT_EQ(back.id_token, "\"x\"");
  EXPECT_EQ(back.status, serve::Status::kOk);
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.payload, r.payload);  // exact wire bytes, never reprinted

  serve::Response rej;
  rej.status = serve::Status::kRejected;
  rej.retry_after_ms = 75;
  const auto rej_line = serve::render_response(rej);
  EXPECT_NE(rej_line.find("\"retry_after_ms\":75"), std::string::npos);
  EXPECT_EQ(serve::parse_response(rej_line).retry_after_ms, 75);
  // The hint is a rejection-only field.
  EXPECT_EQ(serve::render_response(r).find("retry_after_ms"),
            std::string::npos);

  serve::Response batch;
  batch.id_token = "1";
  batch.status = serve::Status::kTruncated;
  batch.batch.push_back(r);
  batch.batch.push_back(rej);
  const auto bb = serve::parse_response(serve::render_response(batch));
  ASSERT_EQ(bb.batch.size(), 2u);
  EXPECT_EQ(bb.batch[0].payload, r.payload);
  EXPECT_EQ(bb.batch[1].status, serve::Status::kRejected);

  // A payload with a raw newline cannot be one NDJSON line: refused, typed,
  // also when it hides in a batch sub-response.
  serve::Response broken = r;
  broken.payload = "{\n\"version\":\"1\"\n}";
  EXPECT_THROW(serve::render_response(broken), serve::FramingError);
  batch.batch.push_back(broken);
  EXPECT_THROW(serve::render_response(batch), serve::FramingError);

  // The client's line reader takes exactly one line at a time.
  std::string buf = serve::render_response(r) + "\n{\"id\":2";
  std::string line;
  ASSERT_TRUE(serve::take_line(buf, line));
  EXPECT_EQ(serve::parse_response(line).payload, r.payload);
  EXPECT_EQ(buf, "{\"id\":2");
  EXPECT_FALSE(serve::take_line(buf, line));
}

TEST(ServeProtocol, SalvagesIdFromUnparseableLines) {
  EXPECT_EQ(serve::salvage_id_token(
                "{\"id\":42,\"verb\":\"frobnicate\",\"x\":true}"),
            "42");
  EXPECT_EQ(serve::salvage_id_token("{\"id\":\"r 1\",\"verb\":\"nope\"}"),
            "\"r 1\"");
  EXPECT_EQ(serve::salvage_id_token("complete garbage"), "null");
  // A line that is not JSON has no id to echo, and an id that is neither
  // a string nor an integer is never echoed.
  for (const std::string& line : kUnechoableIdLines) {
    EXPECT_EQ(serve::salvage_id_token(line), "null") << line;
  }
}

TEST(ServeProtocol, StatusMirrorsCliExitCodes) {
  EXPECT_EQ(serve::status_exit_code(serve::Status::kOk), 0);
  EXPECT_EQ(serve::status_exit_code(serve::Status::kError), 1);
  EXPECT_EQ(serve::status_exit_code(serve::Status::kTruncated), 2);
  EXPECT_EQ(serve::status_exit_code(serve::Status::kRejected), 2);
}

// ---------------------------------------------------------------------------
// Backoff schedule (deterministic, pure)
// ---------------------------------------------------------------------------

TEST(ServeBackoff, DefaultScheduleIsExponentialAndCapped) {
  const serve::BackoffPolicy p;
  const std::vector<int> want{25, 50, 100, 200, 400, 800, 1600, 2000, 2000};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(p.delay_ms(static_cast<int>(i)), want[i]) << "attempt " << i;
  }
  EXPECT_EQ(p.delay_ms(1000), 2000);  // stays capped, never overflows
}

TEST(ServeBackoff, CustomPolicyIsPure) {
  serve::BackoffPolicy p;
  p.base_ms = 10;
  p.factor = 3.0;
  p.max_wait_ms = 100;
  EXPECT_EQ(p.delay_ms(0), 10);
  EXPECT_EQ(p.delay_ms(1), 30);
  EXPECT_EQ(p.delay_ms(2), 90);
  EXPECT_EQ(p.delay_ms(3), 100);
  EXPECT_EQ(p.delay_ms(0), 10);  // no hidden state
}

// ---------------------------------------------------------------------------
// Memo cache
// ---------------------------------------------------------------------------

TEST(ServeMemoCache, LruEvictsLeastRecentlyUsed) {
  serve::MemoCache cache(2);
  cache.insert("key-a", "payload-a");
  cache.insert("key-b", "payload-b");
  // Distinct keys keep their own payloads; an absent key misses.
  EXPECT_EQ(*cache.lookup("key-b"), "payload-b");
  EXPECT_FALSE(cache.lookup("key-c").has_value());
  ASSERT_TRUE(cache.lookup("key-a").has_value());  // refresh a
  EXPECT_EQ(*cache.lookup("key-a"), "payload-a");
  cache.insert("key-c", "payload-c");  // evicts b
  EXPECT_TRUE(cache.lookup("key-a").has_value());
  EXPECT_FALSE(cache.lookup("key-b").has_value());
  EXPECT_EQ(*cache.lookup("key-c"), "payload-c");
  const auto st = cache.stats();
  EXPECT_EQ(st.insertions, 3u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeMemoCache, ReinsertRefreshesPayloadAndZeroEntriesDisables) {
  serve::MemoCache cache(2);
  cache.insert("a", "old");
  cache.insert("a", "new");
  EXPECT_EQ(*cache.lookup("a"), "new");
  EXPECT_EQ(cache.size(), 1u);

  serve::MemoCache off(0);
  off.insert("a", "A");
  EXPECT_FALSE(off.lookup("a").has_value());
}

// ---------------------------------------------------------------------------
// Service (transport-independent)
// ---------------------------------------------------------------------------

TEST(ServeService, MissesPayloadIsByteIdenticalToCliEmitterAndCaches) {
  serve::Service svc;
  const auto line = analysis_request("m", "misses", kProgram);
  const auto first = svc.handle_line(line);
  ASSERT_EQ(first.status, serve::Status::kOk) << first.error;
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.payload, expected_misses_payload(kProgram, 12));

  // The repeat must hit the memo cache and return the *same bytes*.
  const auto second = svc.handle_line(line);
  ASSERT_EQ(second.status, serve::Status::kOk);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_GE(svc.cache().stats().hits, 1u);
}

TEST(ServeService, CanonicalizationSharesTheCacheEntryAcrossFormatting) {
  // Two textually different programs with one structure must share a memo
  // entry: the key is the parser → printer round trip, not the raw bytes.
  ASSERT_EQ(ir::to_code_string(ir::parse_program(kProgram)),
            ir::to_code_string(ir::parse_program(kProgramReformatted)));
  serve::Service svc;
  const auto a = svc.handle_line(analysis_request("a", "misses", kProgram));
  const auto b = svc.handle_line(
      analysis_request("b", "misses", kProgramReformatted));
  ASSERT_EQ(a.status, serve::Status::kOk) << a.error;
  ASSERT_EQ(b.status, serve::Status::kOk) << b.error;
  EXPECT_FALSE(a.cached);
  EXPECT_TRUE(b.cached);
  EXPECT_EQ(b.payload, a.payload);
}

TEST(ServeService, CacheKeyDistinguishesConfigurations) {
  serve::Service svc;
  const auto cap64 = svc.handle_line(
      analysis_request("c1", "misses", kProgram, 12, ",\"cap\":64"));
  const auto cap4 = svc.handle_line(
      analysis_request("c2", "misses", kProgram, 12, ",\"cap\":4"));
  const auto env16 = svc.handle_line(
      analysis_request("c3", "misses", kProgram, 16, ",\"cap\":64"));
  ASSERT_EQ(cap64.status, serve::Status::kOk) << cap64.error;
  ASSERT_EQ(cap4.status, serve::Status::kOk) << cap4.error;
  ASSERT_EQ(env16.status, serve::Status::kOk) << env16.error;
  // Different capacity or bindings: fresh computation, never a stale hit.
  EXPECT_FALSE(cap4.cached);
  EXPECT_FALSE(env16.cached);
  EXPECT_EQ(cap64.payload, expected_misses_payload(kProgram, 12, 64));
  EXPECT_EQ(cap4.payload, expected_misses_payload(kProgram, 12, 4));
  EXPECT_EQ(env16.payload, expected_misses_payload(kProgram, 16, 64));
  // Same verb, different verbs' documents must not cross-pollinate either.
  const auto analyze = svc.handle_line(
      analysis_request("c4", "analyze", kProgram, 12));
  ASSERT_EQ(analyze.status, serve::Status::kOk) << analyze.error;
  EXPECT_FALSE(analyze.cached);
  EXPECT_NE(analyze.payload, cap64.payload);
}

TEST(ServeService, MalformedAndInvalidRequestsBecomeTypedErrorResponses) {
  serve::Service svc;
  const auto garbage = svc.handle_line("{\"id\":9,\"verb\":\"frobnicate\"}");
  EXPECT_EQ(garbage.status, serve::Status::kError);
  EXPECT_EQ(garbage.id_token, "9");  // salvaged from the broken line
  EXPECT_FALSE(garbage.error.empty());
  const auto named = svc.handle_line("{\"id\":\"q\",\"verb\":\"frobnicate\"}");
  EXPECT_EQ(named.id_token, "\"q\"");

  // Every reply is one JSON line, addressed to id null when the request's
  // id cannot be echoed.
  for (const std::string& line : kUnechoableIdLines) {
    const auto resp = svc.handle_line(line);
    EXPECT_EQ(resp.status, serve::Status::kError) << line;
    const serve::JsonValue envelope =
        serve::parse_json(serve::render_response(resp));
    ASSERT_NE(envelope.find("id"), nullptr) << line;
    EXPECT_TRUE(envelope.find("id")->is_null()) << line;
  }

  const auto missing = svc.handle_line("{\"id\":1,\"verb\":\"misses\"}");
  EXPECT_EQ(missing.status, serve::Status::kError);
  EXPECT_NE(missing.error.find("program"), std::string::npos);

  serve::ServiceOptions small;
  small.max_program_bytes = 8;
  serve::Service tiny(small);
  const auto oversize =
      tiny.handle_line(analysis_request("big", "misses", kProgram));
  EXPECT_EQ(oversize.status, serve::Status::kError);
  EXPECT_NE(oversize.error.find("bytes"), std::string::npos);
}

TEST(ServeService, OutOfRangeCapacityIsATypedErrorWithTheCliText) {
  // The CLI prints the driver's message and exits 1; the daemon answers
  // with the same text in a typed error response.
  serve::Service svc;
  std::string want;
  try {
    analysis::MissesOptions mo;
    mo.capacity = 0;
    analysis::run_misses(ir::parse_program(kProgram), {{"N", 12}}, mo);
  } catch (const Error& e) {
    want = e.what();
  }
  EXPECT_NE(want.find("--cap must be at least 1"), std::string::npos);
  for (const std::string verb : {"misses", "advise"}) {
    const auto resp = svc.handle_line(
        analysis_request("c", verb, kProgram, 12, ",\"cap\":0"));
    EXPECT_EQ(resp.status, serve::Status::kError) << verb;
    EXPECT_TRUE(resp.payload.empty()) << verb;
    EXPECT_EQ(resp.error, want) << verb;
  }
  // lint takes 0 as "no capacity checks".
  const auto lint = svc.handle_line(
      analysis_request("l", "lint", kProgram, 12, ",\"cap\":0"));
  EXPECT_EQ(lint.status, serve::Status::kOk) << lint.error;
}

TEST(ServeService, NonPowerOfTwoLineIsATypedErrorWithoutSourcePaths) {
  serve::Service svc;
  const auto resp = svc.handle_line(
      analysis_request("s", "sweep", kProgram, 12, ",\"line\":3"));
  EXPECT_EQ(resp.status, serve::Status::kError);
  EXPECT_TRUE(resp.payload.empty());
  EXPECT_NE(resp.error.find("--line must be a positive power of two"),
            std::string::npos)
      << resp.error;
  EXPECT_EQ(resp.error.find(".cpp"), std::string::npos) << resp.error;
  // A present line must be valid: 0 is the same error, not the default.
  const auto zero = svc.handle_line(
      analysis_request("z", "sweep", kProgram, 12, ",\"line\":0"));
  EXPECT_EQ(zero.status, serve::Status::kError);
  EXPECT_TRUE(zero.payload.empty());
  EXPECT_NE(zero.error.find("--line must be a positive power of two"),
            std::string::npos)
      << zero.error;
  // An absent line keeps the element-granular default.
  const auto absent =
      svc.handle_line(analysis_request("a", "sweep", kProgram, 12));
  EXPECT_EQ(absent.status, serve::Status::kOk) << absent.error;
}

TEST(ServeService, LintStatusMirrorsTheCliExit) {
  serve::Service svc;
  // A reference to an unbound index is a lint error: full report payload,
  // status error — exactly like `sdlo lint` printing and exiting 1.
  const char* bad = "for i<N> {\n  S1: A[i] += A[j]\n}\n";
  const auto rep = analysis::lint_text(bad, {});
  const auto resp = svc.handle_line(analysis_request("l", "lint", bad));
  if (rep.ok()) {
    EXPECT_EQ(resp.status, serve::Status::kOk);
  } else {
    EXPECT_EQ(resp.status, serve::Status::kError);
    EXPECT_FALSE(resp.payload.empty());  // the report still ships
    EXPECT_NE(resp.error.find("lint"), std::string::npos);
  }
}

TEST(ServeService, ExpiredDeadlineTruncatesAndIsNotCached) {
  // An already-expired deadline is the deterministic worst case: analyze
  // has no partial result, so the escaping BudgetExceeded becomes a
  // truncated response with an empty payload — never a crash, never a
  // complete-looking answer.
  serve::Service svc;
  const auto truncated = svc.handle_line(analysis_request(
      "t", "analyze", kProgram, 12, ",\"deadline\":1e-9"));
  ASSERT_EQ(truncated.status, serve::Status::kTruncated) << truncated.error;
  EXPECT_TRUE(truncated.payload.empty());
  EXPECT_FALSE(truncated.error.empty());

  // The deadline is excluded from the cache key, so the truncated run must
  // NOT have been memoized: the same work without a deadline recomputes in
  // full, and only then does the entry exist.
  const auto line = analysis_request("t2", "analyze", kProgram, 12);
  const auto full = svc.handle_line(line);
  ASSERT_EQ(full.status, serve::Status::kOk) << full.error;
  EXPECT_FALSE(full.cached);
  EXPECT_FALSE(full.payload.empty());
  const auto repeat = svc.handle_line(line);
  EXPECT_TRUE(repeat.cached);
  EXPECT_EQ(repeat.payload, full.payload);
}

TEST(ServeService, DeadlinePastTheClockRangeRunsComplete) {
  // With the clamp off, a default deadline past the clock's range reaches
  // the governor unchanged and must mean no deadline at all.
  serve::ServiceOptions opts;
  opts.default_deadline_sec = 1e300;
  opts.max_deadline_sec = 0;
  serve::Service svc(opts);
  // 1600 run groups: past the first governor poll of the walk.
  const auto resp = svc.handle_line(analysis_request(
      "d", "sweep",
      "for i<N>, j<N>, k<N> {\n  S1: C[i,k] += A[i,j] * B[j,k]\n}\n", 40));
  ASSERT_EQ(resp.status, serve::Status::kOk) << resp.error;
  EXPECT_NE(resp.payload.find("\"completeness\":\"complete\""),
            std::string::npos)
      << resp.payload;
}

TEST(ServeService, BatchRunsSubRequestsAndReportsWorstStatus) {
  serve::Service svc;
  const std::string line =
      "{\"id\":\"b\",\"verb\":\"batch\",\"requests\":["
      "{\"id\":1,\"verb\":\"misses\",\"program\":\"" +
      serve::json_escape(kProgram) +
      "\",\"env\":{\"N\":12}},"
      "{\"id\":2,\"verb\":\"misses\"},"  // missing program: error
      "{\"id\":3,\"verb\":\"ping\"}]}";
  const auto resp = svc.handle_line(line);
  EXPECT_EQ(resp.status, serve::Status::kError);  // worst of the three
  ASSERT_EQ(resp.batch.size(), 3u);
  EXPECT_EQ(resp.batch[0].status, serve::Status::kOk);
  EXPECT_EQ(resp.batch[0].payload, expected_misses_payload(kProgram, 12));
  EXPECT_EQ(resp.batch[1].status, serve::Status::kError);
  EXPECT_EQ(resp.batch[2].status, serve::Status::kOk);
  EXPECT_NE(resp.batch[2].payload.find("\"pong\":true"), std::string::npos);
}

TEST(ServeService, AdmissionBoundShedsWithGrowingHint) {
  serve::ServiceOptions opts;
  opts.max_active = 0;
  serve::Service svc(opts);
  const auto shed =
      svc.handle_line(analysis_request("s", "misses", kProgram));
  EXPECT_EQ(shed.status, serve::Status::kRejected);
  EXPECT_EQ(shed.retry_after_ms, 25);  // 25 ms per request past the bound
  EXPECT_EQ(svc.metrics().snapshot().shed, 1u);
  // Control verbs bypass admission entirely.
  const auto pong = svc.handle_line("{\"verb\":\"ping\"}");
  EXPECT_EQ(pong.status, serve::Status::kOk);
}

TEST(ServeService, StatsAndShutdownVerbs) {
  serve::Service svc;
  (void)svc.handle_line(analysis_request("x", "misses", kProgram));
  const auto stats = svc.handle_line("{\"id\":\"st\",\"verb\":\"stats\"}");
  ASSERT_EQ(stats.status, serve::Status::kOk);
  const auto doc = serve::parse_json(stats.payload);  // valid JSON document
  ASSERT_NE(doc.find("requests"), nullptr);
  EXPECT_GE(doc.find("requests")->find("received")->as_int("received"), 1);
  EXPECT_NE(doc.find("cache"), nullptr);
  EXPECT_NE(doc.find("connections"), nullptr);

  EXPECT_FALSE(svc.shutdown_requested());
  const auto bye = svc.handle_line("{\"verb\":\"shutdown\"}");
  EXPECT_NE(bye.payload.find("\"shutting_down\":true"), std::string::npos);
  EXPECT_TRUE(svc.shutdown_requested());
}

// ---------------------------------------------------------------------------
// Server + Client (real Unix sockets)
// ---------------------------------------------------------------------------

TEST(ServeServer, EndToEndPayloadMatchesCliEmitterIncludingCacheHit) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("e2e");
  opts.workers = 2;
  serve::Server server(opts);
  server.start_background();

  serve::Client client(opts.socket_path);
  const auto line = analysis_request("e", "misses", kProgram);
  const auto first = client.request(line);
  ASSERT_EQ(first.status, serve::Status::kOk) << first.error;
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.payload, expected_misses_payload(kProgram, 12));
  const auto second = client.request(line);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.payload, first.payload);

  // lint and advise replies arrive as one line each, byte-identical to the
  // CLI emitters.
  std::ostringstream lint_json;
  analysis::LintOptions lo;
  lo.env = {{"N", 12}};
  analysis::render_json(analysis::lint_text(kProgram, lo), lint_json);
  const auto lint = client.request(analysis_request("l", "lint", kProgram));
  EXPECT_EQ(lint.payload + "\n", lint_json.str());
  const auto advise =
      client.request(analysis_request("a", "advise", kProgram));
  ASSERT_EQ(advise.status, serve::Status::kOk) << advise.error;
  EXPECT_NE(advise.payload.find("\"baseline\":"), std::string::npos);

  server.stop();
  EXPECT_FALSE(std::filesystem::exists(opts.socket_path));  // unlinked
}

TEST(ServeServer, PipelinedRequestsCompleteOutOfOrderMatchedById) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("pipeline");
  opts.workers = 2;
  serve::Server server(opts);
  server.start_background();

  serve::Client client(opts.socket_path);
  // A slow analysis followed by an inline control verb: the pong routinely
  // overtakes the pooled request, so responses are matched by id.
  client.send_line(analysis_request("slow", "misses", kProgram, 64,
                                    ",\"simulate\":true"));
  client.send_line("{\"id\":\"fast\",\"verb\":\"ping\"}");
  std::map<std::string, serve::Response> by_id;
  for (int i = 0; i < 2; ++i) {
    const auto resp = serve::parse_response(client.recv_line());
    by_id[resp.id_token] = resp;
  }
  ASSERT_EQ(by_id.count("\"slow\""), 1u);
  ASSERT_EQ(by_id.count("\"fast\""), 1u);
  EXPECT_EQ(by_id["\"slow\""].status, serve::Status::kOk);
  EXPECT_EQ(by_id["\"slow\""].payload,
            expected_misses_payload(kProgram, 64, 8192, true));
  EXPECT_NE(by_id["\"fast\""].payload.find("\"pong\":true"),
            std::string::npos);
  server.stop();
}

TEST(ServeServer, ConcurrentClientsGetConsistentUncorruptedResponses) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("concurrent");
  opts.workers = 4;
  serve::Server server(opts);
  server.start_background();

  const auto expected = expected_misses_payload(kProgram, 12);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::Client client(opts.socket_path);
        for (int i = 0; i < 6; ++i) {
          const auto id = std::to_string(c) + "-" + std::to_string(i);
          const auto resp =
              client.request(analysis_request(id, "misses", kProgram));
          if (resp.status != serve::Status::kOk ||
              resp.payload != expected ||
              resp.id_token != "\"" + id + "\"") {
            failures.fetch_add(1);
          }
        }
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every line parsed and every payload matched: no interleaved writes.
  const auto snap = server.service().metrics().snapshot();
  EXPECT_GE(snap.completed, 24u);
  EXPECT_GE(snap.cached, 1u);  // 24 identical requests: the cache worked
  server.stop();
}

TEST(ServeServer, ShedClientRetriesHonoringServerHintDeterministically) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("shed");
  opts.service.max_active = 0;  // every analysis request is shed
  serve::Server server(opts);
  server.start_background();

  serve::Client client(opts.socket_path);
  serve::BackoffPolicy policy;
  policy.base_ms = 1;  // schedule 1,2,4 — all below the 25 ms server hint
  policy.factor = 2.0;
  policy.max_attempts = 4;
  std::vector<int> slept;
  const auto out = serve::request_with_retry(
      client, analysis_request("r", "misses", kProgram), policy,
      [&slept](int ms) { slept.push_back(ms); });
  EXPECT_EQ(out.response.status, serve::Status::kRejected);
  EXPECT_EQ(out.attempts, 4);
  // Wait = max(schedule, server hint): the 25 ms hint dominates each time.
  EXPECT_EQ(out.waits_ms, (std::vector<int>{25, 25, 25}));
  EXPECT_EQ(slept, out.waits_ms);

  // With a steeper schedule the policy dominates past the hint.
  serve::BackoffPolicy steep;  // 25, 50, 100
  steep.max_attempts = 4;
  std::vector<int> slept2;
  const auto out2 = serve::request_with_retry(
      client, analysis_request("r2", "misses", kProgram), steep,
      [&slept2](int ms) { slept2.push_back(ms); });
  EXPECT_EQ(out2.waits_ms, (std::vector<int>{25, 50, 100}));
  EXPECT_EQ(server.service().metrics().snapshot().shed, 8u);
  server.stop();
}

TEST(ServeServer, MidRequestDisconnectCancelsAndDaemonStaysHealthy) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("disconnect");
  opts.workers = 1;
  serve::Server server(opts);
  server.start_background();

  {
    serve::Client doomed(opts.socket_path);
    doomed.send_line(analysis_request("gone", "misses", kProgram, 128,
                                      ",\"simulate\":true"));
    // Destructor closes the socket: the reader sees EOF and trips the
    // connection's cancel token while the request may still be running.
  }
  // The orphaned request must reach a terminal state (any status) without
  // wedging the single worker.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (server.service().metrics().snapshot().completed < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.service().metrics().snapshot().completed, 1u);

  // A fresh client is served normally afterwards.
  serve::Client healthy(opts.socket_path);
  const auto pong = healthy.request("{\"id\":\"h\",\"verb\":\"ping\"}");
  EXPECT_EQ(pong.status, serve::Status::kOk);
  EXPECT_NE(pong.payload.find("\"pong\":true"), std::string::npos);
  server.stop();
  const auto snap = server.service().metrics().snapshot();
  EXPECT_EQ(snap.connections, snap.connections_closed);
}

TEST(ServeServer, ShutdownVerbStopsTheDaemonCleanly) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("shutdown");
  serve::Server server(opts);
  server.start_background();

  serve::Client client(opts.socket_path);
  const auto bye = client.request("{\"id\":\"bye\",\"verb\":\"shutdown\"}");
  EXPECT_EQ(bye.status, serve::Status::kOk);
  EXPECT_NE(bye.payload.find("\"shutting_down\":true"), std::string::npos);
  server.stop();  // joins the accept loop, which saw the flag
  EXPECT_FALSE(std::filesystem::exists(opts.socket_path));
  EXPECT_THROW(serve::Client(opts.socket_path), Error);
}

// ---------------------------------------------------------------------------
// Serve failpoint sites: a fault drops one connection, never the daemon
// ---------------------------------------------------------------------------

TEST(ServeServer, ReadFaultDropsOnlyTheFaultedConnection) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("fp_read");
  serve::Server server(opts);
  server.start_background();
  {
    failpoints::ScopedFailpoint fp(failpoints::kServeRead,
                                   {failpoints::Action::kThrow, 0});
    serve::Client victim(opts.socket_path);
    victim.send_line("{\"id\":\"v\",\"verb\":\"ping\"}");
    EXPECT_THROW(victim.recv_line(5000), Error);  // dropped, not hung
  }
  serve::Client after(opts.socket_path);
  EXPECT_EQ(after.request("{\"verb\":\"ping\"}").status,
            serve::Status::kOk);
  server.stop();
}

TEST(ServeServer, WriteFaultKillsTheConnectionNeverCorruptsOthers) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("fp_write");
  serve::Server server(opts);
  server.start_background();
  {
    failpoints::ScopedFailpoint fp(failpoints::kServeWrite,
                                   {failpoints::Action::kFailAlloc, 0});
    serve::Client victim(opts.socket_path);
    victim.send_line("{\"id\":\"v\",\"verb\":\"ping\"}");
    EXPECT_THROW(victim.recv_line(5000), Error);
  }
  serve::Client after(opts.socket_path);
  const auto resp = after.request("{\"id\":\"a\",\"verb\":\"ping\"}");
  EXPECT_EQ(resp.status, serve::Status::kOk);
  EXPECT_NE(resp.payload.find("\"pong\":true"), std::string::npos);
  server.stop();
}

TEST(ServeServer, EnqueueFaultShedsTypedAndRetryable) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("fp_enqueue");
  serve::Server server(opts);
  server.start_background();
  serve::Client client(opts.socket_path);
  {
    failpoints::ScopedFailpoint fp(failpoints::kServeEnqueue,
                                   {failpoints::Action::kFailAlloc, 0});
    const auto shed =
        client.request(analysis_request("q", "misses", kProgram));
    EXPECT_EQ(shed.status, serve::Status::kRejected);
    EXPECT_EQ(shed.retry_after_ms, 50);
    // Control verbs are answered inline and never touch the queue.
    EXPECT_EQ(client.request("{\"verb\":\"ping\"}").status,
              serve::Status::kOk);
  }
  // The shed was honest: the retry succeeds once the fault clears, and no
  // admission slot leaked while it was injected.
  const auto ok = client.request(analysis_request("q2", "misses", kProgram));
  ASSERT_EQ(ok.status, serve::Status::kOk) << ok.error;
  EXPECT_EQ(ok.payload, expected_misses_payload(kProgram, 12));
  // The admission ticket is released when the pool destroys the task,
  // which may trail the response write by a beat.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.service().active() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.service().active(), 0);
  server.stop();
}

TEST(ServeServer, AcceptFaultOnlyDelaysThePendingConnection) {
  serve::ServerOptions opts;
  opts.socket_path = socket_path("fp_accept");
  serve::Server server(opts);
  server.start_background();
  auto fp = std::make_unique<failpoints::ScopedFailpoint>(
      failpoints::kServeAccept, failpoints::Spec{failpoints::Action::kThrow, 0});
  // The connect lands in the listen backlog even though every accept is
  // currently faulted; the request is buffered in the socket.
  serve::Client patient(opts.socket_path);
  patient.send_line("{\"id\":\"p\",\"verb\":\"ping\"}");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fp.reset();  // clear the fault: the backlogged connection is accepted
  const auto resp = serve::parse_response(patient.recv_line(10'000));
  EXPECT_EQ(resp.status, serve::Status::kOk);
  EXPECT_NE(resp.payload.find("\"pong\":true"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace sdlo
