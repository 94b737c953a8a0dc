#include "serve/service.hpp"

#include <chrono>
#include <sstream>

#include "analysis/verbs.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/program.hpp"
#include "support/cli.hpp"

namespace sdlo::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Strips the trailing newline every CLI emitter ends with; the envelope
/// embeds the document mid-line.
std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

/// Serializes every knob of a resolved request. The deadline is not a
/// knob: a cache hit is instantaneous and complete, so the same work under
/// a different deadline shares the entry.
std::string config_fingerprint(const analysis::VerbRequest& r) {
  const auto knob = [](const std::optional<std::int64_t>& v) {
    return v ? std::to_string(*v) : std::string("-");
  };
  std::ostringstream os;
  os << analysis::verb_name(r.verb) << ';';
  for (const auto& [name, value] : r.env) {
    os << name << '=' << value << ',';
  }
  os << ";cap=" << knob(r.cap) << ";line=" << knob(r.line)
     << ";sim=" << (r.simulate ? 1 : 0) << ";sites=" << (r.sites ? 1 : 0)
     << ";engine=" << r.engine.value_or("planned") << ";top=" << r.top;
  return os.str();
}

/// The response status of a run_verb exit code.
Status status_of(int exit_code) {
  if (exit_code == to_int(ExitCode::kOk)) return Status::kOk;
  if (exit_code == to_int(ExitCode::kTruncated)) return Status::kTruncated;
  return Status::kError;
}

Status worst_status(const std::vector<Response>& batch) {
  Status w = Status::kOk;
  for (const Response& r : batch) {
    if (r.status == Status::kError) return Status::kError;
    if (r.status != Status::kOk) w = Status::kTruncated;
  }
  return w;
}

}  // namespace

Service::Service(const ServiceOptions& opts)
    : opts_(opts), budget_(opts.memory_budget_bytes),
      cache_(opts.cache_entries) {}

int Service::try_admit() {
  int cur = active_.load(std::memory_order_relaxed);
  while (true) {
    if (cur >= opts_.max_active) {
      // Grow the hint with the overload so a thundering herd spreads out:
      // 25 ms per request past the bound, capped at 2 s.
      const int excess = cur - opts_.max_active;
      const int hint = 25 * (excess + 1);
      return hint > 2000 ? 2000 : hint;
    }
    if (active_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_acq_rel)) {
      break;
    }
  }
  if (opts_.memory_budget_bytes > 0 &&
      budget_.used() >= opts_.memory_budget_bytes -
                            opts_.memory_budget_bytes / 8) {
    // ≥ 7/8 of the shared budget is reserved by requests already running:
    // a sweep admitted now would be denied its tables and truncate.
    active_.fetch_sub(1, std::memory_order_acq_rel);
    return 100;
  }
  return 0;
}

void Service::release() { active_.fetch_sub(1, std::memory_order_acq_rel); }

void Service::dispatch(const Request& req, const Governor* gov,
                       Response& resp) {
  if (req.call.program.empty()) throw Error("request is missing 'program'");
  if (req.call.program.size() > opts_.max_program_bytes) {
    throw Error("program exceeds " +
                std::to_string(opts_.max_program_bytes) + " bytes");
  }
  // Resolved first: a bad knob is an error before any work, and a request
  // that spells out a default shares the entry of one that leaves it out.
  const analysis::VerbRequest call = analysis::resolve(req.call);

  // Cache key. analyze/misses/sweep key on the *canonicalized* program
  // (printer round trip), so formatting differences share an entry. lint
  // and advise key on the raw text: their payloads carry SourceLoc
  // positions, which canonicalization would falsify — and lint must accept
  // text that does not parse at all.
  const bool textual = call.verb == analysis::Verb::kLint ||
                       call.verb == analysis::Verb::kAdvise;
  const ir::Program prog =
      textual ? ir::Program{} : ir::parse_program(call.program);
  std::string key = config_fingerprint(call);
  key.push_back('\0');
  key += textual ? call.program : ir::to_code_string(prog);
  if (auto cached = cache_.lookup(key)) {
    resp.payload = std::move(*cached);
    resp.cached = true;
    resp.status = Status::kOk;
    return;
  }

  // The CLI's own path: a lint that finds errors keeps its report as the
  // payload, exactly as `sdlo lint` prints it and exits 1.
  std::ostringstream os;
  const analysis::VerbResult res = analysis::run_verb(
      call, /*json=*/true, gov, os, textual ? nullptr : &prog);
  resp.payload = chomp(os.str());
  resp.status = status_of(res.exit_code);
  resp.error = res.error;
  // Only complete, successful responses are memoized: a truncated payload
  // reflects this request's budget, not the next one's.
  if (resp.status == Status::kOk) cache_.insert(key, resp.payload);
}

Response Service::run_single(const Request& req,
                             const CancellationToken& cancel,
                             double queue_seconds) {
  Response resp;
  resp.id_token = req.id_token;
  resp.queue_ms = queue_seconds * 1000.0;
  const auto start = Clock::now();
  try {
    Governor gov;
    double dl = req.deadline_sec > 0 ? req.deadline_sec
                                     : opts_.default_deadline_sec;
    if (opts_.max_deadline_sec > 0 && dl > opts_.max_deadline_sec) {
      dl = opts_.max_deadline_sec;
    }
    if (dl > 0) gov.deadline = Deadline::after_seconds(dl);
    if (opts_.memory_budget_bytes > 0) gov.memory = &budget_;
    gov.cancel = cancel;  // shared state: the transport trips it
    dispatch(req, &gov, resp);
  } catch (const BudgetExceeded& e) {
    // The drivers return partial results where one exists; BudgetExceeded
    // escaping means this verb had none (e.g. analyze mid-analysis).
    resp.status = Status::kTruncated;
    resp.error = e.what();
    resp.payload.clear();
  } catch (const std::exception& e) {
    resp.status = Status::kError;
    resp.error = e.what();
    resp.payload.clear();
  } catch (...) {
    resp.status = Status::kError;
    resp.error = "unknown error";
    resp.payload.clear();
  }
  resp.run_ms = seconds_since(start) * 1000.0;
  return resp;
}

Response Service::run(const Request& req, const CancellationToken& cancel,
                      double queue_seconds) {
  Response resp;
  if (req.verb == Verb::kBatch) {
    resp.id_token = req.id_token;
    resp.queue_ms = queue_seconds * 1000.0;
    const auto start = Clock::now();
    resp.batch.reserve(req.batch.size());
    for (const Request& sub : req.batch) {
      if (is_control_verb(sub.verb)) {
        resp.batch.push_back(control(sub));
      } else {
        resp.batch.push_back(run_single(sub, cancel, 0.0));
      }
    }
    resp.status = worst_status(resp.batch);
    resp.run_ms = seconds_since(start) * 1000.0;
  } else {
    resp = run_single(req, cancel, queue_seconds);
  }
  metrics_.record_done(resp.status, resp.cached, queue_seconds,
                       resp.run_ms / 1000.0);
  return resp;
}

Response Service::control(const Request& req) {
  Response resp;
  resp.id_token = req.id_token;
  switch (req.verb) {
    case Verb::kPing:
      resp.payload = std::string("{\"version\":\"") + kVersionNumber +
                     "\",\"pong\":true}";
      break;
    case Verb::kStats: {
      std::ostringstream os;
      metrics_.render_json(cache_, os);
      resp.payload = chomp(os.str());
      break;
    }
    case Verb::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      resp.payload = std::string("{\"version\":\"") + kVersionNumber +
                     "\",\"shutting_down\":true}";
      break;
    default:
      resp.status = Status::kError;
      resp.error = "not a control verb";
      break;
  }
  return resp;
}

Response Service::error_response(const std::string& id_token,
                                 const std::string& message) {
  metrics_.record_done(Status::kError, false, 0, 0);
  Response resp;
  resp.id_token = id_token;
  resp.status = Status::kError;
  resp.error = message;
  return resp;
}

Response Service::rejected_response(const std::string& id_token,
                                    int retry_after_ms) {
  metrics_.record_shed();
  Response resp;
  resp.id_token = id_token;
  resp.status = Status::kRejected;
  resp.retry_after_ms = retry_after_ms;
  return resp;
}

std::variant<Response, Request> Service::admit_line(const std::string& line) {
  metrics_.record_received();
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    return error_response(salvage_id_token(line), e.what());
  }
  if (is_control_verb(req.verb)) {
    Response resp = control(req);
    metrics_.record_done(resp.status, false, 0, 0);
    return resp;
  }
  const int retry = try_admit();
  if (retry > 0) return rejected_response(req.id_token, retry);
  return req;
}

Response Service::handle_line(const std::string& line,
                              const CancellationToken& cancel) {
  auto step = admit_line(line);
  if (auto* resp = std::get_if<Response>(&step)) return std::move(*resp);
  Response resp = run(std::get<Request>(step), cancel, 0.0);
  release();
  return resp;
}

}  // namespace sdlo::serve
