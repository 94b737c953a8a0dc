#include "serve_session.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "cli_workloads.hpp"
#include "serve/protocol.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sdlo_bench {

namespace {

using sdlo::serve::Client;

/// Relative to the run directory, so the path stays far below the
/// sun_path limit wherever the checkout lives.
constexpr const char* kSocket = "sdlo.sock";

/// Connects to a daemon that may still be starting: the socket appears
/// only once it listens.
std::unique_ptr<Client> connect_when_ready() {
  const auto start = Clock::now();
  while (true) {
    try {
      return std::make_unique<Client>(kSocket);
    } catch (const sdlo::Error&) {
      if (seconds_between(start, Clock::now()) > 30.0) throw;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace

ServeSession::ServeSession(int workers, int connections,
                           Clock::time_point origin)
    : origin_(origin) {
  const auto start = Clock::now();
  child_ = std::make_unique<Child>(
      std::vector<std::string>{sdlo_path(), "serve", "--socket", kSocket,
                               "--workers", std::to_string(workers)},
      "daemon.log");
  conns_.push_back(connect_when_ready());
  const sdlo::serve::Response pong =
      conns_[0]->request("{\"id\":0,\"verb\":\"ping\"}");
  ready_seconds_ = seconds_between(start, Clock::now());
  if (pong.status != sdlo::serve::Status::kOk) {
    throw sdlo::Error("daemon ping failed: " + pong.error);
  }
  for (int c = 1; c < connections; ++c) {
    conns_.push_back(std::make_unique<Client>(kSocket));
  }
}

ServeSession::~ServeSession() {
  try {
    if (child_ && child_->running()) shutdown();
  } catch (const std::exception&) {
    // The Child destructor kills and reaps whatever is left.
  }
}

std::vector<Sample> ServeSession::run_pass(
    const std::vector<Job>& distinct,
    const std::vector<std::size_t>& sequence, std::uint64_t first_id,
    const std::set<std::size_t>& keep,
    std::map<std::size_t, std::string>& kept) {
  std::atomic<std::size_t> next{0};
  std::mutex kept_mu;
  std::vector<std::vector<Sample>> per(conns_.size());
  std::vector<std::exception_ptr> errors(conns_.size());
  const auto worker = [&](std::size_t c) {
    try {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sequence.size()) return;
        Sample s;
        s.distinct = sequence[i];
        s.conn = static_cast<int>(c);
        const std::string line =
            distinct[s.distinct].request_line(first_id + i);
        s.t0 = seconds_between(origin_, Clock::now());
        conns_[c]->send_line(line);
        const std::string reply = conns_[c]->recv_line();
        s.t1 = seconds_between(origin_, Clock::now());
        try {
          const sdlo::serve::Response r = sdlo::serve::parse_response(reply);
          s.parsed = true;
          s.status = sdlo::serve::status_name(r.status);
          s.ok = r.status == sdlo::serve::Status::kOk;
          s.cached = r.cached;
          s.queue_ms = r.queue_ms;
          s.run_ms = r.run_ms;
          s.payload_hash = fnv1a(r.payload);
          if (keep.count(s.distinct) != 0) {
            const std::lock_guard<std::mutex> lock(kept_mu);
            kept.emplace(s.distinct, r.payload);
          }
        } catch (const std::exception&) {
          // The stream may hold the rest of a broken reply: start over.
          conns_[c] = std::make_unique<Client>(kSocket);
        }
        per[c].push_back(s);
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    threads.emplace_back(worker, c);
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<Sample> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

int ServeSession::framing_errors(const std::vector<std::string>& lines) {
  int errors = 0;
  for (const std::string& line : lines) {
    Client c(kSocket);
    try {
      c.request(line);
    } catch (const std::exception&) {
      ++errors;
    }
  }
  return errors;
}

long ServeSession::shutdown() {
  conns_.clear();
  const long rss_kb = child_->peak_rss_kb();
  Client(kSocket).request("{\"id\":0,\"verb\":\"shutdown\"}");
  if (!child_->wait(60.0)) child_->kill_and_reap();
  return rss_kb;
}

Outcome run_serve_workload(const Options& opt, const Workload& w) {
  Outcome oc;
  const auto origin = Clock::now();

  // A seeded sample of distinct requests is re-asked through the CLI.
  std::set<std::size_t> keep;
  sdlo::SplitMix64 rng(opt.seed ^ 0x5e7e5e7eULL);
  const std::size_t want = std::min<std::size_t>(32, w.distinct.size());
  while (keep.size() < want) keep.insert(rng.below(w.distinct.size()));

  std::vector<Sample> samples;
  std::vector<double> pass_seconds, ready, rss_mb, probe;
  std::map<std::size_t, std::string> kept;
  // Every pass runs on a daemon of its own, which gives one set-up time and
  // one peak RSS per pass. The host-speed probes run between daemons, so
  // no daemon thread can slow them. The memo cache holds 256 entries and a
  // pass has about 1500 distinct requests, so a fresh daemon sees the same
  // hits as one kept from the pass before.
  const auto start = Clock::now();
  do {
    for (int i = 0; i < 5; ++i) probe.push_back(time_host_probe());
    ServeSession session(4, 4, origin);
    ++oc.attempted;
    ready.push_back(session.ready_seconds());
    const auto p0 = Clock::now();
    std::vector<Sample> pass = session.run_pass(
        w.distinct, w.sequence, pass_seconds.size() * w.sequence.size(),
        keep, kept);
    pass_seconds.push_back(seconds_between(p0, Clock::now()));
    samples.insert(samples.end(), pass.begin(), pass.end());
    rss_mb.push_back(static_cast<double>(session.shutdown()) / 1024.0);
  } while (!opt.smoke && seconds_between(start, Clock::now()) < opt.seconds);

  // Every answer must be ok, and every repeat byte-identical to the first.
  std::map<std::size_t, std::uint64_t> first_hash;
  for (const Sample& s : samples) {
    ++oc.attempted;
    const Job& j = w.distinct[s.distinct];
    if (!s.parsed) {
      oc.fail(j.id + ": reply is not one response line");
    } else if (!s.ok) {
      oc.fail(j.id + ": status " + s.status);
    } else if (!first_hash.emplace(s.distinct, s.payload_hash).second &&
               first_hash[s.distinct] != s.payload_hash) {
      oc.fail(j.id + ": repeated payload differs from the first");
    }
  }
  std::vector<Job> checked;
  for (const std::size_t d : keep) checked.push_back(w.distinct[d]);
  write_program_files(checked);
  std::size_t cli_mismatches = 0;
  for (const std::size_t d : keep) {
    const Job& j = w.distinct[d];
    const ChildResult r = run_sdlo(j.cli_args());
    const auto it = kept.find(d);
    if (r.exit_code != 0 || it == kept.end() || chomp(r.out) != it->second) {
      ++cli_mismatches;
      oc.fail(j.id + ": daemon payload differs from sdlo " + j.verb +
              " --json");
    }
  }

  std::map<std::string, std::vector<double>> by_class;
  std::vector<double> latencies;
  for (const Sample& s : samples) {
    latencies.push_back(s.latency_ms());
    by_class[w.distinct[s.distinct].cls].push_back(s.latency_ms());
  }
  std::vector<double> class_medians;
  std::string classes = "{";
  for (const auto& [cls, v] : by_class) {
    class_medians.push_back(median(v));
    double sum = 0;
    for (const double x : v) sum += x;
    classes += (classes.size() > 1 ? "," : "") + quote(cls) + ":{\"n\":" +
               std::to_string(v.size()) + ",\"median_ms\":" + num(median(v)) +
               ",\"p99_ms\":" + num(percentile(v, 99)) +
               ",\"max_ms\":" + num(percentile(v, 100)) +
               ",\"total_ms\":" + num(sum) + "}";
  }
  classes += "}";
  double total = 0;
  for (const double p : pass_seconds) total += p;
  oc.metrics["setup_s"] = {median(ready), "s"};
  oc.metrics["wall_s"] = {median(pass_seconds), "s"};
  oc.metrics["job_geomean_ms"] = {geomean(class_medians), "ms"};
  oc.metrics["peak_rss_mb"] = {median(rss_mb), "MB"};
  oc.metrics["throughput_rps"] = {
      total > 0 ? static_cast<double>(samples.size()) / total : 0, "1/s"};
  oc.metrics["latency_p50_ms"] = {median(latencies), "ms"};
  oc.metrics["latency_p99_ms"] = {percentile(latencies, 99), "ms"};
  scale_to_reference(probe, oc);
  oc.detail.emplace_back("passes", std::to_string(pass_seconds.size()));
  oc.detail.emplace_back("requests_per_pass",
                         std::to_string(w.sequence.size()));
  oc.detail.emplace_back("distinct_requests",
                         std::to_string(w.distinct.size()));
  oc.detail.emplace_back("classes", classes);
  oc.detail.emplace_back("cli_checked", std::to_string(keep.size()));
  oc.detail.emplace_back("cli_mismatches", std::to_string(cli_mismatches));
  return oc;
}

}  // namespace sdlo_bench
