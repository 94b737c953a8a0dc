#include "serve/metrics.hpp"

#include "support/cli.hpp"

namespace sdlo::serve {

void Metrics::record_done(Status status, bool cached, double queue_seconds,
                          double run_seconds) {
  completed_.fetch_add(1, relaxed);
  switch (status) {
    case Status::kOk: ok_.fetch_add(1, relaxed); break;
    case Status::kError: errors_.fetch_add(1, relaxed); break;
    case Status::kTruncated: truncated_.fetch_add(1, relaxed); break;
    case Status::kRejected: rejected_.fetch_add(1, relaxed); break;
  }
  if (cached) cached_.fetch_add(1, relaxed);
  std::lock_guard lk(time_mu_);
  queue_seconds_total_ += queue_seconds;
  run_seconds_total_ += run_seconds;
}

Metrics::Snapshot Metrics::snapshot() const {
  Snapshot s;
  s.received = received_.load(relaxed);
  s.completed = completed_.load(relaxed);
  s.ok = ok_.load(relaxed);
  s.errors = errors_.load(relaxed);
  s.truncated = truncated_.load(relaxed);
  s.rejected = rejected_.load(relaxed);
  s.shed = shed_.load(relaxed);
  s.cached = cached_.load(relaxed);
  s.connections = connections_.load(relaxed);
  s.connections_closed = connections_closed_.load(relaxed);
  std::lock_guard lk(time_mu_);
  s.queue_seconds_total = queue_seconds_total_;
  s.run_seconds_total = run_seconds_total_;
  return s;
}

void Metrics::render_json(const MemoCache& cache, std::ostream& os) const {
  const Snapshot s = snapshot();
  const MemoCache::Stats cs = cache.stats();
  const std::uint64_t cache_lookups = cs.hits + cs.misses;
  os << "{\"version\":\"" << kVersionNumber << "\""
     << ",\"requests\":{\"received\":" << s.received
     << ",\"completed\":" << s.completed << ",\"ok\":" << s.ok
     << ",\"errors\":" << s.errors << ",\"truncated\":" << s.truncated
     << ",\"rejected\":" << s.rejected << ",\"shed\":" << s.shed
     << ",\"truncation_rate\":" << s.truncation_rate() << "}"
     << ",\"timing\":{\"queue_seconds_total\":" << s.queue_seconds_total
     << ",\"run_seconds_total\":" << s.run_seconds_total << "}"
     << ",\"cache\":{\"hits\":" << cs.hits << ",\"misses\":" << cs.misses
     << ",\"insertions\":" << cs.insertions
     << ",\"evictions\":" << cs.evictions << ",\"entries\":" << cache.size()
     << ",\"hit_rate\":"
     << (cache_lookups == 0
             ? 0.0
             : static_cast<double>(cs.hits) /
                   static_cast<double>(cache_lookups))
     << "}"
     << ",\"connections\":{\"opened\":" << s.connections
     << ",\"closed\":" << s.connections_closed << "}}";
}

}  // namespace sdlo::serve
