#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

// CMakeLists.txt defines SDLO_CLI_PATH, SDLO_BENCH_COMPILER and
// SDLO_BENCH_BUILD_TYPE.

namespace sdlo_bench {

const char* sdlo_path() { return SDLO_CLI_PATH; }

std::vector<std::string> Job::cli_args(const std::string& spool_path) const {
  std::vector<std::string> a{verb, file};
  for (const auto& [name, value] : env) {
    a.push_back(name + "=" + std::to_string(value));
  }
  if (verb == "sweep") {
    if (line != 1) a.insert(a.end(), {"--line", std::to_string(line)});
    if (!engine.empty()) a.insert(a.end(), {"--engine", engine});
    if (threads > 1) a.insert(a.end(), {"--threads", std::to_string(threads)});
    if (spool) a.insert(a.end(), {"--spool", spool_path});
  } else if (cap >= 0) {
    a.insert(a.end(), {"--cap", std::to_string(cap)});
  }
  a.push_back("--json");
  return a;
}

std::string Job::request_line(std::uint64_t id_num) const {
  std::string s = "{\"id\":" + std::to_string(id_num) + ",\"verb\":" +
                  quote(verb) + ",\"program\":" + quote(program) +
                  ",\"env\":{";
  bool first = true;
  for (const auto& [name, value] : env) {
    s += (first ? "" : ",") + quote(name) + ":" + std::to_string(value);
    first = false;
  }
  s += "}";
  if (cap >= 0) s += ",\"cap\":" + std::to_string(cap);
  if (verb == "sweep" && line != 1) s += ",\"line\":" + std::to_string(line);
  if (!engine.empty()) s += ",\"engine\":" + quote(engine);
  return s + "}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double time_host_probe() {
  constexpr std::size_t kWords = std::size_t{1} << 19;
  constexpr int kSteps = 2'000'000;
  static std::vector<std::uint64_t> table(kWords, 1);
  // One read through the table first, so that the timed loop finds it in
  // the cache however much memory the job before it touched.
  volatile const std::uint64_t sum =
      std::accumulate(table.begin(), table.end(), std::uint64_t{0});
  (void)sum;
  const auto start = Clock::now();
  // xorshift64 indices from a fixed start, so every call does the same
  // work; the writes to the table, which outlives the call, keep the loop.
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& v = table[x & (kWords - 1)];
    v = v * 6364136223846793005ULL + (x >> 3);
  }
  return seconds_between(start, Clock::now());
}

void scale_to_reference(const std::vector<double>& probe_seconds,
                        Outcome& oc) {
  const double m = median(probe_seconds);
  const double scale = m > 0 ? kProbeReferenceSeconds / m : 1.0;
  std::string measured = "{";
  for (auto& [name, metric] : oc.metrics) {
    measured += (measured.size() > 1 ? "," : "") + quote(name) + ":" +
                num(metric.value);
    if (metric.unit == "s" || metric.unit == "ms") {
      metric.value *= scale;
    } else if (metric.unit == "1/s") {
      metric.value /= scale;
    }
  }
  oc.detail.emplace_back("measured", measured + "}");
  oc.detail.emplace_back(
      "host_probe", "{\"median_s\":" + num(m) + ",\"reference_s\":" +
                        num(kProbeReferenceSeconds) + ",\"samples\":" +
                        std::to_string(probe_seconds.size()) +
                        ",\"time_scale\":" + num(scale) + "}");
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(std::max(x, 1e-12));
  return std::exp(s / static_cast<double>(v.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw sdlo::Error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  if (!out) throw sdlo::Error("cannot write " + path);
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a_update(std::uint64_t h, const char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t fnv1a(const std::string& bytes) {
  return fnv1a_update(kFnvOffset, bytes.data(), bytes.size());
}

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw sdlo::Error("cannot read " + path);
  std::uint64_t h = kFnvOffset;
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h = fnv1a_update(h, buf.data(), static_cast<std::size_t>(in.gcount()));
  }
  return h;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quote(const std::string& s) {
  return "\"" + sdlo::serve::json_escape(s) + "\"";
}

std::string json_member(const std::string& object, const std::string& key) {
  try {
    for (const auto& [k, raw] : sdlo::serve::top_level_members(object)) {
      if (k == key) return raw;
    }
  } catch (const std::exception&) {
  }
  return "";
}

std::string chomp(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string host_record_json(const Options& opt) {
  namespace fs = std::filesystem;
  std::map<std::string, std::string> caches;
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(base, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("index", 0) != 0) continue;
    try {
      const std::string level = chomp(read_file(entry.path() / "level"));
      const std::string type = chomp(read_file(entry.path() / "type"));
      const std::string size = chomp(read_file(entry.path() / "size"));
      const std::string suffix =
          type == "Data" ? "d" : type == "Instruction" ? "i" : "";
      caches["L" + level + suffix] = size;
    } catch (const std::exception&) {
      // A host without this sysfs entry simply records fewer caches.
    }
  }
  std::string c = "{";
  for (const auto& [k, v] : caches) {
    c += (c.size() > 1 ? "," : "") + quote(k) + ":" + quote(v);
  }
  c += "}";
  return "{\"nproc\":" + std::to_string(host_nproc()) + ",\"caches\":" + c +
         ",\"simd\":" +
         quote(sdlo::simd::isa_name(sdlo::simd::active_isa())) +
         ",\"compiler\":" + quote(SDLO_BENCH_COMPILER) +
         ",\"build_type\":" + quote(SDLO_BENCH_BUILD_TYPE) +
         ",\"workload\":" + quote(opt.workload) +
         ",\"seed\":" + std::to_string(opt.seed) +
         ",\"scale\":" + quote(opt.smoke ? "smoke" : "full") + "}";
}

}  // namespace sdlo_bench
