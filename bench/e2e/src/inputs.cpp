#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <set>

#include "fuzz/generator.hpp"
#include "ir/gallery.hpp"
#include "ir/printer.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sdlo_bench {

namespace {

using sdlo::SplitMix64;

template <typename T>
void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::iter_swap(v.begin() + static_cast<std::ptrdiff_t>(i - 1),
                   v.begin() + static_cast<std::ptrdiff_t>(rng.below(i)));
  }
}

/// Draws cards from a seeded deck, reshuffling when it runs out: every
/// card appears in the exact proportion of the deck within each pass of
/// it, so an unseen seed sees the same mix, only in another order.
template <typename T>
class Deck {
 public:
  Deck(std::vector<T> cards, SplitMix64& rng)
      : cards_(std::move(cards)), rng_(rng) {}

  T draw() {
    if (next_ == 0) shuffle(cards_, rng_);
    const T card = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return card;
  }

 private:
  std::vector<T> cards_;
  SplitMix64& rng_;
  std::size_t next_ = 0;
};

struct Gallery {
  const char* tag;   ///< short name used in job ids
  const char* file;  ///< program file name
  sdlo::ir::GalleryProgram (*make)();
};

const std::vector<Gallery>& gallery() {
  static const std::vector<Gallery> g{
      {"mm", "matmul.sdlo", &sdlo::ir::matmul},
      {"mt", "matmul_tiled.sdlo", &sdlo::ir::matmul_tiled},
      {"tf", "two_index_fused.sdlo", &sdlo::ir::two_index_fused},
      {"tu", "two_index_unfused.sdlo", &sdlo::ir::two_index_unfused},
      {"ti", "two_index_tiled.sdlo", &sdlo::ir::two_index_tiled},
  };
  return g;
}

const Gallery& gallery_entry(const std::string& tag) {
  for (const Gallery& g : gallery()) {
    if (tag == g.tag) return g;
  }
  throw sdlo::Error("no gallery program " + tag);
}

/// Bindings for gallery program `tag` at problem size n. A tiled program
/// gets one binding per tile size in {16, 32, 64} that divides n, forming a
/// Latin square over those sizes v: binding j gives tile symbol s size
/// v[(j + s) % |v|]. Every tile symbol takes every size once, and no
/// binding repeats a size in its first |v| tile symbols. The square is
/// fixed: a seed that picked one of the squares would pick how much work
/// the jobs do, and the seed only orders the jobs (make_workload).
std::vector<sdlo::sym::Env> gallery_envs(const std::string& tag,
                                         std::int64_t n) {
  const sdlo::ir::GalleryProgram g = gallery_entry(tag).make();
  std::vector<std::int64_t> sizes;
  for (const std::int64_t s : {16, 32, 64}) {
    if (n % s == 0) sizes.push_back(s);
  }
  std::vector<sdlo::sym::Env> envs(g.tiles.empty() ? 1 : sizes.size());
  for (auto& e : envs) {
    for (const std::string& b : g.bounds) e[b] = n;
  }
  for (std::size_t s = 0; s < g.tiles.size(); ++s) {
    for (std::size_t j = 0; j < envs.size(); ++j) {
      envs[j][g.tiles[s]] = sizes[(j + s) % sizes.size()];
    }
  }
  return envs;
}

Job gallery_job(const std::string& verb, const std::string& tag,
                std::int64_t n, const sdlo::sym::Env& env, std::size_t k) {
  const Gallery& g = gallery_entry(tag);
  Job j;
  j.verb = verb;
  j.program = sdlo::ir::to_code_string(g.make().prog);
  j.file = g.file;
  j.env = env;
  j.id = verb + " " + tag + std::to_string(n) + "#" + std::to_string(k);
  return j;
}

/// Appends one job per binding of gallery program `tag` at size n (only
/// the first binding at smoke scale), letting `tweak` set verb flags.
template <typename Tweak>
void add_gallery_jobs(Workload& w, const std::string& verb,
                      const std::string& tag, std::int64_t n, bool smoke,
                      Tweak tweak) {
  std::vector<sdlo::sym::Env> envs = gallery_envs(tag, n);
  if (smoke) envs.resize(1);
  for (std::size_t k = 0; k < envs.size(); ++k) {
    Job j = gallery_job(verb, tag, n, envs[k], k);
    tweak(j);
    j.cls = j.id.substr(0, j.id.find('#'));
    w.jobs.push_back(std::move(j));
  }
}

// The sizes keep each CLI round under 2 s on a 4-core host, so a 25 s run
// takes ten or more samples of every job: the host this was tuned on
// swings by up to 2x within seconds, and medians need that many samples to
// settle.

void make_sweep_default(Workload& w, bool smoke) {
  add_gallery_jobs(w, "sweep", "mt", smoke ? 64 : 128, smoke, [](Job&) {});
  add_gallery_jobs(w, "sweep", "ti", smoke ? 32 : 64, smoke,
                   [](Job& j) { j.line = 8; });
}

void make_sweep_parallel(Workload& w, bool smoke) {
  const auto parallel = [](Job& j) {
    j.threads = 4;
    j.spool = true;
  };
  add_gallery_jobs(w, "sweep", "mt", smoke ? 64 : 192, smoke, parallel);
  add_gallery_jobs(w, "sweep", "ti", smoke ? 64 : 128, smoke, parallel);
}

void make_model(Workload& w, bool smoke) {
  const auto none = [](Job&) {};
  const auto symbolic = [](Job& j) { j.engine = "symbolic"; };
  const auto advise_cap = [](Job& j) { j.cap = 1100; };
  // predict_misses on both sides of the enum_limit = 2^21 cliff: the
  // two-index and untiled sizes enumerate, matmul N=1024 is probed.
  add_gallery_jobs(w, "misses", "ti", 32, smoke, none);
  add_gallery_jobs(w, "misses", "mm", smoke ? 16 : 48, smoke, none);
  add_gallery_jobs(w, "misses", "mt", 1024, smoke, none);
  add_gallery_jobs(w, "sweep", "mt", smoke ? 64 : 256, smoke, symbolic);
  add_gallery_jobs(w, "sweep", "ti", smoke ? 64 : 128, smoke, symbolic);
  // N=24 keeps the matmul's 1728 elements above the 1100-element cache.
  add_gallery_jobs(w, "advise", "mm", smoke ? 16 : 24, smoke, advise_cap);
  add_gallery_jobs(w, "advise", "tu", 16, smoke, advise_cap);
  add_gallery_jobs(w, "advise", "tf", smoke ? 16 : 32, smoke, advise_cap);
}

/// serve-mix: 3000 requests (200 at smoke scale). Verb mix analyze 30%,
/// misses 20%, sweep-symbolic 20%, sweep-simulate 10% and gallery misses
/// 5%, each drawn from a seeded deck; half of all requests repeat one of
/// the 128 most recent distinct requests. lint (10%) and advise (5%) are
/// left out: their daemon payloads span several lines (see README).
void make_serve_mix(Workload& w, std::uint64_t seed, SplitMix64& rng,
                    bool smoke) {
  // Bands nest at most one level below the top bands. Deeper generated
  // nests include rare programs whose analysis takes seconds (about one in
  // 1400 at the default depth of 2), and one such request would decide a
  // whole pass's time; the small-input mix keeps every request in ms.
  sdlo::fuzz::GeneratorOptions gopt;
  gopt.max_depth = 1;
  sdlo::fuzz::ProgramGenerator gen(seed, gopt);
  Deck<std::string> classes(
      {"analyze", "analyze", "analyze", "analyze", "analyze", "analyze",
       "misses", "misses", "misses", "misses", "sweep-symbolic",
       "sweep-symbolic", "sweep-symbolic", "sweep-symbolic",
       "sweep-simulate", "sweep-simulate", "gallery-misses"},
      rng);
  Deck<bool> repeat({false, false, true, true}, rng);
  std::vector<std::pair<std::string, std::int64_t>> variants;
  for (const Gallery& g : gallery()) {
    for (const std::int64_t cap : {64, 256, 1024}) {
      variants.emplace_back(g.tag, cap);
    }
  }
  Deck<std::pair<std::string, std::int64_t>> gallery_variants(variants, rng);
  const std::size_t len = smoke ? 200 : 3000;
  for (std::size_t i = 0; i < len; ++i) {
    if (repeat.draw() && !w.distinct.empty()) {
      const std::size_t window = std::min<std::size_t>(128, w.distinct.size());
      w.sequence.push_back(w.distinct.size() - 1 - rng.below(window));
      continue;
    }
    const std::string cls = classes.draw();
    Job j;
    if (cls == "gallery-misses") {
      const auto [tag, cap] = gallery_variants.draw();
      j = gallery_job("misses", tag, 16, gallery_envs(tag, 16)[0], 0);
      j.cap = cap;
    } else {
      const sdlo::fuzz::GeneratedProgram gp = gen.generate();
      j.program = sdlo::ir::to_code_string(gp.prog);
      j.env = gp.env;
      j.file = "g" + std::to_string(w.distinct.size()) + ".sdlo";
      j.verb = cls == "analyze" ? "analyze"
               : cls == "misses" ? "misses"
                                 : "sweep";
      if (cls == "misses") j.cap = std::int64_t{4} << rng.below(5);
      if (cls == "sweep-symbolic") j.engine = "symbolic";
    }
    j.cls = cls;
    j.id = cls + " r" + std::to_string(w.distinct.size());
    w.sequence.push_back(w.distinct.size());
    w.distinct.push_back(std::move(j));
  }
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  SplitMix64 rng(seed);
  if (name == "sweep-default") {
    make_sweep_default(w, smoke);
  } else if (name == "sweep-parallel") {
    make_sweep_parallel(w, smoke);
  } else if (name == "model") {
    make_model(w, smoke);
  } else if (name == "serve-mix") {
    make_serve_mix(w, seed, rng, smoke);
  } else {
    throw sdlo::Error("unknown workload '" + name +
                      "' (sweep-default, sweep-parallel, model, serve-mix)");
  }
  shuffle(w.jobs, rng);  // the order of the jobs in every round
  return w;
}

Job panel_job() {
  const std::int64_t n = 16;
  Job j = gallery_job("sweep", "mm", n,
                      {{"NI", n}, {"NJ", n}, {"NK", n}}, 0);
  j.id = "panel";
  j.cls = "panel";
  j.cap = 64;
  return j;
}

void write_program_files(const std::vector<Job>& jobs) {
  std::set<std::string> written;
  for (const Job& j : jobs) {
    if (written.insert(j.file).second) write_file(j.file, j.program);
  }
}

}  // namespace sdlo_bench
