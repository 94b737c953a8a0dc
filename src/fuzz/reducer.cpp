#include "fuzz/reducer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/check.hpp"
#include "support/failpoints.hpp"
#include "support/string_util.hpp"

namespace sdlo::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Mutable mirror of the Program tree. ir::Program is append-only, so every
// candidate edit is performed on this copyable structure and rebuilt.
// ---------------------------------------------------------------------------

struct MutNode {
  bool is_stmt = false;
  std::vector<ir::Loop> loops;  // band
  ir::Statement stmt;           // statement
  std::vector<MutNode> children;
};

struct State {
  std::vector<MutNode> top;  // children of the root
  sym::Env env;
};

MutNode build_node(const ir::Program& p, ir::NodeId n) {
  MutNode m;
  if (p.is_statement(n)) {
    m.is_stmt = true;
    m.stmt = p.statement(n);
    return m;
  }
  m.loops = p.band_loops(n);
  for (ir::NodeId c : p.children(n)) m.children.push_back(build_node(p, c));
  return m;
}

State build_state(const ir::Program& p, const sym::Env& env) {
  State s;
  s.env = env;
  for (ir::NodeId c : p.children(ir::Program::kRoot)) {
    s.top.push_back(build_node(p, c));
  }
  return s;
}

void add_node(ir::Program& p, ir::NodeId parent, const MutNode& n) {
  if (n.is_stmt) {
    p.add_statement(parent, n.stmt);
    return;
  }
  ir::NodeId band = p.add_band(parent, n.loops);
  for (const MutNode& c : n.children) add_node(p, band, c);
}

/// Rebuilds and validates; nullopt when the candidate left the constrained
/// class (the caller just discards it).
std::optional<ir::Program> rebuild(const State& s) {
  try {
    ir::Program p;
    for (const MutNode& n : s.top) add_node(p, ir::Program::kRoot, n);
    p.validate();
    return p;
  } catch (const Error&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Candidate edits. Each enumerator appends whole candidate States, ordered
// by expected payoff within its family.
// ---------------------------------------------------------------------------

using Path = std::vector<std::size_t>;  // child indices from the root

void collect_paths(const std::vector<MutNode>& nodes, const Path& prefix,
                   std::vector<Path>& out) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Path p = prefix;
    p.push_back(i);
    out.push_back(p);  // pre-order: outer subtrees first (bigger deletions)
    if (!nodes[i].is_stmt) collect_paths(nodes[i].children, p, out);
  }
}

void delete_at(std::vector<MutNode>& nodes, const Path& path,
               std::size_t depth = 0) {
  const std::size_t i = path[depth];
  if (depth + 1 == path.size()) {
    nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
  delete_at(nodes[i].children, path, depth + 1);
}

void enum_node_deletions(const State& base, std::vector<State>& out) {
  std::vector<Path> paths;
  collect_paths(base.top, {}, paths);
  for (const Path& p : paths) {
    State s = base;
    delete_at(s.top, p);
    out.push_back(std::move(s));
  }
}

/// Removes loop variable `v` everywhere: from every band declaring it
/// (splicing bands left loop-less into their parent) and from every
/// subscript mentioning it (dropping subscript dims left empty).
void strip_var_node(MutNode n, const std::string& v,
                    std::vector<MutNode>& out) {
  if (n.is_stmt) {
    for (auto& a : n.stmt.accesses) {
      std::vector<ir::Subscript> subs;
      for (auto& sub : a.subscripts) {
        std::erase(sub.vars, v);
        if (!sub.vars.empty()) subs.push_back(std::move(sub));
      }
      a.subscripts = std::move(subs);
    }
    out.push_back(std::move(n));
    return;
  }
  std::erase_if(n.loops, [&](const ir::Loop& l) { return l.var == v; });
  std::vector<MutNode> kids;
  for (auto& c : n.children) strip_var_node(std::move(c), v, kids);
  n.children = std::move(kids);
  if (n.loops.empty()) {
    for (auto& c : n.children) out.push_back(std::move(c));
  } else {
    out.push_back(std::move(n));
  }
}

void collect_vars(const std::vector<MutNode>& nodes,
                  std::set<std::string>& vars) {
  for (const auto& n : nodes) {
    if (n.is_stmt) continue;
    for (const auto& l : n.loops) vars.insert(l.var);
    collect_vars(n.children, vars);
  }
}

void enum_var_removals(const State& base, std::vector<State>& out) {
  std::set<std::string> vars;
  collect_vars(base.top, vars);
  for (const auto& v : vars) {
    State s = base;
    std::vector<MutNode> top;
    for (auto& n : s.top) strip_var_node(std::move(n), v, top);
    s.top = std::move(top);
    out.push_back(std::move(s));
  }
}

template <typename Fn>
void for_each_statement(std::vector<MutNode>& nodes, Fn&& fn) {
  for (auto& n : nodes) {
    if (n.is_stmt) {
      fn(n.stmt);
    } else {
      for_each_statement(n.children, fn);
    }
  }
}

void enum_access_removals(const State& base, std::vector<State>& out) {
  // One candidate per removable (statement, read-access) pair, addressed by
  // a running statement counter so indices survive the copy. Writes stay:
  // the textual grammar requires every statement to end in one.
  int nstmts = 0;
  {
    State probe = base;
    for_each_statement(probe.top, [&](ir::Statement&) { ++nstmts; });
  }
  for (int target = 0; target < nstmts; ++target) {
    // Count removable accesses of this statement first.
    std::size_t nacc = 0;
    {
      State probe = base;
      int idx = 0;
      for_each_statement(probe.top, [&](ir::Statement& st) {
        if (idx++ == target) nacc = st.accesses.size();
      });
    }
    for (std::size_t a = 0; a < nacc; ++a) {
      State s = base;
      int idx = 0;
      bool removed = false;
      for_each_statement(s.top, [&](ir::Statement& st) {
        if (idx++ != target) return;
        if (st.accesses[a].mode != ir::AccessMode::kRead) return;
        st.accesses.erase(st.accesses.begin() +
                          static_cast<std::ptrdiff_t>(a));
        removed = true;
      });
      if (removed) out.push_back(std::move(s));
    }
  }
}

void enum_subscript_simplifications(const State& base,
                                    std::vector<State>& out) {
  // Arrays have one global subscript structure; collect it from the first
  // reference, then edit every reference identically.
  std::map<std::string, std::vector<std::size_t>> dims;  // array -> var counts
  {
    State probe = base;
    for_each_statement(probe.top, [&](ir::Statement& st) {
      for (auto& a : st.accesses) {
        if (dims.count(a.array)) continue;
        std::vector<std::size_t> d;
        for (auto& sub : a.subscripts) d.push_back(sub.vars.size());
        dims.emplace(a.array, std::move(d));
      }
    });
  }
  for (const auto& [array, var_counts] : dims) {
    for (std::size_t d = 0; d < var_counts.size(); ++d) {
      // Drop the whole dimension everywhere.
      {
        State s = base;
        for_each_statement(s.top, [&, array = array](ir::Statement& st) {
          for (auto& a : st.accesses) {
            if (a.array != array) continue;
            a.subscripts.erase(a.subscripts.begin() +
                               static_cast<std::ptrdiff_t>(d));
          }
        });
        out.push_back(std::move(s));
      }
      // Un-fuse: remove one variable from a mixed-radix pair everywhere.
      for (std::size_t k = 0; var_counts[d] > 1 && k < var_counts[d]; ++k) {
        State s = base;
        for_each_statement(s.top, [&, array = array](ir::Statement& st) {
          for (auto& a : st.accesses) {
            if (a.array != array) continue;
            auto& vars = a.subscripts[d].vars;
            vars.erase(vars.begin() + static_cast<std::ptrdiff_t>(k));
          }
        });
        out.push_back(std::move(s));
      }
    }
  }
}

void enum_extent_shrinks(const State& base, std::vector<State>& out) {
  for (const auto& [name, value] : base.env) {
    auto with = [&, name = name](std::int64_t v) {
      State s = base;
      s.env[name] = v;
      out.push_back(std::move(s));
    };
    if (value > 1) with(1);
    if (value >= 4) with(value / 2);
    if (value > 2) with(value - 1);
  }
}

std::vector<State> enumerate(const State& base) {
  std::vector<State> out;
  enum_node_deletions(base, out);
  enum_var_removals(base, out);
  enum_access_removals(base, out);
  enum_subscript_simplifications(base, out);
  enum_extent_shrinks(base, out);
  return out;
}

/// Hard cap on predicate evaluations (each one typically re-simulates).
constexpr std::size_t kMaxEvaluations = 20'000;

}  // namespace

Reduction reduce(const ir::Program& prog, const sym::Env& env,
                 const FailurePredicate& fails) {
  SDLO_CHECK(fails(prog, env),
             "reduce() requires a failing (program, env) to start from");
  Reduction result;
  result.env = env;
  State state = build_state(prog, env);
  std::size_t evaluations = 0;

  auto try_state = [&](const State& s) -> std::optional<ir::Program> {
    ++evaluations;
    auto rebuilt = rebuild(s);
    if (!rebuilt) return std::nullopt;
    try {
      if (!fails(*rebuilt, s.env)) return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;  // candidate broke the predicate's preconditions
    }
    return rebuilt;
  };

  // Greedy fixpoint: after every kept edit, re-enumerate from the smaller
  // program (earlier-family edits often become possible again).
  for (;;) {
    bool improved = false;
    for (State& candidate : enumerate(state)) {
      if (evaluations >= kMaxEvaluations) break;
      if (try_state(candidate)) {
        state = std::move(candidate);
        ++result.steps;
        improved = true;
        break;
      }
    }
    if (!improved || evaluations >= kMaxEvaluations) break;
  }

  auto final_prog = rebuild(state);
  SDLO_ENSURES(final_prog.has_value());
  result.prog = std::move(*final_prog);
  result.env = std::move(state.env);
  result.evaluations = evaluations;
  return result;
}

std::string to_artifact(const ir::Program& prog, const sym::Env& env,
                        const std::string& note) {
  std::ostringstream os;
  os << "# sdlo fuzz counterexample\n";
  if (!note.empty()) {
    std::istringstream lines(note);
    std::string line;
    while (std::getline(lines, line)) os << "# " << line << "\n";
  }
  for (const auto& [name, value] : env) {
    os << "# set " << name << "=" << value << "\n";
  }
  os << ir::to_code_string(prog);
  return os.str();
}

Artifact parse_artifact(const std::string& text) {
  sym::Env env;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string trimmed(trim(line));
    if (!starts_with(trimmed, "# set ")) continue;
    const std::string binding(trim(trimmed.substr(6)));
    const auto eq = binding.find('=');
    if (eq == std::string::npos) {
      throw ParseError("malformed artifact binding: " + trimmed);
    }
    env[std::string(trim(binding.substr(0, eq)))] =
        parse_int(binding.substr(eq + 1));
  }
  // Comments are whitespace to the program grammar, so the whole artifact
  // text parses directly.
  return Artifact{ir::parse_program(text), std::move(env)};
}

void write_artifact_file(const std::string& path,
                         const std::string& content) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      SDLO_CHECK(out.good(), "cannot open artifact temp file " + tmp);
      // Split the write so the artifact-write failpoint lands mid-file:
      // an injected fault here must leave `path` untouched.
      const std::size_t half = content.size() / 2;
      out.write(content.data(), static_cast<std::streamsize>(half));
      failpoints::hit(failpoints::kArtifactWrite);
      out.write(content.data() + half,
                static_cast<std::streamsize>(content.size() - half));
      out.flush();
      SDLO_CHECK(out.good(), "short write to artifact temp file " + tmp);
    }
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // best effort; keep the original
    throw;
  }
}

}  // namespace sdlo::fuzz
