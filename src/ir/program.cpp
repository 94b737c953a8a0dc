#include "ir/program.hpp"

#include <algorithm>
#include <set>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace sdlo::ir {

Program::Program() {
  Node root;
  root.parent = -1;
  root.seq_no = 0;
  nodes_.push_back(std::move(root));
}

const Program::Node& Program::node(NodeId n) const {
  SDLO_EXPECTS(n >= 0 && static_cast<std::size_t>(n) < nodes_.size());
  return nodes_[static_cast<std::size_t>(n)];
}

Program::Node& Program::node(NodeId n) {
  SDLO_EXPECTS(n >= 0 && static_cast<std::size_t>(n) < nodes_.size());
  return nodes_[static_cast<std::size_t>(n)];
}

NodeId Program::add_band(NodeId parent, std::vector<Loop> loops) {
  SDLO_CHECK(!validated_, "cannot mutate a validated Program");
  SDLO_CHECK(!is_statement(parent), "cannot nest under a statement");
  SDLO_CHECK(!loops.empty() || parent == kRoot,
             "empty band only permitted at the root");
  for (const auto& l : loops) {
    SDLO_CHECK(is_identifier(l.var), "loop variable must be an identifier");
  }
  Node b;
  b.loops = std::move(loops);
  b.parent = parent;
  b.seq_no = static_cast<int>(node(parent).children.size());
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(b));
  node(parent).children.push_back(id);
  return id;
}

NodeId Program::add_statement(NodeId parent, Statement stmt) {
  SDLO_CHECK(!validated_, "cannot mutate a validated Program");
  SDLO_CHECK(!is_statement(parent), "cannot nest under a statement");
  SDLO_CHECK(!stmt.accesses.empty(), "statement must access something");
  Node s;
  s.stmt = std::move(stmt);
  s.parent = parent;
  s.seq_no = static_cast<int>(node(parent).children.size());
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(s));
  node(parent).children.push_back(id);
  return id;
}

bool Program::is_statement(NodeId n) const { return node(n).stmt.has_value(); }

const Statement& Program::statement(NodeId n) const {
  SDLO_EXPECTS(is_statement(n));
  return *node(n).stmt;
}

const std::vector<Loop>& Program::band_loops(NodeId n) const {
  SDLO_EXPECTS(!is_statement(n));
  return node(n).loops;
}

NodeId Program::parent(NodeId n) const { return node(n).parent; }

const std::vector<NodeId>& Program::children(NodeId n) const {
  return node(n).children;
}

int Program::seq_no(NodeId n) const { return node(n).seq_no; }

std::vector<PathLoop> Program::path_loops(NodeId n) const {
  std::vector<NodeId> chain;
  for (NodeId cur = n; cur != -1; cur = node(cur).parent) {
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  std::vector<PathLoop> out;
  for (NodeId b : chain) {
    if (is_statement(b)) continue;
    const auto& loops = node(b).loops;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      out.push_back(PathLoop{loops[i].var, loops[i].extent, b,
                             static_cast<int>(i)});
    }
  }
  return out;
}

const std::vector<NodeId>& Program::statements_in_order() const {
  SDLO_CHECK(validated_, "Program must be validated first");
  return stmt_order_;
}

void Program::clear_derived() {
  stmt_order_.clear();
  var_extent_.clear();
  var_order_.clear();
  array_order_.clear();
  array_shape_.clear();
  array_refs_.clear();
  array_vars_.clear();
}

std::vector<ClassViolation> Program::try_validate() {
  SDLO_CHECK(!validated_, "validate() called twice");
  std::vector<ClassViolation> out;
  std::vector<std::string> path;
  check_node(kRoot, path, out);
  if (stmt_order_.empty()) {
    out.push_back(ClassViolation{ClassRule::kEmptyStructure, -1, -1, "",
                                 "program contains no statements"});
  }
  if (out.empty()) {
    validated_ = true;
  } else {
    clear_derived();
  }
  return out;
}

void Program::validate() {
  const std::vector<ClassViolation> violations = try_validate();
  if (!violations.empty()) {
    throw UnsupportedProgram(violations.front().message);
  }
}

// Pre-order walk: loop variables unique along each path (`path` holds the
// enclosing ones) and globally extent-consistent; bands other than the
// root have children.
void Program::check_node(NodeId n, std::vector<std::string>& path,
                         std::vector<ClassViolation>& out) {
  if (is_statement(n)) {
    stmt_order_.push_back(n);
    check_statement(n, path, out);
    return;
  }
  const std::size_t depth = path.size();
  for (const auto& l : node(n).loops) {
    for (const auto& enclosing : path) {
      if (enclosing == l.var) {
        out.push_back(ClassViolation{
            ClassRule::kDuplicateVarOnPath, n, -1, l.var,
            "loop variable '" + l.var + "' repeated along one nesting path"});
      }
    }
    const auto [it, inserted] = var_extent_.emplace(l.var, l.extent);
    if (inserted) {
      var_order_.push_back(l.var);
    } else if (!it->second.equals(l.extent)) {
      out.push_back(ClassViolation{
          ClassRule::kExtentConflict, n, -1, l.var,
          "loop variable '" + l.var + "' re-declared with extent " +
              sym::to_string(l.extent) + " (previously " +
              sym::to_string(it->second) + ")"});
    }
    path.push_back(l.var);
  }
  if (n != kRoot && node(n).children.empty()) {
    out.push_back(ClassViolation{ClassRule::kEmptyStructure, n, -1, "",
                                 "band node with no children"});
  }
  for (NodeId c : node(n).children) check_node(c, path, out);
  path.resize(depth);
}

// Each reference: subscript variables enclose the statement, each used
// once, and every reference to an array shares one subscript structure.
void Program::check_statement(NodeId s, const std::vector<std::string>& path,
                              std::vector<ClassViolation>& out) {
  const Statement& stmt = statement(s);
  for (std::size_t a = 0; a < stmt.accesses.size(); ++a) {
    const ArrayRef& ref = stmt.accesses[a];
    const auto violation = [&](ClassRule rule, const std::string& object,
                               std::string message) {
      out.push_back(ClassViolation{rule, s, static_cast<int>(a), object,
                                   std::move(message)});
    };
    if (!is_identifier(ref.array)) {
      violation(ClassRule::kEmptyStructure, ref.array,
                "array name '" + ref.array + "' is not an identifier");
    }
    std::set<std::string> used;
    for (const auto& sub : ref.subscripts) {
      if (sub.vars.empty()) {
        violation(ClassRule::kEmptyStructure, ref.array,
                  "empty subscript in reference to '" + ref.array + "'");
      }
      for (const auto& v : sub.vars) {
        if (std::find(path.begin(), path.end(), v) == path.end()) {
          violation(ClassRule::kUnboundSubscriptVar, v,
                    "subscript variable '" + v + "' of array '" + ref.array +
                        "' is not an enclosing loop of statement " +
                        stmt.label);
        }
        if (!used.insert(v).second) {
          violation(ClassRule::kVarTwiceInReference, v,
                    "variable '" + v + "' used twice in one reference to '" +
                        ref.array + "'");
        }
      }
    }
    const auto [it, inserted] = array_shape_.emplace(ref.array, ref.subscripts);
    if (inserted) {
      array_order_.push_back(ref.array);
      std::vector<std::string> vars;
      for (const auto& sub : ref.subscripts) {
        vars.insert(vars.end(), sub.vars.begin(), sub.vars.end());
      }
      array_vars_[ref.array] = std::move(vars);
    } else if (!(it->second == ref.subscripts)) {
      violation(ClassRule::kSubscriptStructureConflict, ref.array,
                "array '" + ref.array +
                    "' referenced with two different subscript structures; "
                    "the model's element-identity rule requires a single "
                    "structure");
    }
    array_refs_[ref.array].push_back(AccessSite{s, static_cast<int>(a)});
  }
}

const Expr& Program::extent_of(const std::string& var) const {
  SDLO_CHECK(validated_, "Program must be validated first");
  auto it = var_extent_.find(var);
  SDLO_CHECK(it != var_extent_.end(), "unknown loop variable: " + var);
  return it->second;
}

const std::vector<std::string>& Program::variables() const {
  SDLO_CHECK(validated_, "Program must be validated first");
  return var_order_;
}

const std::vector<std::string>& Program::arrays() const {
  SDLO_CHECK(validated_, "Program must be validated first");
  return array_order_;
}

const std::vector<Subscript>& Program::array_shape(
    const std::string& array) const {
  SDLO_CHECK(validated_, "Program must be validated first");
  auto it = array_shape_.find(array);
  SDLO_CHECK(it != array_shape_.end(), "unknown array: " + array);
  return it->second;
}

const std::vector<AccessSite>& Program::refs_to(
    const std::string& array) const {
  SDLO_CHECK(validated_, "Program must be validated first");
  auto it = array_refs_.find(array);
  SDLO_CHECK(it != array_refs_.end(), "unknown array: " + array);
  return it->second;
}

Expr Program::array_size(const std::string& array) const {
  Expr size = Expr::constant(1);
  for (const auto& sub : array_shape(array)) {
    for (const auto& v : sub.vars) {
      size = size * extent_of(v);
    }
  }
  return size;
}

const std::vector<std::string>& Program::array_vars(
    const std::string& array) const {
  SDLO_CHECK(validated_, "Program must be validated first");
  auto it = array_vars_.find(array);
  SDLO_CHECK(it != array_vars_.end(), "unknown array: " + array);
  return it->second;
}

Expr Program::instances_of(NodeId n) const {
  SDLO_CHECK(validated_, "Program must be validated first");
  Expr count = Expr::constant(1);
  for (const auto& pl : path_loops(n)) {
    count = count * pl.extent;
  }
  return count;
}

Expr Program::total_accesses() const {
  SDLO_CHECK(validated_, "Program must be validated first");
  Expr total = Expr::constant(0);
  for (NodeId s : stmt_order_) {
    total = total + instances_of(s) *
                        Expr::constant(static_cast<std::int64_t>(
                            statement(s).accesses.size()));
  }
  return total;
}

namespace {

bool refs_equal(const ArrayRef& a, const ArrayRef& b) {
  return a.array == b.array && a.mode == b.mode &&
         a.subscripts == b.subscripts;
}

bool nodes_equal(const Program& a, NodeId na, const Program& b, NodeId nb) {
  if (a.is_statement(na) != b.is_statement(nb)) return false;
  if (a.is_statement(na)) {
    const Statement& sa = a.statement(na);
    const Statement& sb = b.statement(nb);
    if (sa.label != sb.label) return false;
    if (sa.accesses.size() != sb.accesses.size()) return false;
    for (std::size_t i = 0; i < sa.accesses.size(); ++i) {
      if (!refs_equal(sa.accesses[i], sb.accesses[i])) return false;
    }
    return true;
  }
  const auto& la = a.band_loops(na);
  const auto& lb = b.band_loops(nb);
  if (la.size() != lb.size()) return false;
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (la[i].var != lb[i].var) return false;
    if (!la[i].extent.equals(lb[i].extent)) return false;
  }
  const auto& ca = a.children(na);
  const auto& cb = b.children(nb);
  if (ca.size() != cb.size()) return false;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (!nodes_equal(a, ca[i], b, cb[i])) return false;
  }
  return true;
}

// Splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

std::uint64_t hash_string(std::uint64_t h, const std::string& s) {
  h = hash_mix(h, s.size());
  for (const char c : s) h = hash_mix(h, static_cast<unsigned char>(c));
  return h;
}

// Mirrors nodes_equal field for field; every branch nodes_equal compares
// feeds a distinct tag or length into the hash so hash-equality tracks
// structural equality.
std::uint64_t node_hash(const Program& p, NodeId n, std::uint64_t h) {
  h = hash_mix(h, p.is_statement(n) ? 0x51a7ULL : 0xba2dULL);
  if (p.is_statement(n)) {
    const Statement& s = p.statement(n);
    h = hash_string(h, s.label);
    h = hash_mix(h, s.accesses.size());
    for (const ArrayRef& ref : s.accesses) {
      h = hash_string(h, ref.array);
      h = hash_mix(h, ref.mode == AccessMode::kWrite ? 1 : 0);
      h = hash_mix(h, ref.subscripts.size());
      for (const Subscript& sub : ref.subscripts) {
        h = hash_mix(h, sub.vars.size());
        for (const std::string& v : sub.vars) h = hash_string(h, v);
      }
    }
    return h;
  }
  const auto& loops = p.band_loops(n);
  h = hash_mix(h, loops.size());
  for (const Loop& l : loops) {
    h = hash_string(h, l.var);
    // Canonical rendering: Expr::equals-equal extents print identically.
    h = hash_string(h, sym::to_string(l.extent));
  }
  const auto& kids = p.children(n);
  h = hash_mix(h, kids.size());
  for (NodeId c : kids) h = node_hash(p, c, h);
  return h;
}

}  // namespace

bool structurally_equal(const Program& a, const Program& b) {
  return nodes_equal(a, Program::kRoot, b, Program::kRoot);
}

std::uint64_t structural_hash(const Program& p) {
  return node_hash(p, Program::kRoot, 0x5d10c0de00000001ULL);
}

}  // namespace sdlo::ir
