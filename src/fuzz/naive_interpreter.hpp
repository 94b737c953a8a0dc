// The one deliberately naive reference interpreter of the IR.
//
// NaiveInterpreter executes a validated Program by walking its tree
// directly: every loop is enumerated, and every access's element index is
// recomputed from the loop values as the row-major composition of its
// subscripts. It shares nothing with the compiled walker
// (trace/walker.hpp) — no plan, no strides, no run compression — which is
// what makes it the reference the walker tests and the brute-force
// parallel-safety and dependence oracles run on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "symbolic/expr.hpp"
#include "trace/walker.hpp"

namespace sdlo::fuzz {

class NaiveInterpreter {
 public:
  /// Called once per executed access, in program order: the statement,
  /// the access's index within it, its site (numbered as the walker
  /// numbers them), the element index within its array, and the values of
  /// the statement's enclosing loops, outermost first.
  using Visit = std::function<void(
      ir::NodeId stmt, int access, std::int32_t site, std::int64_t element,
      const std::vector<std::int64_t>& loop_values)>;

  /// Binds `prog` (validated) to `env`; every extent is evaluated here,
  /// once.
  NaiveInterpreter(const ir::Program& prog, const sym::Env& env);

  /// Executes the whole program, or the subtree rooted at band `root` with
  /// the first `bound.size()` loops of path_loops(root) fixed to `bound`:
  /// every loop above `root` must be bound, and the band's own bound loops
  /// are not enumerated.
  void run(const Visit& visit, ir::NodeId root = ir::Program::kRoot,
           const std::vector<std::int64_t>& bound = {});

  /// The whole trace, with the walker's address layout: arrays placed
  /// back to back in first-appearance order, each at least one element.
  std::vector<trace::Access> trace();

  /// Value of loop variable `var`'s extent under the environment.
  std::int64_t extent(const std::string& var) const {
    return extents_.at(var);
  }

  /// Accesses run(root, bound) performs summed over every value of the
  /// loops on path_loops(root): what brute-forcing the subtree costs.
  std::uint64_t subtree_accesses(ir::NodeId root) const;

  /// The site number the visits report for access site `s`.
  std::int32_t site_of(const ir::AccessSite& s) const {
    return plans_.at(s.stmt).first_site + s.access;
  }

 private:
  // One subscript digit: the position of its variable in the statement's
  // enclosing-loop list, and that variable's extent.
  struct Digit {
    std::size_t loop = 0;
    std::int64_t extent = 0;
  };
  struct StatementPlan {
    std::int32_t first_site = 0;
    std::vector<std::vector<Digit>> accesses;
  };

  std::uint64_t accesses_below(ir::NodeId n) const;
  void walk(ir::NodeId n, const Visit& visit);
  void loop_level(ir::NodeId band, std::size_t li, const Visit& visit);

  const ir::Program& prog_;
  std::map<std::string, std::int64_t> extents_;
  std::map<ir::NodeId, StatementPlan> plans_;
  std::vector<std::int64_t> values_;  ///< enclosing loop values
};

}  // namespace sdlo::fuzz
