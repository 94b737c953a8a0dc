#include "fuzz/naive_interpreter.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace sdlo::fuzz {

NaiveInterpreter::NaiveInterpreter(const ir::Program& prog,
                                   const sym::Env& env)
    : prog_(prog) {
  for (const auto& var : prog.variables()) {
    extents_[var] = sym::evaluate(prog.extent_of(var), env);
  }
  std::int32_t site = 0;
  for (ir::NodeId s : prog.statements_in_order()) {
    std::map<std::string, std::size_t> position;
    const auto path = prog.path_loops(s);
    for (std::size_t i = 0; i < path.size(); ++i) position[path[i].var] = i;
    StatementPlan& plan = plans_[s];
    plan.first_site = site;
    for (const auto& ref : prog.statement(s).accesses) {
      std::vector<Digit> digits;
      for (const auto& sub : ref.subscripts) {
        for (const auto& v : sub.vars) {
          digits.push_back(Digit{position.at(v), extents_.at(v)});
        }
      }
      plan.accesses.push_back(std::move(digits));
      ++site;
    }
  }
}

void NaiveInterpreter::run(const Visit& visit, ir::NodeId root,
                           const std::vector<std::int64_t>& bound) {
  const std::size_t path = prog_.path_loops(root).size();
  const std::size_t own = prog_.band_loops(root).size();
  SDLO_CHECK(bound.size() <= path && bound.size() + own >= path,
             "every loop above the subtree root must be bound");
  values_ = bound;
  loop_level(root, bound.size() + own - path, visit);
}

std::uint64_t NaiveInterpreter::subtree_accesses(ir::NodeId root) const {
  std::uint64_t count = accesses_below(root);
  for (const auto& pl : prog_.path_loops(root)) {
    if (pl.band == root) continue;
    count *= static_cast<std::uint64_t>(extents_.at(pl.var));
  }
  return count;
}

// Accesses one execution of node `n` (its own loops included) performs.
std::uint64_t NaiveInterpreter::accesses_below(ir::NodeId n) const {
  if (prog_.is_statement(n)) return prog_.statement(n).accesses.size();
  std::uint64_t count = 0;
  for (ir::NodeId c : prog_.children(n)) count += accesses_below(c);
  for (const auto& l : prog_.band_loops(n)) {
    count *= static_cast<std::uint64_t>(extents_.at(l.var));
  }
  return count;
}

std::vector<trace::Access> NaiveInterpreter::trace() {
  std::map<std::string, std::uint64_t> base;
  std::uint64_t next = 0;
  for (const auto& array : prog_.arrays()) {
    base[array] = next;
    std::int64_t size = 1;
    for (const auto& v : prog_.array_vars(array)) size *= extents_.at(v);
    next += static_cast<std::uint64_t>(std::max<std::int64_t>(size, 1));
  }
  std::vector<trace::Access> out;
  run([&](ir::NodeId stmt, int access, std::int32_t site,
          std::int64_t element, const std::vector<std::int64_t>&) {
    const ir::ArrayRef& ref =
        prog_.statement(stmt).accesses[static_cast<std::size_t>(access)];
    out.push_back(trace::Access{
        base.at(ref.array) + static_cast<std::uint64_t>(element), ref.mode,
        site});
  });
  return out;
}

void NaiveInterpreter::walk(ir::NodeId n, const Visit& visit) {
  if (!prog_.is_statement(n)) {
    loop_level(n, 0, visit);
    return;
  }
  const StatementPlan& plan = plans_.at(n);
  for (std::size_t a = 0; a < plan.accesses.size(); ++a) {
    std::int64_t element = 0;
    for (const Digit& d : plan.accesses[a]) {
      element = element * d.extent + values_[d.loop];
    }
    visit(n, static_cast<int>(a),
          plan.first_site + static_cast<std::int32_t>(a), element, values_);
  }
}

void NaiveInterpreter::loop_level(ir::NodeId band, std::size_t li,
                                  const Visit& visit) {
  const auto& loops = prog_.band_loops(band);
  if (li == loops.size()) {
    for (ir::NodeId c : prog_.children(band)) walk(c, visit);
    return;
  }
  const std::int64_t e = extents_.at(loops[li].var);
  values_.push_back(0);
  for (std::int64_t v = 0; v < e; ++v) {
    values_.back() = v;
    loop_level(band, li + 1, visit);
  }
  values_.pop_back();
}

}  // namespace sdlo::fuzz
