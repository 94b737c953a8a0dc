#include "analysis/verifier.hpp"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "support/checked_math.hpp"

namespace sdlo::analysis {

namespace {

using ir::NodeId;

const char* rule_id(ir::ClassRule rule) {
  switch (rule) {
    case ir::ClassRule::kUnboundSubscriptVar:
      return kWF001UnboundSubscriptVar;
    case ir::ClassRule::kDuplicateVarOnPath:
      return kWF002DuplicateVarOnPath;
    case ir::ClassRule::kExtentConflict:
      return kWF003ExtentConflict;
    case ir::ClassRule::kSubscriptStructureConflict:
      return kWF004SubscriptStructureConflict;
    case ir::ClassRule::kVarTwiceInReference:
      return kWF005VarTwiceInReference;
    case ir::ClassRule::kEmptyStructure:
      break;
  }
  return kWF006EmptyStructure;
}

// Concrete-size checks: every extent symbol bound (WF008), extents
// positive (WF009), array footprints and the total access count
// representable in int64 (WF007). They read the first declaration of each
// loop variable and the first reference to each array, in node order (the
// parser's program order), so they run on out-of-class programs too.
void check_env(const ir::Program& prog, const ir::SourceMap* locs,
               const sym::Env& env, std::vector<Diagnostic>& out) {
  const auto emit = [&](const char* id, Severity sev, SourceLoc loc,
                        const std::string& object, std::string message) {
    out.push_back(Diagnostic{id, sev, loc, object, std::move(message)});
  };
  const auto num_nodes = static_cast<NodeId>(prog.num_nodes());

  std::map<std::string, std::int64_t> value;  // positive extents
  std::set<std::string> declared;
  std::set<std::string> reported_unbound;
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (prog.is_statement(n)) continue;
    const SourceLoc at = locs != nullptr ? locs->node_loc(n) : SourceLoc{};
    for (const auto& [var, extent] : prog.band_loops(n)) {
      if (!declared.insert(var).second) continue;
      bool bound = true;
      for (const auto& s : sym::symbols_of(extent)) {
        if (env.count(s) != 0) continue;
        bound = false;
        if (reported_unbound.insert(s).second) {
          emit(kWF008UnboundSymbol, Severity::kError, at, s,
               "environment does not bind symbol '" + s +
                   "' used in the extent of loop '" + var + "'");
        }
      }
      if (!bound) continue;
      try {
        const std::int64_t v = sym::evaluate(extent, env);
        if (v > 0) {
          value.emplace(var, v);
        } else {
          emit(kWF009NonPositiveExtent, Severity::kWarning, at, var,
               "extent " + sym::to_string(extent) + " of loop '" + var +
                   "' evaluates to " + std::to_string(v) +
                   " under this environment (loop body never executes)");
        }
      } catch (const Error& e) {
        emit(kWF007FootprintOverflow, Severity::kError, at, var,
             "extent " + sym::to_string(extent) + " of loop '" + var +
                 "' does not evaluate: " + e.what());
      }
    }
  }

  // Product of the extents of `vars`; nullopt at the first one without a
  // positive value. Throws ContractViolation when the product overflows.
  const auto product = [&](const std::vector<std::string>& vars)
      -> std::optional<std::int64_t> {
    std::int64_t p = 1;
    for (const auto& v : vars) {
      const auto it = value.find(v);
      if (it == value.end()) return std::nullopt;
      p = checked_mul(p, it->second);
    }
    return p;
  };

  std::set<std::string> referenced;
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (!prog.is_statement(n)) continue;
    const auto& accesses = prog.statement(n).accesses;
    for (std::size_t a = 0; a < accesses.size(); ++a) {
      const ir::ArrayRef& ref = accesses[a];
      if (!referenced.insert(ref.array).second) continue;
      std::vector<std::string> vars;
      for (const auto& sub : ref.subscripts) {
        vars.insert(vars.end(), sub.vars.begin(), sub.vars.end());
      }
      try {
        (void)product(vars);
      } catch (const ContractViolation&) {
        const ir::AccessSite site{n, static_cast<int>(a)};
        emit(kWF007FootprintOverflow, Severity::kError,
             locs != nullptr ? locs->access_loc(site) : SourceLoc{},
             ref.array,
             "footprint of array '" + ref.array +
                 "' overflows int64 under this environment");
      }
    }
  }

  try {
    std::int64_t total = 0;
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (!prog.is_statement(n)) continue;
      std::vector<std::string> vars;
      for (const auto& pl : prog.path_loops(n)) vars.push_back(pl.var);
      if (const auto instances = product(vars)) {
        total = checked_add(
            total, checked_mul(*instances,
                               static_cast<std::int64_t>(
                                   prog.statement(n).accesses.size())));
      }
    }
  } catch (const ContractViolation&) {
    emit(kWF007FootprintOverflow, Severity::kError, SourceLoc{}, "program",
         "total access count overflows int64 under this environment");
  }
}

}  // namespace

bool verify_program(const ir::Program& prog,
                    const std::vector<ir::ClassViolation>& violations,
                    const ir::SourceMap* locs, const sym::Env* env,
                    std::vector<Diagnostic>& out) {
  for (const ir::ClassViolation& v : violations) {
    SourceLoc at;
    if (locs != nullptr && v.access >= 0) {
      at = locs->access_loc(ir::AccessSite{v.node, v.access});
    } else if (locs != nullptr && v.node >= 0) {
      at = locs->node_loc(v.node);
    }
    out.push_back(
        Diagnostic{rule_id(v.rule), Severity::kError, at, v.object, v.message});
  }
  const std::size_t errors_before = count_severity(out, Severity::kError);
  if (env != nullptr) check_env(prog, locs, *env, out);
  return violations.empty() &&
         count_severity(out, Severity::kError) == errors_before;
}

}  // namespace sdlo::analysis
