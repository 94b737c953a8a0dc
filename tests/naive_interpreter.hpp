// A deliberately naive trace reference shared by the walker tests: the
// NaiveInterpreter walks the Program tree directly with a name->value map
// and computes every address from first principles — the reference for
// the compiled walker's lowering and its run compression.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "symbolic/expr.hpp"
#include "trace/walker.hpp"

namespace sdlo::reference {

/// Slow reference interpreter: walks the Program tree directly with a
/// name->value map and computes addresses from first principles.
class NaiveInterpreter {
 public:
  NaiveInterpreter(const ir::Program& prog, const sym::Env& env)
      : prog_(prog), env_(env) {
    std::uint64_t base = 0;
    for (const auto& array : prog.arrays()) {
      base_[array] = base;
      std::uint64_t size = 1;
      for (const auto& sub : prog.array_shape(array)) {
        for (const auto& v : sub.vars) {
          size *= static_cast<std::uint64_t>(extent(v));
        }
      }
      base += std::max<std::uint64_t>(size, 1);
    }
  }

  std::vector<trace::Access> run() {
    out_.clear();
    site_of_.clear();
    std::int32_t next = 0;
    for (ir::NodeId s : prog_.statements_in_order()) {
      site_of_[s] = next;
      next += static_cast<std::int32_t>(
          prog_.statement(s).accesses.size());
    }
    std::map<std::string, std::int64_t> values;
    for (ir::NodeId c : prog_.children(ir::Program::kRoot)) {
      walk(c, values);
    }
    return out_;
  }

 private:
  std::int64_t extent(const std::string& var) const {
    return sym::evaluate(prog_.extent_of(var), env_);
  }

  void walk(ir::NodeId n, std::map<std::string, std::int64_t>& values) {
    if (prog_.is_statement(n)) {
      const auto& stmt = prog_.statement(n);
      for (std::size_t a = 0; a < stmt.accesses.size(); ++a) {
        const auto& ref = stmt.accesses[a];
        std::uint64_t offset = 0;
        for (const auto& sub : ref.subscripts) {
          for (const auto& v : sub.vars) {
            offset = offset * static_cast<std::uint64_t>(extent(v)) +
                     static_cast<std::uint64_t>(values.at(v));
          }
        }
        const std::uint64_t addr = base_.at(ref.array) + offset;
        // Row-major over dims == mixed radix over the flattened var list,
        // which is what the loop above computes.
        out_.push_back(
            trace::Access{addr, ref.mode,
                          site_of_.at(n) + static_cast<std::int32_t>(a)});
      }
      return;
    }
    loop_level(n, 0, values);
  }

  void loop_level(ir::NodeId band, std::size_t li,
                  std::map<std::string, std::int64_t>& values) {
    const auto& loops = prog_.band_loops(band);
    if (li == loops.size()) {
      for (ir::NodeId c : prog_.children(band)) walk(c, values);
      return;
    }
    const auto& loop = loops[li];
    const std::int64_t e = extent(loop.var);
    for (std::int64_t v = 0; v < e; ++v) {
      values[loop.var] = v;
      loop_level(band, li + 1, values);
    }
    values.erase(loop.var);
  }

  const ir::Program& prog_;
  const sym::Env& env_;
  std::map<std::string, std::uint64_t> base_;
  std::map<ir::NodeId, std::int32_t> site_of_;
  std::vector<trace::Access> out_;
};

}  // namespace sdlo::reference
