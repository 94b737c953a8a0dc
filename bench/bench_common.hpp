// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "model/analyzer.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "trace/walker.hpp"

namespace sdlo::bench {

/// Cache sizes in elements (doubles) for the paper's byte sizes.
inline std::int64_t kb_to_elems(std::int64_t kilobytes) {
  return kilobytes * 1024 / 8;
}

/// "(a,b,c,d)" rendering of a tuple.
inline std::string tuple_str(const std::vector<std::int64_t>& v) {
  std::string s = "(";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(v[i]);
  }
  return s + ")";
}

/// Relative error in percent.
inline std::string rel_err_pct(std::int64_t predicted, std::uint64_t actual) {
  if (actual == 0) return predicted == 0 ? "0.00%" : "inf";
  const double e = 100.0 *
                   std::abs(static_cast<double>(predicted) -
                            static_cast<double>(actual)) /
                   static_cast<double>(actual);
  return format_double(e, 3) + "%";
}

/// Renders a PointSpec-style coordinate for Table-1 presentation: free
/// coordinates print as their loop variable, pivots as x (source: x-1),
/// extents as the loop variable's extent.
inline std::string coord_str(const model::Analysis& an, const sym::Expr& e) {
  std::map<std::string, sym::Expr> rename;
  for (const auto& s : sym::symbols_of(e)) {
    if (starts_with(s, "__c_") || starts_with(s, "__x_")) {
      const std::string var = s.substr(4);
      rename.emplace(s, sym::Expr::symbol(
                            starts_with(s, "__x_") ? "x" : var));
    }
  }
  return sym::to_string(an.symtab.resolve(sym::substitute_exprs(e, rename)));
}

/// Renders a point spec as "(i, j, x-1, Tk-1)".
inline std::string point_str(const model::Analysis& an,
                             const model::PointSpec& p) {
  std::string s = "(";
  for (std::size_t i = 0; i < p.coords.size(); ++i) {
    if (i != 0) s += ",";
    s += coord_str(an, p.coords[i]);
  }
  return s + ")";
}

}  // namespace sdlo::bench
