// ASCII table printer used by the bench binaries to emit paper-style tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sdlo {

/// Accumulates rows of strings and renders an aligned ASCII table (column 0
/// left-aligned, the rest right-aligned), e.g.
///
///   TextTable t({"Loop Bounds", "Predicted", "Actual"});
///   t.add_row({"(256,256)", "1,048,576", "1,066,774"});
///   t.print(std::cout);
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Adds one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule and column padding.
  void print(std::ostream& os) const;

  /// Renders as RFC 4180 CSV (no padding), for machine consumption: a
  /// cell holding a comma, a quote or a line break is quoted.
  void print_csv(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sdlo
