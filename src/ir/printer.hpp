// Pretty-printer for Program trees, rendering a code-like view (Figs. 2/6
// of the paper).
#pragma once

#include <iosfwd>
#include <string>

#include "ir/program.hpp"

namespace sdlo::ir {

/// Renders code-style, e.g.
///   for iT, nT {
///     for iI, nI { S5: T[iI,nI] = ... }
///     ...
///   }
void print_code(const Program& p, std::ostream& os);

/// print_code into a string.
std::string to_code_string(const Program& p);

/// Renders one reference, e.g. "B[mT+mI,nT+nI]".
std::string ref_to_string(const ArrayRef& ref);

}  // namespace sdlo::ir
