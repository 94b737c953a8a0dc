#include "ir/printer.hpp"

#include <ostream>
#include <sstream>

namespace sdlo::ir {

namespace {

std::string band_header(const Program& p, NodeId n) {
  std::ostringstream os;
  os << "for ";
  const auto& loops = p.band_loops(n);
  for (std::size_t i = 0; i < loops.size(); ++i) {
    if (i != 0) os << ", ";
    os << loops[i].var << "<" << sym::to_string(loops[i].extent) << ">";
  }
  return os.str();
}

std::string stmt_text(const Statement& s) {
  std::ostringstream os;
  os << s.label << ": ";
  // Renders "W += r1 * r2" when the statement reads its own target (an
  // accumulation), "W = 0" for pure initializations, "W = r1 * r2"
  // otherwise, matching the parser's input syntax.
  const ArrayRef* write = nullptr;
  bool self_read = false;
  for (const auto& a : s.accesses) {
    if (a.mode == AccessMode::kWrite) write = &a;
  }
  std::ostringstream reads;
  bool first_read = true;
  for (const auto& a : s.accesses) {
    if (a.mode == AccessMode::kWrite) continue;
    if (write != nullptr && a.array == write->array &&
        a.subscripts == write->subscripts) {
      self_read = true;
      continue;
    }
    if (!first_read) reads << " * ";
    first_read = false;
    reads << ref_to_string(a);
  }
  if (write == nullptr) {
    os << "use " << reads.str();
    return os.str();
  }
  os << ref_to_string(*write) << (self_read ? " += " : " = ");
  os << (first_read ? "0" : reads.str());
  return os.str();
}

void print_node(const Program& p, NodeId n, int depth, std::ostream& os) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  if (p.is_statement(n)) {
    os << indent << stmt_text(p.statement(n)) << "\n";
    return;
  }
  const bool is_root = (n == Program::kRoot);
  if (!is_root) {
    os << indent << band_header(p, n) << " {\n";
  }
  for (NodeId c : p.children(n)) {
    print_node(p, c, is_root ? depth : depth + 1, os);
  }
  if (!is_root) os << indent << "}\n";
}

}  // namespace

std::string ref_to_string(const ArrayRef& ref) {
  std::ostringstream os;
  os << ref.array;
  if (!ref.subscripts.empty()) {
    os << "[";
    for (std::size_t d = 0; d < ref.subscripts.size(); ++d) {
      if (d != 0) os << ",";
      const auto& vars = ref.subscripts[d].vars;
      for (std::size_t v = 0; v < vars.size(); ++v) {
        if (v != 0) os << "+";
        os << vars[v];
      }
    }
    os << "]";
  }
  return os.str();
}

void print_code(const Program& p, std::ostream& os) {
  print_node(p, Program::kRoot, 0, os);
}

std::string to_code_string(const Program& p) {
  std::ostringstream os;
  print_code(p, os);
  return os.str();
}

}  // namespace sdlo::ir
