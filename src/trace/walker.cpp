#include "trace/walker.hpp"

#include <algorithm>

#include "support/checked_math.hpp"

namespace sdlo::trace {

namespace {

std::int64_t eval_positive(const sym::Expr& e, const sym::Env& env,
                           const char* what) {
  const std::int64_t v = sym::evaluate(e, env);
  SDLO_CHECK(v > 0, std::string(what) + " must be positive");
  return v;
}

/// Binary search in a name-sorted vector.
const std::uint64_t* find_sorted(
    const std::vector<std::pair<std::string, std::uint64_t>>& table,
    const std::string& key) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == table.end() || it->first != key) return nullptr;
  return &it->second;
}

}  // namespace

CompiledProgram::CompiledProgram(const ir::Program& prog,
                                 const sym::Env& env) {
  SDLO_CHECK(prog.validated(), "CompiledProgram requires a validated Program");

  // Lay out arrays: row-major over dims, mixed radix within a dim. Bases
  // are assigned in declaration order; the lookup tables are then sorted by
  // name for binary search.
  for (const auto& array : prog.arrays()) {
    std::uint64_t size = 1;
    for (const auto& subscript : prog.array_shape(array)) {
      for (const auto& var : subscript.vars) {
        size = static_cast<std::uint64_t>(checked_mul(
            static_cast<std::int64_t>(size),
            eval_positive(prog.extent_of(var), env, "extent")));
      }
    }
    if (size == 0) size = 1;  // scalar
    base_of_.emplace_back(array, next_base_);
    elements_of_.emplace_back(array, size);
    next_base_ += size;
  }
  std::sort(base_of_.begin(), base_of_.end());
  std::sort(elements_of_.begin(), elements_of_.end());

  // Assign access-site ids in program order.
  for (ir::NodeId s : prog.statements_in_order()) {
    first_site_of_stmt_.emplace_back(s, num_sites_);
    num_sites_ += static_cast<std::int32_t>(
        prog.statement(s).accesses.size());
  }
  std::sort(first_site_of_stmt_.begin(), first_site_of_stmt_.end());

  std::vector<std::pair<std::string, std::int32_t>> slot_of;
  for (ir::NodeId c : prog.children(ir::Program::kRoot)) {
    top_.push_back(lower(prog, c, env, slot_of));
  }
  for (auto& op : top_) {
    flatten_leaves(op);
    fill_counts(op);
  }

  // Total access/group counts, cached per plan op from the lowered plan
  // (the plan already carries every extent, so no second pass over path
  // loops). The per-op counts drive the analytic range walk.
  total_accesses_ = 0;
  total_groups_ = 0;
  for (const auto& op : top_) {
    total_accesses_ += op.accesses;
    total_groups_ += op.groups;
  }
}

void CompiledProgram::fill_counts(PlanOp& op) {
  if (op.extent < 0) {
    op.accesses = op.refs.size();
    op.groups = op.refs.empty() ? 0 : 1;
    return;
  }
  if (!op.leaf_refs.empty()) {
    // A flattened innermost loop is delivered as one group per execution.
    op.accesses =
        static_cast<std::uint64_t>(op.extent) * op.leaf_refs.size();
    op.groups = 1;
    return;
  }
  std::uint64_t per_iter_accesses = 0;
  std::uint64_t per_iter_groups = 0;
  for (auto& child : op.body) {
    fill_counts(child);
    per_iter_accesses += child.accesses;
    per_iter_groups += child.groups;
  }
  op.accesses = static_cast<std::uint64_t>(op.extent) * per_iter_accesses;
  op.groups = static_cast<std::uint64_t>(op.extent) * per_iter_groups;
}

std::uint64_t CompiledProgram::group_of_access(
    std::uint64_t access_index) const {
  SDLO_EXPECTS(access_index < total_accesses_);
  std::uint64_t group_base = 0;
  const PlanOp* op = nullptr;
  for (const auto& top : top_) {
    if (access_index < top.accesses) {
      op = &top;
      break;
    }
    access_index -= top.accesses;
    group_base += top.groups;
  }
  SDLO_EXPECTS(op != nullptr);
  // Descend: a statement or flattened leaf loop is a single group. A loop
  // jumps straight to the containing iteration via the per-iteration
  // access count (positive here, since access_index < op->accesses).
  while (op->extent >= 0 && op->leaf_refs.empty()) {
    const auto extent = static_cast<std::uint64_t>(op->extent);
    const std::uint64_t per_iter_accesses = op->accesses / extent;
    const std::uint64_t per_iter_groups = op->groups / extent;
    const std::uint64_t k = access_index / per_iter_accesses;
    access_index -= k * per_iter_accesses;
    group_base += k * per_iter_groups;
    for (const auto& child : op->body) {
      if (access_index < child.accesses) {
        op = &child;
        break;
      }
      access_index -= child.accesses;
      group_base += child.groups;
    }
  }
  return group_base;
}

CompiledProgram::PlanOp CompiledProgram::lower(
    const ir::Program& prog, ir::NodeId node, const sym::Env& env,
    std::vector<std::pair<std::string, std::int32_t>>& slot_of) {
  if (prog.is_statement(node)) {
    PlanOp op;
    op.extent = -1;
    const auto& stmt = prog.statement(node);
    for (std::size_t a = 0; a < stmt.accesses.size(); ++a) {
      const ir::ArrayRef& ref = stmt.accesses[a];
      PlanRef pr;
      pr.base = array_base(ref.array);
      pr.mode = ref.mode;
      pr.site = site_of(node, static_cast<int>(a));

      // Row-major dim strides; mixed radix within each dim.
      std::vector<std::int64_t> dim_extent;
      for (const auto& subscript : ref.subscripts) {
        std::int64_t e = 1;
        for (const auto& var : subscript.vars) {
          e = checked_mul(e, eval_positive(prog.extent_of(var), env,
                                           "extent"));
        }
        dim_extent.push_back(e);
      }
      std::int64_t dim_stride = 1;
      for (std::size_t d = ref.subscripts.size(); d-- > 0;) {
        std::int64_t within = dim_stride;
        const auto& vars = ref.subscripts[d].vars;
        for (std::size_t k = vars.size(); k-- > 0;) {
          const auto it = std::find_if(
              slot_of.begin(), slot_of.end(),
              [&](const auto& e2) { return e2.first == vars[k]; });
          SDLO_CHECK(it != slot_of.end(),
                     "subscript variable not in scope: " + vars[k]);
          pr.terms.emplace_back(it->second, within);
          within = checked_mul(
              within, eval_positive(prog.extent_of(vars[k]), env, "extent"));
        }
        dim_stride = checked_mul(dim_stride, dim_extent[d]);
      }
      op.refs.push_back(std::move(pr));
    }
    return op;
  }

  // Band: one PlanOp per loop, nested. A variable name re-declared in a
  // sibling band reuses its slot (extent equality is guaranteed by
  // Program::validate, and only enclosed statements ever read the slot).
  const auto& loops = prog.band_loops(node);
  SDLO_EXPECTS(!loops.empty());
  PlanOp outer;
  PlanOp* cur = &outer;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    PlanOp* target = cur;
    if (i != 0) {
      cur->body.emplace_back();
      target = &cur->body.back();
    }
    target->extent = eval_positive(loops[i].extent, env, "loop extent");
    const auto it = std::find_if(
        slot_of.begin(), slot_of.end(),
        [&](const auto& e2) { return e2.first == loops[i].var; });
    if (it != slot_of.end()) {
      target->slot = it->second;
    } else {
      target->slot = num_slots_++;
      slot_of.emplace_back(loops[i].var, target->slot);
    }
    cur = target;
  }
  for (ir::NodeId c : prog.children(node)) {
    cur->body.push_back(lower(prog, c, env, slot_of));
  }
  return outer;
}

void CompiledProgram::flatten_leaves(PlanOp& op) {
  if (op.extent < 0) return;
  for (auto& child : op.body) flatten_leaves(child);

  bool all_statements = !op.body.empty();
  std::size_t total_refs = 0;
  for (const auto& child : op.body) {
    if (child.extent >= 0) {
      all_statements = false;
      break;
    }
    total_refs += child.refs.size();
  }
  if (!all_statements || total_refs == 0 || total_refs > kMaxLeafRefs) {
    return;
  }
  // Innermost loop over pure statements: split each reference's subscript
  // terms into the loop-variable stride and the outer-value remainder.
  for (const auto& child : op.body) {
    for (const auto& ref : child.refs) {
      LeafRef lr;
      lr.base = ref.base;
      lr.mode = ref.mode;
      lr.site = ref.site;
      for (const auto& term : ref.terms) {
        if (term.first == op.slot) {
          lr.inner_stride += term.second;
        } else {
          lr.outer_terms.push_back(term);
        }
      }
      op.leaf_refs.push_back(std::move(lr));
    }
  }
  op.body.clear();
}

std::uint64_t CompiledProgram::array_base(const std::string& array) const {
  const auto* v = find_sorted(base_of_, array);
  SDLO_CHECK(v != nullptr, "unknown array: " + array);
  return *v;
}

std::uint64_t CompiledProgram::array_elements(const std::string& array) const {
  const auto* v = find_sorted(elements_of_, array);
  SDLO_CHECK(v != nullptr, "unknown array: " + array);
  return *v;
}

std::uint64_t CompiledProgram::footprint_lines(std::int64_t line_elems) const {
  SDLO_EXPECTS(line_elems > 0);
  if (next_base_ == 0) return 0;
  return (next_base_ - 1) / static_cast<std::uint64_t>(line_elems) + 1;
}

std::int32_t CompiledProgram::site_of(ir::NodeId stmt, int access) const {
  const auto it = std::lower_bound(
      first_site_of_stmt_.begin(), first_site_of_stmt_.end(), stmt,
      [](const auto& entry, ir::NodeId k) { return entry.first < k; });
  SDLO_CHECK(it != first_site_of_stmt_.end() && it->first == stmt,
             "unknown statement node");
  return it->second + access;
}

}  // namespace sdlo::trace
