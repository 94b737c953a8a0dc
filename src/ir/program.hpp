// Loop-nest intermediate representation.
//
// A Program is the tree of Fig. 3/Fig. 7 of the paper: interior nodes are
// *bands* (one or more perfectly-nested loops), leaves are *statements*; the
// children of a band execute in sequence inside each iteration of the band's
// loops. This represents exactly the class of imperfectly nested loops the
// TCE fusion step emits (§2): rectangular loops with symbolic extents, array
// subscripts that are loop indices or tiled index pairs (iT*Ti + iI).
//
// Conventions:
//  * Loops are normalized to iterate var = 0 .. extent-1 (the paper writes
//    1..N; only extents matter to the model).
//  * A subscript is an ordered list of loop variables composed in mixed
//    radix: subscript {a, b} with extent(b) = Eb denotes value a*Eb + b.
//    Untiled subscripts are singleton lists.
//  * Loop variable names are unique along any root-to-leaf path, but the
//    SAME name may (and for reuse analysis, should) recur in sibling
//    subtrees: two references to array T with subscript variable "iI" denote
//    the same element exactly when their "iI" values agree, which is how
//    TCE tile buffers (T[iI,nI] written in one inner nest, read in the next)
//    are expressed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "symbolic/expr.hpp"

namespace sdlo::ir {

using sym::Expr;

/// One loop of a band: `for var in [0, extent)`.
struct Loop {
  std::string var;
  Expr extent;
};

/// A (possibly tiled) array subscript: mixed-radix composition of loop
/// variables, outermost digit first. {"iT","iI"} denotes iT*extent(iI)+iI.
struct Subscript {
  std::vector<std::string> vars;

  bool operator==(const Subscript& o) const { return vars == o.vars; }
};

/// Whether an access reads or writes the element (both occupy one trace
/// slot; the model treats them uniformly, as does a cache).
enum class AccessMode : std::uint8_t { kRead, kWrite };

/// A single array access site within a statement.
struct ArrayRef {
  std::string array;
  std::vector<Subscript> subscripts;
  AccessMode mode = AccessMode::kRead;

  /// Number of array dimensions.
  std::size_t rank() const { return subscripts.size(); }
};

/// A statement: an ordered list of array accesses (reads first, then the
/// write, in trace order). The computation performed is irrelevant to the
/// cache model; kernels implement the arithmetic separately.
struct Statement {
  std::string label;
  std::vector<ArrayRef> accesses;
};

/// Identifier of a node in the Program tree. The root band is node 0.
using NodeId = std::int32_t;

/// A loop on the path from the root to some statement.
struct PathLoop {
  std::string var;
  Expr extent;
  NodeId band = 0;   ///< band node declaring this loop
  int index_in_band = 0;
};

/// Location of one access site: (statement node, access index within it).
struct AccessSite {
  NodeId stmt = 0;
  int access = 0;

  bool operator==(const AccessSite& o) const {
    return stmt == o.stmt && access == o.access;
  }
  bool operator<(const AccessSite& o) const {
    return stmt != o.stmt ? stmt < o.stmt : access < o.access;
  }
};

/// The constrained-class rules, numbered as the lint diagnostics
/// WF001–WF006 that report them (DESIGN.md §10).
enum class ClassRule : std::uint8_t {
  kUnboundSubscriptVar = 1,     ///< subscript variable not an enclosing loop
  kDuplicateVarOnPath,          ///< loop variable repeated along one path
  kExtentConflict,              ///< loop variable re-declared, other extent
  kSubscriptStructureConflict,  ///< array referenced with two structures
  kVarTwiceInReference,         ///< variable used twice in one reference
  kEmptyStructure,              ///< no statement, childless band, empty
                                ///< subscript or non-identifier array name
};

/// One violation of a constrained-class rule.
struct ClassViolation {
  ClassRule rule = ClassRule::kEmptyStructure;
  NodeId node = -1;    ///< offending band or statement; -1: whole program
  int access = -1;     ///< access index within statement `node`, or -1
  std::string object;  ///< the loop variable or array at fault, or ""
  std::string message;
};

/// The imperfectly nested loop tree. Build with add_band/add_statement, then
/// call validate() once; analysis queries require a validated program.
class Program {
 public:
  static constexpr NodeId kRoot = 0;

  Program();

  /// Appends a band under `parent` (must not be a statement). Bands with an
  /// empty loop list are permitted only at the root.
  NodeId add_band(NodeId parent, std::vector<Loop> loops);

  /// Appends a statement leaf under `parent`.
  NodeId add_statement(NodeId parent, Statement stmt);

  // ----- structure queries ------------------------------------------------

  bool is_statement(NodeId n) const;
  const Statement& statement(NodeId n) const;
  const std::vector<Loop>& band_loops(NodeId n) const;
  NodeId parent(NodeId n) const;
  const std::vector<NodeId>& children(NodeId n) const;
  /// Index of `n` among its siblings (the paper's SeqNo).
  int seq_no(NodeId n) const;
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Loops enclosing node `n`, outermost first (includes n's own loops when
  /// n is a band).
  std::vector<PathLoop> path_loops(NodeId n) const;

  /// All statement leaves in program (execution) order.
  const std::vector<NodeId>& statements_in_order() const;

  // ----- validated-class queries ------------------------------------------

  /// The one check of the constrained-class rules: collects every
  /// violation, in program (pre-)order; when there is none, freezes the
  /// derived tables and the program is validated. Must be called before
  /// the queries below, and after the last mutation.
  std::vector<ClassViolation> try_validate();
  /// try_validate(), throwing UnsupportedProgram with the first
  /// violation's message.
  void validate();
  bool validated() const { return validated_; }

  /// Extent of a loop variable (consistent across the whole tree).
  const Expr& extent_of(const std::string& var) const;
  /// All loop variable names, in first-appearance order.
  const std::vector<std::string>& variables() const;

  /// All array names, in first-appearance order.
  const std::vector<std::string>& arrays() const;
  /// Common subscript structure of all references to `array`.
  const std::vector<Subscript>& array_shape(const std::string& array) const;
  /// Every access site touching `array`, in program order.
  const std::vector<AccessSite>& refs_to(const std::string& array) const;
  /// Number of elements of `array` (product of mixed-radix dim extents).
  Expr array_size(const std::string& array) const;
  /// Distinct loop variables appearing in `array`'s subscripts.
  const std::vector<std::string>& array_vars(const std::string& array) const;

  /// Symbolic number of dynamic instances of statement `n`.
  Expr instances_of(NodeId n) const;

  /// Symbolic total number of accesses executed by the whole program.
  Expr total_accesses() const;

 private:
  struct Node {
    std::vector<Loop> loops;
    std::optional<Statement> stmt;
    NodeId parent = -1;
    int seq_no = 0;
    std::vector<NodeId> children;
  };

  const Node& node(NodeId n) const;
  Node& node(NodeId n);
  void check_node(NodeId n, std::vector<std::string>& path,
                  std::vector<ClassViolation>& out);
  void check_statement(NodeId n, const std::vector<std::string>& path,
                       std::vector<ClassViolation>& out);
  void clear_derived();

  std::vector<Node> nodes_;
  bool validated_ = false;

  // Derived (filled by validate()).
  std::vector<NodeId> stmt_order_;
  std::map<std::string, Expr> var_extent_;
  std::vector<std::string> var_order_;
  std::vector<std::string> array_order_;
  std::map<std::string, std::vector<Subscript>> array_shape_;
  std::map<std::string, std::vector<AccessSite>> array_refs_;
  std::map<std::string, std::vector<std::string>> array_vars_;
};

/// Structural equality of two program trees: identical shapes, loop
/// variables and extents (by Expr::equals), statement labels, and access
/// lists (array, subscripts, mode, order). Independent of validation state.
/// This is the identity the parser↔printer round-trip guarantee is stated
/// in: parse_program(to_code_string(p)) is structurally equal to p.
bool structurally_equal(const Program& a, const Program& b);

/// Order-sensitive hash over exactly the structure structurally_equal
/// compares: node kinds, loop variables and extents (via the canonical
/// sym::to_string rendering, so Expr::equals-equal extents hash alike),
/// statement labels, and access lists. Guarantee: structurally_equal(a, b)
/// implies structural_hash(a) == structural_hash(b). Collisions are
/// possible but unlikely (64-bit splitmix-style mixing); use the hash as a
/// fast filter in front of structurally_equal, never as a replacement.
/// Independent of validation state.
std::uint64_t structural_hash(const Program& p);

}  // namespace sdlo::ir
