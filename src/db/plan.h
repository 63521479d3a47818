/// \file plan.h
/// \brief Logical/physical plan tree. The optimizer rewrites this tree and the
/// executor interprets it directly (operator-at-a-time materialization).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "db/expr.h"
#include "db/sql/ast.h"
#include "db/table.h"

namespace dl2sql::db {

enum class PlanKind : uint8_t {
  kScan,       ///< base-table scan of all or some of the table's columns
  kFilter,
  kProject,
  kJoin,       ///< inner or cross join
  kAggregate,  ///< hash aggregation
  kSort,
  kLimit,
};

const char* PlanKindToString(PlanKind k);

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// \brief One operator in the plan tree.
///
/// A single struct with a kind tag (matching Expr's design): each kind uses a
/// subset of the fields. `output_schema` is always set by the planner; field
/// names are qualified with the originating relation alias where applicable.
struct PlanNode {
  PlanKind kind;
  TableSchema output_schema;
  std::vector<PlanPtr> children;

  // ---- kScan ----
  std::string table_name;  ///< catalog name
  std::string qualifier;   ///< alias used to qualify output columns
  /// The table columns the scan outputs, ascending (output_schema holds one
  /// field per entry); empty means every column. Set by the optimizer's
  /// column pruning to the columns the plan above reads.
  std::vector<int> scan_columns;

  // ---- kFilter ----
  ExprPtr predicate;

  // ---- kProject ----
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // ---- kJoin ----
  bool join_is_inner = false;   ///< false = cross product
  ExprPtr join_condition;       ///< full residual condition (may be null)
  /// Extracted equi-join key pairs (left expr over left child schema, right
  /// expr over right child schema); empty means no hashable keys.
  std::vector<std::pair<ExprPtr, ExprPtr>> equi_keys;
  /// Hint rule 3: use the symmetric hash join operator (nUDF join condition).
  bool use_symmetric_hash = false;
  /// Build the hash table on the left child instead of the right (chosen by
  /// the optimizer from estimated child cardinalities).
  bool join_build_left = false;

  // ---- kAggregate ----
  std::vector<ExprPtr> group_keys;
  std::vector<std::string> group_names;
  std::vector<ExprPtr> agg_calls;   ///< each an ExprKind::kAggCall
  std::vector<std::string> agg_names;

  // ---- kSort ----
  std::vector<ExprPtr> sort_keys;
  std::vector<bool> sort_ascending;

  // ---- kLimit ----
  int64_t limit = -1;

  // ---- optimizer annotations ----
  double est_rows = -1.0;
  double est_cost = -1.0;  ///< cumulative cost units (I/O+CPU abstract units)

  /// Indented tree rendering (EXPLAIN output).
  std::string ToString(int indent = 0) const;
};

/// \name Construction helpers
/// @{
PlanPtr MakeScan(std::string table_name, std::string qualifier,
                 TableSchema schema);
PlanPtr MakeFilter(PlanPtr child, ExprPtr predicate);
PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<std::string> names, TableSchema schema);
PlanPtr MakeJoin(PlanPtr left, PlanPtr right, bool inner, ExprPtr condition);
PlanPtr MakeLimit(PlanPtr child, int64_t limit);
/// @}

}  // namespace dl2sql::db
