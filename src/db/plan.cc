#include "db/plan.h"

#include <sstream>

namespace dl2sql::db {

const char* PlanKindToString(PlanKind k) {
  switch (k) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "?";
}

std::string PlanNode::ToString(int indent) const {
  std::ostringstream oss;
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  oss << pad << PlanKindToString(kind);
  switch (kind) {
    case PlanKind::kScan:
      oss << " " << table_name;
      if (!qualifier.empty() && qualifier != table_name) {
        oss << " AS " << qualifier;
      }
      if (!scan_columns.empty()) {
        oss << " [columns: ";
        for (int i = 0; i < output_schema.num_fields(); ++i) {
          const std::string& name = output_schema.field(i).name;
          if (i > 0) oss << ", ";
          oss << name.substr(name.rfind('.') + 1);
        }
        oss << "]";
      }
      break;
    case PlanKind::kFilter:
      oss << " " << predicate->ToString();
      break;
    case PlanKind::kProject: {
      oss << " [";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << exprs[i]->ToString();
        if (i < names.size() && !names[i].empty()) oss << " AS " << names[i];
      }
      oss << "]";
      break;
    }
    case PlanKind::kJoin:
      oss << (join_is_inner ? " INNER" : " CROSS");
      if (join_condition != nullptr) {
        oss << " ON " << join_condition->ToString();
      }
      if (!equi_keys.empty()) {
        oss << " [hash keys: ";
        for (size_t i = 0; i < equi_keys.size(); ++i) {
          if (i > 0) oss << ", ";
          oss << equi_keys[i].first->ToString() << "="
              << equi_keys[i].second->ToString();
        }
        oss << "]";
      }
      if (use_symmetric_hash) oss << " [symmetric]";
      break;
    case PlanKind::kAggregate: {
      oss << " keys=[";
      for (size_t i = 0; i < group_keys.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << group_keys[i]->ToString();
      }
      oss << "] aggs=[";
      for (size_t i = 0; i < agg_calls.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << agg_calls[i]->ToString();
      }
      oss << "]";
      break;
    }
    case PlanKind::kSort: {
      oss << " [";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << sort_keys[i]->ToString() << (sort_ascending[i] ? "" : " DESC");
      }
      oss << "]";
      break;
    }
    case PlanKind::kLimit:
      oss << " " << limit;
      break;
  }
  if (est_rows >= 0) oss << " (est_rows=" << est_rows << ")";
  oss << "\n";
  for (const auto& c : children) oss << c->ToString(indent + 1);
  return oss.str();
}

PlanPtr MakeScan(std::string table_name, std::string qualifier,
                 TableSchema schema) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kScan;
  n->table_name = std::move(table_name);
  n->qualifier = std::move(qualifier);
  n->output_schema = std::move(schema);
  return n;
}

PlanPtr MakeFilter(PlanPtr child, ExprPtr predicate) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kFilter;
  n->output_schema = child->output_schema;
  n->children = {std::move(child)};
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<std::string> names, TableSchema schema) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kProject;
  n->output_schema = std::move(schema);
  n->children = {std::move(child)};
  n->exprs = std::move(exprs);
  n->names = std::move(names);
  return n;
}

PlanPtr MakeJoin(PlanPtr left, PlanPtr right, bool inner, ExprPtr condition) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kJoin;
  TableSchema schema;
  for (const auto& f : left->output_schema.fields()) schema.AddField(f);
  for (const auto& f : right->output_schema.fields()) schema.AddField(f);
  n->output_schema = std::move(schema);
  n->children = {std::move(left), std::move(right)};
  n->join_is_inner = inner;
  n->join_condition = std::move(condition);
  return n;
}

PlanPtr MakeLimit(PlanPtr child, int64_t limit) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kLimit;
  n->output_schema = child->output_schema;
  n->children = {std::move(child)};
  n->limit = limit;
  return n;
}

}  // namespace dl2sql::db
