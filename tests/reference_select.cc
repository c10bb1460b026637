#include "reference_select.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "sql/executor.h"
#include "sql/explain.h"
#include "sql/parser.h"
#include "sql/table.h"

namespace sqlflow::sql {
namespace {

/// Resolves a column reference against one combined row, with the same
/// ambiguity and not-found errors as the executor.
class Binding : public RowBinding {
 public:
  Binding(const std::vector<ScopeColumnRef>* columns, const Row* row)
      : columns_(columns), row_(row) {}

  Result<Value> Resolve(const std::string& qualifier,
                        const std::string& column) const override {
    int found = -1;
    for (size_t i = 0; i < columns_->size(); ++i) {
      const ScopeColumnRef& c = (*columns_)[i];
      if ((!qualifier.empty() && !EqualsIgnoreCase(c.qualifier, qualifier)) ||
          !EqualsIgnoreCase(c.name, column)) {
        continue;
      }
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column reference '" +
                                       column + "'");
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::NotFound("no column '" +
                              (qualifier.empty() ? "" : qualifier + ".") +
                              column + "' in scope");
    }
    return (*row_)[static_cast<size_t>(found)];
  }

 private:
  const std::vector<ScopeColumnRef>* columns_;
  const Row* row_;
};

/// Group and DISTINCT identity: both NULL, or the same type and equal.
bool SameRow(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() != b[i].is_null()) return false;
    if (!a[i].is_null() &&
        (a[i].type() != b[i].type() || a[i].Compare(b[i]) != 0)) {
      return false;
    }
  }
  return true;
}

void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunctionCall &&
      IsAggregateFunctionName(e.function_name)) {
    out->push_back(&e);
    return;
  }
  for (const ExprPtr& child : e.children) CollectAggregates(*child, out);
}

struct Produced {
  Row row;
  std::vector<Value> keys;
};

Result<ResultSet> Run(Database* db, const SelectStatement& sel,
                      const Params& params) {
  if (sel.union_next != nullptr) {
    return Status::Unsupported("reference: UNION is not supported");
  }
  auto context = [&](const RowBinding* binding) {
    return EvalContext{binding, &params, {}, db};
  };

  // FROM: full scans, nested-loop joins.
  std::vector<ScopeColumnRef> columns;
  std::vector<Row> rows;
  if (sel.from.empty()) rows.push_back(Row{});
  for (size_t i = 0; i < sel.from.size(); ++i) {
    const TableRef& ref = sel.from[i];
    Table* table = ref.derived == nullptr
                       ? db->catalog().FindTable(ref.table_name)
                       : nullptr;
    if (table == nullptr) {
      return Status::Unsupported("reference: FROM takes base tables only");
    }
    const std::string& qual = ref.alias.empty() ? ref.table_name : ref.alias;
    const size_t left_width = columns.size();
    for (const ColumnDef& col : table->schema().columns()) {
      columns.push_back({qual, col.name});
    }
    if (i == 0) {
      rows = table->rows();
      continue;
    }
    std::vector<Row> joined;
    Row pair;
    Binding binding(&columns, &pair);
    for (const Row& left : rows) {
      bool matched = false;
      for (const Row& right : table->rows()) {
        pair = left;
        pair.insert(pair.end(), right.begin(), right.end());
        if (ref.join_condition != nullptr) {
          SQLFLOW_ASSIGN_OR_RETURN(
              Value on, EvaluateExpr(*ref.join_condition, context(&binding)));
          if (!IsTrue(on)) continue;
        }
        matched = true;
        joined.push_back(pair);
      }
      if (!matched && ref.join_type == JoinType::kLeftOuter) {
        joined.push_back(left);
        joined.back().resize(left_width + table->schema().columns().size());
      }
    }
    rows = std::move(joined);
  }

  if (sel.where != nullptr) {
    std::vector<Row> kept;
    for (const Row& row : rows) {
      Binding binding(&columns, &row);
      SQLFLOW_ASSIGN_OR_RETURN(Value v,
                               EvaluateExpr(*sel.where, context(&binding)));
      if (IsTrue(v)) kept.push_back(row);
    }
    rows = std::move(kept);
  }

  // Outputs: an expression, or a scope column (expr == nullptr) from a
  // star. ORDER BY items naming an output by ordinal or unqualified name
  // read that output; others evaluate in scope (-1).
  std::vector<std::pair<const Expr*, size_t>> outputs;
  std::vector<std::string> names;
  bool grouped = !sel.group_by.empty() ||
                 (sel.having != nullptr && ContainsAggregate(*sel.having));
  for (const SelectItem& item : sel.items) {
    if (!item.star) {
      outputs.emplace_back(item.expr.get(), 0);
      names.push_back(!item.alias.empty()
                          ? item.alias
                          : DeriveOutputColumnName(*item.expr, names.size()));
      grouped = grouped || ContainsAggregate(*item.expr);
      continue;
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      if (item.star_qualifier.empty() ||
          EqualsIgnoreCase(columns[c].qualifier, item.star_qualifier)) {
        outputs.emplace_back(nullptr, c);
        names.push_back(columns[c].name);
      }
    }
  }
  std::vector<int> order_output;
  for (const OrderByItem& ob : sel.order_by) {
    const Expr& e = *ob.expr;
    int index = -1;
    if (e.kind == ExprKind::kLiteral &&
        e.literal.type() == ValueType::kInteger) {
      if (e.literal.integer() < 1 ||
          e.literal.integer() > static_cast<int64_t>(names.size())) {
        return Status::InvalidArgument("ORDER BY ordinal out of range");
      }
      index = static_cast<int>(e.literal.integer() - 1);
    } else if (e.kind == ExprKind::kColumnRef && e.table_qualifier.empty()) {
      for (size_t o = 0; o < names.size() && index < 0; ++o) {
        if (EqualsIgnoreCase(names[o], e.column_name)) {
          index = static_cast<int>(o);
        }
      }
    }
    order_output.push_back(index);
  }

  // One output row (and its sort keys) from a row or a group's first
  // row; `row` is null for a group without rows.
  std::vector<Produced> produced;
  auto emit = [&](const EvalContext& ctx, const Row* row) -> Status {
    Produced out;
    for (const auto& [expr, column] : outputs) {
      if (expr != nullptr) {
        SQLFLOW_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*expr, ctx));
        out.row.push_back(std::move(v));
      } else if (row != nullptr) {
        out.row.push_back((*row)[column]);
      } else {
        return Status::ExecutionError(
            "cannot select columns from an empty group");
      }
    }
    for (size_t k = 0; k < sel.order_by.size(); ++k) {
      if (order_output[k] >= 0) {
        out.keys.push_back(out.row[static_cast<size_t>(order_output[k])]);
      } else {
        SQLFLOW_ASSIGN_OR_RETURN(Value v,
                                 EvaluateExpr(*sel.order_by[k].expr, ctx));
        out.keys.push_back(std::move(v));
      }
    }
    produced.push_back(std::move(out));
    return Status::OK();
  };

  if (!grouped) {
    for (const Row& row : rows) {
      Binding binding(&columns, &row);
      SQLFLOW_RETURN_IF_ERROR(emit(context(&binding), &row));
    }
  } else {
    // Groups in first-seen order, found by linear search over the keys.
    std::vector<Row> keys;
    std::vector<std::vector<const Row*>> groups(sel.group_by.empty() ? 1 : 0);
    for (const Row& row : rows) {
      Binding binding(&columns, &row);
      Row key;
      for (const ExprPtr& g : sel.group_by) {
        SQLFLOW_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*g, context(&binding)));
        key.push_back(std::move(v));
      }
      size_t g = 0;
      while (g < keys.size() && !SameRow(keys[g], key)) ++g;
      if (g == groups.size()) {
        keys.push_back(std::move(key));
        groups.emplace_back();
      }
      groups[g].push_back(&row);
    }
    std::vector<const Expr*> aggs;
    for (const auto& [expr, column] : outputs) {
      if (expr != nullptr) CollectAggregates(*expr, &aggs);
    }
    if (sel.having != nullptr) CollectAggregates(*sel.having, &aggs);
    for (const OrderByItem& ob : sel.order_by) {
      CollectAggregates(*ob.expr, &aggs);
    }
    for (const std::vector<const Row*>& group : groups) {
      // Every aggregate over the whole group, in tree order, then HAVING
      // and the outputs.
      std::map<const Expr*, Value> values;
      for (const Expr* agg : aggs) {
        AggState st;
        for (size_t r = 0; r < group.size() && !AggregateTakesNoValues(*agg);
             ++r) {
          Binding binding(&columns, group[r]);
          SQLFLOW_ASSIGN_OR_RETURN(
              Value v, EvaluateExpr(*agg->children[0], context(&binding)));
          FeedValue(&st, AggKindOf(agg->function_name), agg->distinct_arg, v);
          if (st.failed) break;
        }
        SQLFLOW_ASSIGN_OR_RETURN(
            values[agg],
            FinishAggregate(*agg, st, static_cast<int64_t>(group.size())));
      }
      const Row* first = group.empty() ? nullptr : group[0];
      Binding binding(&columns, first);
      EvalContext ctx = context(first != nullptr ? &binding : nullptr);
      ctx.node_override = [&values](const Expr& e) -> std::optional<Value> {
        auto it = values.find(&e);
        if (it == values.end()) return std::nullopt;
        return it->second;
      };
      if (sel.having != nullptr) {
        SQLFLOW_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*sel.having, ctx));
        if (!IsTrue(v)) continue;
      }
      SQLFLOW_RETURN_IF_ERROR(emit(ctx, first));
    }
  }

  // DISTINCT (first occurrence kept), stable ORDER BY, OFFSET, LIMIT.
  std::vector<Produced> unique;
  for (Produced& p : produced) {
    bool seen = false;
    for (const Produced& u : unique) seen = seen || SameRow(u.row, p.row);
    if (!sel.distinct || !seen) unique.push_back(std::move(p));
  }
  produced = std::move(unique);
  std::stable_sort(produced.begin(), produced.end(),
                   [&sel](const Produced& a, const Produced& b) {
                     for (size_t k = 0; k < a.keys.size(); ++k) {
                       int cmp = a.keys[k].Compare(b.keys[k]);
                       if (cmp != 0) {
                         return sel.order_by[k].descending ? cmp > 0 : cmp < 0;
                       }
                     }
                     return false;
                   });
  const size_t n = produced.size();
  const size_t begin = std::min<size_t>(sel.offset.value_or(0), n);
  const size_t end = std::min<size_t>(begin + sel.limit.value_or(n), n);
  ResultSet result(names);
  for (size_t i = begin; i < end; ++i) result.AddRow(produced[i].row);
  return result;
}

}  // namespace

Result<ResultSet> ReferenceSelect(Database* db, std::string_view sql,
                                  const Params& params) {
  SQLFLOW_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                           ParseStatement(sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::Unsupported("reference: only SELECT is supported");
  }
  return Run(db, *stmt->select, params);
}

}  // namespace sqlflow::sql
