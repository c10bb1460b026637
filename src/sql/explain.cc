#include "sql/explain.h"

#include <utility>

#include "common/string_util.h"
#include "obs/trace.h"
#include "sql/database.h"
#include "sql/planner.h"
#include "sql/profile.h"
#include "sql/table.h"

namespace sqlflow::sql {

// ---------------------------------------------------------------------------
// Shared plan-decision helpers
// ---------------------------------------------------------------------------

std::string DeriveOutputColumnName(const Expr& e, size_t ordinal) {
  if (e.kind == ExprKind::kColumnRef) return e.column_name;
  if (e.kind == ExprKind::kFunctionCall) return e.function_name;
  return "col" + std::to_string(ordinal + 1);
}

int FindScopeColumnIndex(const std::vector<ScopeColumnRef>& cols,
                         const Expr& e) {
  if (e.kind != ExprKind::kColumnRef) return -1;
  int found = -1;
  for (size_t i = 0; i < cols.size(); ++i) {
    const ScopeColumnRef& sc = cols[i];
    if (!e.table_qualifier.empty() &&
        !EqualsIgnoreCase(sc.qualifier, e.table_qualifier)) {
      continue;
    }
    if (!EqualsIgnoreCase(sc.name, e.column_name)) continue;
    if (found >= 0) return -1;
    found = static_cast<int>(i);
  }
  return found;
}

std::vector<std::pair<size_t, size_t>> ExtractEquiJoinKeys(
    const Expr& join_condition, const std::vector<ScopeColumnRef>& columns,
    size_t left_width) {
  std::vector<std::pair<size_t, size_t>> key_pairs;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(join_condition, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->binary_op != BinaryOp::kEq) {
      continue;
    }
    int a = FindScopeColumnIndex(columns, *c->children[0]);
    int b = FindScopeColumnIndex(columns, *c->children[1]);
    if (a < 0 || b < 0) continue;
    size_t ua = static_cast<size_t>(a);
    size_t ub = static_cast<size_t>(b);
    if (ua < left_width && ub >= left_width) {
      key_pairs.emplace_back(ua, ub - left_width);
    } else if (ub < left_width && ua >= left_width) {
      key_pairs.emplace_back(ub, ua - left_width);
    }
  }
  return key_pairs;
}

bool PushdownAllowed(const SelectStatement& sel, size_t ref_index) {
  const TableRef& ref = sel.from[ref_index];
  // Filtering the right side of a LEFT OUTER join is unsound: a left row
  // whose only matches are filtered away becomes NULL-padded, and a
  // pushed conjunct like `r.x IS NULL` would then accept rows the
  // unpushed plan rejects.
  if (ref_index > 0 && ref.join_type == JoinType::kLeftOuter) return false;
  const std::string& qual = ref.alias.empty() ? ref.table_name : ref.alias;
  size_t alias_count = 0;
  for (const TableRef& other : sel.from) {
    const std::string& other_qual =
        other.alias.empty() ? other.table_name : other.alias;
    if (EqualsIgnoreCase(other_qual, qual)) ++alias_count;
  }
  return alias_count == 1;
}

std::vector<const Expr*> CollectPushableConjuncts(
    const TableSchema& schema, const std::string& qual,
    const SelectStatement& sel) {
  std::vector<const Expr*> pushable;
  if (sel.where == nullptr) return pushable;

  auto qualified_col = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kColumnRef) return -1;
    if (e.table_qualifier.empty() ||
        !EqualsIgnoreCase(e.table_qualifier, qual)) {
      return -1;
    }
    return schema.FindColumn(e.column_name);
  };

  // Conjuncts that (a) mention only this table's columns, all explicitly
  // qualified, and (b) cannot raise a TypeError the un-pushed WHERE
  // would have short-circuited past — never-erroring forms (IS [NOT]
  // NULL, BETWEEN, IN over probes, LIKE) plus class-gated comparisons.
  // Parameters re-gate at evaluation time.
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(*sel.where, &conjuncts);
  for (const Expr* c : conjuncts) {
    switch (c->kind) {
      case ExprKind::kUnary:
        if ((c->unary_op == UnaryOp::kIsNull ||
             c->unary_op == UnaryOp::kIsNotNull) &&
            qualified_col(*c->children[0]) >= 0) {
          pushable.push_back(c);
        }
        break;
      case ExprKind::kBetween:
        if (qualified_col(*c->children[0]) >= 0 &&
            IsProbeExpr(*c->children[1]) && IsProbeExpr(*c->children[2])) {
          pushable.push_back(c);
        }
        break;
      case ExprKind::kInList: {
        if (qualified_col(*c->children[0]) < 0) break;
        bool all_probes = true;
        for (size_t i = 1; i < c->children.size(); ++i) {
          if (!IsProbeExpr(*c->children[i])) {
            all_probes = false;
            break;
          }
        }
        if (all_probes) pushable.push_back(c);
        break;
      }
      case ExprKind::kBinary: {
        BinaryOp op = c->binary_op;
        if (op == BinaryOp::kLike) {
          if (qualified_col(*c->children[0]) >= 0 &&
              IsProbeExpr(*c->children[1])) {
            pushable.push_back(c);
          }
          break;
        }
        if (op != BinaryOp::kEq && op != BinaryOp::kNotEq &&
            op != BinaryOp::kLt && op != BinaryOp::kLtEq &&
            op != BinaryOp::kGt && op != BinaryOp::kGtEq) {
          break;
        }
        int col = qualified_col(*c->children[0]);
        const Expr* probe = c->children[1].get();
        if (col < 0) {
          col = qualified_col(*c->children[1]);
          probe = c->children[0].get();
        }
        if (col < 0 || !IsProbeExpr(*probe)) break;
        ValueType type = schema.columns()[static_cast<size_t>(col)].type;
        if (type == ValueType::kNull) break;  // untyped: anything stored
        if (!ProbeExprCompatible(type, *probe)) break;
        pushable.push_back(c);
        break;
      }
      default:
        break;
    }
  }
  return pushable;
}

ExprPtr CombineConjuncts(const std::vector<const Expr*>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr combined = CloneExpr(*conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    combined = MakeBinary(BinaryOp::kAnd, std::move(combined),
                          CloneExpr(*conjuncts[i]));
  }
  return combined;
}

// ---------------------------------------------------------------------------
// Static plan rendering
// ---------------------------------------------------------------------------

namespace {

constexpr int kMaxRenderDepth = 16;

/// Every SELECT core runs the columnar pipeline (vec_exec.cc).
constexpr const char* kSelectHeader = "SELECT (batch)";

/// Appends one plan line at `depth` (two-space indent per level).
void AddLine(std::vector<std::string>* lines, int depth, std::string text) {
  lines->push_back(std::string(static_cast<size_t>(depth) * 2, ' ') +
                   std::move(text));
}

/// Best-effort static output columns of a SELECT (for join-key
/// extraction through views and derived tables). False when a star
/// cannot be expanded without executing (unknown inner scope).
bool StaticSelectColumns(Database* db, const SelectStatement& sel,
                         int depth, std::vector<std::string>* out) {
  if (depth > kMaxRenderDepth) return false;
  std::vector<ScopeColumnRef> scope;
  for (const TableRef& ref : sel.from) {
    const std::string& qual =
        ref.alias.empty() ? ref.table_name : ref.alias;
    if (ref.derived != nullptr) {
      std::vector<std::string> names;
      if (!StaticSelectColumns(db, *ref.derived, depth + 1, &names)) {
        return false;
      }
      for (std::string& n : names) scope.push_back({qual, std::move(n)});
    } else if (const Table* table =
                   db->catalog().FindTable(ref.table_name)) {
      for (const ColumnDef& col : table->schema().columns()) {
        scope.push_back({qual, col.name});
      }
    } else if (const SelectStatement* view =
                   db->catalog().FindView(ref.table_name)) {
      std::vector<std::string> names;
      if (!StaticSelectColumns(db, *view, depth + 1, &names)) return false;
      for (std::string& n : names) scope.push_back({qual, std::move(n)});
    } else {
      return false;
    }
  }
  for (const SelectItem& item : sel.items) {
    if (item.star) {
      for (const ScopeColumnRef& sc : scope) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(sc.qualifier, item.star_qualifier)) {
          continue;
        }
        out->push_back(sc.name);
      }
      continue;
    }
    out->push_back(!item.alias.empty()
                       ? item.alias
                       : DeriveOutputColumnName(*item.expr, out->size()));
  }
  return true;
}

std::string ColumnName(const TableSchema& schema, size_t ordinal) {
  return ordinal < schema.column_count() ? schema.columns()[ordinal].name
                                         : "?";
}

std::string DescribeIndexLookup(const TableSchema& schema,
                                const IndexLookupPlan& plan) {
  std::string desc = plan.table_name + " via " + plan.index_name + " (";
  if (plan.in_list != nullptr) {
    desc += ColumnName(schema, plan.key_columns.empty()
                                   ? 0
                                   : plan.key_columns[0]);
    desc += " IN ...";
  } else {
    for (size_t i = 0; i < plan.key_columns.size(); ++i) {
      if (i > 0) desc += ", ";
      desc += ColumnName(schema, plan.key_columns[i]);
      desc += " = ";
      desc += i < plan.key_values.size() ? plan.key_values[i]->ToString()
                                         : "?";
    }
  }
  desc += ")";
  return desc;
}

std::string DescribeRangeScan(const TableSchema& schema,
                              const RangeScanPlan& plan) {
  const std::string col = ColumnName(schema, plan.column);
  std::string desc = plan.table_name + " via " + plan.index_name + " (";
  bool first = true;
  for (size_t i = 0; i < plan.prefix_values.size(); ++i) {
    if (!first) desc += ", ";
    desc += ColumnName(schema, plan.key_columns[i]) + " = " +
            plan.prefix_values[i]->ToString();
    first = false;
  }
  if (plan.like_pattern != nullptr) {
    if (!first) desc += ", ";
    desc += col + " LIKE " + plan.like_pattern->ToString();
    first = false;
  } else {
    std::string bounds;
    if (plan.lower.probe != nullptr) {
      bounds += col + (plan.lower.inclusive ? " >= " : " > ") +
                plan.lower.probe->ToString();
    }
    if (plan.upper.probe != nullptr) {
      if (!bounds.empty()) bounds += " AND ";
      bounds += col + (plan.upper.inclusive ? " <= " : " < ") +
                plan.upper.probe->ToString();
    }
    if (!bounds.empty()) {
      if (!first) desc += ", ";
      desc += bounds;
      first = false;
    }
  }
  if (first) desc += col + " unbounded";
  desc += ")";
  return desc;
}

/// Statically mirrors Executor::ResolveCandidates for one base table:
/// which access path the optimizer would choose for `where`, and whether
/// an ordered traversal lets the caller skip its sort. The runtime may
/// still fall back to a scan (probe/param type mismatch at execution).
void RenderAccessPath(Database* db, Table* table, const std::string& qual,
                      const Expr* where,
                      const std::vector<size_t>* desired_order,
                      bool desired_desc, int depth, bool* sort_elided,
                      std::vector<std::string>* lines) {
  const TableSchema& schema = table->schema();
  if (!db->optimizer_enabled()) {
    AddLine(lines, depth, "SCAN " + schema.table_name());
    return;
  }
  StatementPlan local;
  if (where != nullptr) {
    ChooseAccessPath(*table, qual, where, &local);
  }
  if (local.has_access) {
    AddLine(lines, depth,
            "INDEX LOOKUP " + DescribeIndexLookup(schema, local.access));
    return;
  }
  if (local.has_range) {
    bool elide = desired_order != nullptr &&
                 *desired_order == local.range.key_columns;
    AddLine(lines, depth,
            "RANGE SCAN " + DescribeRangeScan(schema, local.range) +
                (elide && desired_desc ? " (reverse)" : ""));
    if (sort_elided != nullptr && elide) *sort_elided = true;
    return;
  }
  if (desired_order != nullptr && !desired_order->empty()) {
    for (const SecondaryIndex& index : table->secondary_indexes()) {
      if (index.column_indexes != *desired_order) continue;
      AddLine(lines, depth,
              "RANGE SCAN " + schema.table_name() + " via " + index.name +
                  (desired_desc ? " (full traversal, reverse)"
                                : " (full traversal)"));
      if (sort_elided != nullptr) *sort_elided = true;
      return;
    }
  }
  AddLine(lines, depth, "SCAN " + schema.table_name());
}

void RenderSelect(Database* db, const SelectStatement& sel, int depth,
                  std::vector<std::string>* lines);

/// Renders one FROM reference's input operator(s) at `depth`. Returns
/// the reference's static output column names when derivable (for
/// join-key extraction); clears `cols_ok` otherwise.
void RenderFromRef(Database* db, const SelectStatement& sel,
                   size_t ref_index, int depth, bool* sort_elided,
                   std::vector<ScopeColumnRef>* cols, bool* cols_ok,
                   std::vector<std::string>* lines) {
  const TableRef& ref = sel.from[ref_index];
  const std::string& qual = ref.alias.empty() ? ref.table_name : ref.alias;
  if (ref.derived != nullptr) {
    AddLine(lines, depth, "DERIVED " + qual);
    RenderSelect(db, *ref.derived, depth + 1, lines);
    std::vector<std::string> names;
    if (StaticSelectColumns(db, *ref.derived, 0, &names)) {
      for (std::string& n : names) cols->push_back({qual, std::move(n)});
    } else {
      *cols_ok = false;
    }
    return;
  }
  if (Table* table = db->catalog().FindTable(ref.table_name)) {
    for (const ColumnDef& col : table->schema().columns()) {
      cols->push_back({qual, col.name});
    }
    if (db->NeedsSnapshotRead(*table)) {
      // Mirrors the executor's gate: live version state forces a
      // snapshot-filtered scan, disengaging index/pushdown paths.
      // Never fires in single-connection mode, so goldens are stable.
      AddLine(lines, depth,
              "SNAPSHOT SCAN " + table->schema().table_name());
      return;
    }
    const bool single = sel.from.size() == 1;
    if (single) {
      std::vector<size_t> order_cols;
      bool order_desc = false;
      bool have_order = OrderBySargColumns(sel, qual, table->schema(),
                                           &order_cols, &order_desc);
      RenderAccessPath(db, table, qual, sel.where.get(),
                       have_order ? &order_cols : nullptr, order_desc,
                       depth, sort_elided, lines);
      return;
    }
    // Joined base table: mirror TryPushdown's static decision.
    std::vector<const Expr*> pushable;
    if (db->optimizer_enabled() && PushdownAllowed(sel, ref_index)) {
      pushable = CollectPushableConjuncts(table->schema(), qual, sel);
    }
    if (!pushable.empty()) {
      ExprPtr pushed = CombineConjuncts(pushable);
      AddLine(lines, depth,
              "PUSHDOWN " + table->schema().table_name() + " (" +
                  pushed->ToString() + ")");
      RenderAccessPath(db, table, qual, pushed.get(), nullptr, false,
                       depth + 1, nullptr, lines);
      return;
    }
    AddLine(lines, depth, "SCAN " + table->schema().table_name());
    return;
  }
  if (const SelectStatement* view =
          db->catalog().FindView(ref.table_name)) {
    AddLine(lines, depth, "VIEW " + ref.table_name);
    if (depth < kMaxRenderDepth) RenderSelect(db, *view, depth + 1, lines);
    std::vector<std::string> names;
    if (StaticSelectColumns(db, *view, 0, &names)) {
      for (std::string& n : names) cols->push_back({qual, std::move(n)});
    } else {
      *cols_ok = false;
    }
    return;
  }
  AddLine(lines, depth, "UNKNOWN TABLE " + ref.table_name);
  *cols_ok = false;
}

void RenderSelect(Database* db, const SelectStatement& sel, int depth,
                  std::vector<std::string>* lines) {
  bool sort_elided = false;
  std::vector<ScopeColumnRef> scope_cols;
  bool cols_ok = true;
  for (size_t ref_index = 0; ref_index < sel.from.size(); ++ref_index) {
    const TableRef& ref = sel.from[ref_index];
    if (ref_index == 0) {
      RenderFromRef(db, sel, ref_index, depth, &sort_elided, &scope_cols,
                    &cols_ok, lines);
      continue;
    }
    const size_t left_width = scope_cols.size();
    std::vector<ScopeColumnRef> right_cols;
    bool right_ok = true;
    std::vector<std::string> input_lines;
    RenderFromRef(db, sel, ref_index, depth + 1, nullptr, &right_cols,
                  &right_ok, &input_lines);

    std::vector<ScopeColumnRef> combined = scope_cols;
    combined.insert(combined.end(), right_cols.begin(), right_cols.end());
    std::vector<std::pair<size_t, size_t>> key_pairs;
    bool hash_join = db->optimizer_enabled() &&
                     ref.join_condition != nullptr &&
                     (ref.join_type == JoinType::kInner ||
                      ref.join_type == JoinType::kLeftOuter) &&
                     cols_ok && right_ok;
    if (hash_join) {
      key_pairs =
          ExtractEquiJoinKeys(*ref.join_condition, combined, left_width);
      hash_join = !key_pairs.empty();
    }
    std::string join_line;
    if (hash_join) {
      join_line = "HASH JOIN";
      if (ref.join_type == JoinType::kLeftOuter) join_line += " LEFT OUTER";
      join_line += " (";
      for (size_t i = 0; i < key_pairs.size(); ++i) {
        if (i > 0) join_line += ", ";
        const ScopeColumnRef& l = combined[key_pairs[i].first];
        const ScopeColumnRef& r =
            combined[left_width + key_pairs[i].second];
        join_line += l.qualifier + "." + l.name + " = " + r.qualifier +
                     "." + r.name;
      }
      join_line += ")";
    } else {
      join_line = "NESTED LOOP";
      if (ref.join_type == JoinType::kLeftOuter) join_line += " LEFT OUTER";
      join_line += ref.join_condition != nullptr
                       ? " (" + ref.join_condition->ToString() + ")"
                       : " (cross)";
    }
    AddLine(lines, depth, std::move(join_line));
    for (std::string& l : input_lines) lines->push_back(std::move(l));
    scope_cols = std::move(combined);
    cols_ok = cols_ok && right_ok;
  }

  if (sel.where != nullptr) {
    AddLine(lines, depth, "FILTER (" + sel.where->ToString() + ")");
  }

  bool has_aggregates = false;
  for (const SelectItem& item : sel.items) {
    if (!item.star && ContainsAggregate(*item.expr)) has_aggregates = true;
  }
  if (sel.having != nullptr && ContainsAggregate(*sel.having)) {
    has_aggregates = true;
  }
  if (!sel.group_by.empty() || has_aggregates) {
    if (sel.group_by.empty()) {
      AddLine(lines, depth, "AGGREGATE (implicit group)");
    } else {
      std::string keys;
      for (size_t i = 0; i < sel.group_by.size(); ++i) {
        if (i > 0) keys += ", ";
        keys += sel.group_by[i]->ToString();
      }
      AddLine(lines, depth, "AGGREGATE (GROUP BY " + keys + ")");
    }
    if (sel.having != nullptr) {
      AddLine(lines, depth, "HAVING (" + sel.having->ToString() + ")");
    }
  }

  if (sel.distinct) AddLine(lines, depth, "DISTINCT");

  if (!sel.order_by.empty()) {
    if (sort_elided) {
      AddLine(lines, depth, "SORT elided (index order)");
    } else {
      std::string keys;
      for (size_t i = 0; i < sel.order_by.size(); ++i) {
        if (i > 0) keys += ", ";
        keys += sel.order_by[i].expr->ToString();
        if (sel.order_by[i].descending) keys += " DESC";
      }
      AddLine(lines, depth, "SORT (" + keys + ")");
    }
  }

  if (sel.offset.has_value()) {
    AddLine(lines, depth, "OFFSET " + std::to_string(*sel.offset));
  }
  if (sel.limit.has_value()) {
    AddLine(lines, depth, "LIMIT " + std::to_string(*sel.limit));
  }

  if (sel.union_next != nullptr) {
    AddLine(lines, depth > 0 ? depth - 1 : 0,
            sel.union_all ? "UNION ALL" : "UNION");
    RenderSelect(db, *sel.union_next, depth, lines);
  }
}

void RenderStatement(Database* db, const Statement& stmt, int depth,
                     std::vector<std::string>* lines) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      AddLine(lines, depth, kSelectHeader);
      RenderSelect(db, *stmt.select, depth + 1, lines);
      return;
    case StatementKind::kInsert: {
      const InsertStatement& ins = *stmt.insert;
      AddLine(lines, depth, "INSERT INTO " + ins.table_name);
      if (ins.select != nullptr) {
        AddLine(lines, depth + 1, kSelectHeader);
        RenderSelect(db, *ins.select, depth + 2, lines);
      } else {
        AddLine(lines, depth + 1,
                "VALUES (" + std::to_string(ins.rows.size()) + " row" +
                    (ins.rows.size() == 1 ? "" : "s") + ")");
      }
      return;
    }
    case StatementKind::kUpdate: {
      const UpdateStatement& upd = *stmt.update;
      AddLine(lines, depth, "UPDATE " + upd.table_name);
      if (Table* table = db->catalog().FindTable(upd.table_name)) {
        RenderAccessPath(db, table, upd.table_name, upd.where.get(),
                         nullptr, false, depth + 1, nullptr, lines);
      }
      if (upd.where != nullptr) {
        AddLine(lines, depth + 1,
                "FILTER (" + upd.where->ToString() + ")");
      }
      return;
    }
    case StatementKind::kDelete: {
      const DeleteStatement& del = *stmt.del;
      AddLine(lines, depth, "DELETE FROM " + del.table_name);
      if (Table* table = db->catalog().FindTable(del.table_name)) {
        RenderAccessPath(db, table, del.table_name, del.where.get(),
                         nullptr, false, depth + 1, nullptr, lines);
      }
      if (del.where != nullptr) {
        AddLine(lines, depth + 1,
                "FILTER (" + del.where->ToString() + ")");
      }
      return;
    }
    case StatementKind::kCall:
      AddLine(lines, depth, "CALL " + stmt.call->procedure_name);
      return;
    default:
      // DDL and transaction control have no access-path plan.
      AddLine(lines, depth,
              std::string(StatementKindName(stmt.kind)) + " (no plan)");
      return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ORDER BY elision
// ---------------------------------------------------------------------------

/// Maps each ORDER BY item of a single-base-table SELECT to a schema
/// column ordinal, mirroring the executor's sort-key resolution (output
/// ordinal / output name / scope reference) exactly. Returns false when
/// the items mix sort directions, when grouped/DISTINCT execution
/// reorders rows, or when an item is not a plain stored-column
/// reference — an ordered index traversal (forward for ASC, reversed
/// for DESC) can replace the sort only in the exact-match case (ties
/// then fall back to slot order, which is the same table order
/// stable_sort preserves).
bool OrderBySargColumns(const SelectStatement& sel, const std::string& qual,
                        const TableSchema& schema, std::vector<size_t>* out,
                        bool* descending) {
  if (sel.order_by.empty() || sel.distinct || !sel.group_by.empty() ||
      sel.having != nullptr) {
    return false;
  }
  const bool desc = sel.order_by[0].descending;
  for (const OrderByItem& ob : sel.order_by) {
    if (ob.descending != desc || ContainsAggregate(*ob.expr)) return false;
  }
  for (const SelectItem& item : sel.items) {
    if (!item.star && ContainsAggregate(*item.expr)) return false;
  }

  // Replicate star expansion so output ordinals/names line up with what
  // the projection will build.
  struct Out {
    const Expr* expr = nullptr;  // null ⇒ scope passthrough
    size_t scope_index = 0;
    std::string name;
  };
  std::vector<Out> outputs;
  for (const SelectItem& item : sel.items) {
    if (item.star) {
      if (!item.star_qualifier.empty() &&
          !EqualsIgnoreCase(item.star_qualifier, qual)) {
        continue;
      }
      for (size_t i = 0; i < schema.column_count(); ++i) {
        outputs.push_back({nullptr, i, schema.columns()[i].name});
      }
      continue;
    }
    Out o;
    o.expr = item.expr.get();
    o.name = !item.alias.empty()
                 ? item.alias
                 : DeriveOutputColumnName(*item.expr, outputs.size());
    outputs.push_back(std::move(o));
  }

  auto scope_ordinal = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kColumnRef) return -1;
    if (!e.table_qualifier.empty() &&
        !EqualsIgnoreCase(e.table_qualifier, qual)) {
      return -1;
    }
    return schema.FindColumn(e.column_name);
  };

  for (const OrderByItem& ob : sel.order_by) {
    const Expr& e = *ob.expr;
    int output_idx = -1;
    if (e.kind == ExprKind::kLiteral &&
        e.literal.type() == ValueType::kInteger) {
      int64_t ordinal = e.literal.integer();
      if (ordinal < 1 || ordinal > static_cast<int64_t>(outputs.size())) {
        return false;
      }
      output_idx = static_cast<int>(ordinal - 1);
    } else if (e.kind == ExprKind::kColumnRef && e.table_qualifier.empty()) {
      for (size_t j = 0; j < outputs.size(); ++j) {
        if (EqualsIgnoreCase(outputs[j].name, e.column_name)) {
          output_idx = static_cast<int>(j);
          break;
        }
      }
    }
    int col = -1;
    if (output_idx >= 0) {
      const Out& o = outputs[static_cast<size_t>(output_idx)];
      col = o.expr == nullptr ? static_cast<int>(o.scope_index)
                              : scope_ordinal(*o.expr);
    } else {
      col = scope_ordinal(e);
    }
    if (col < 0) return false;
    out->push_back(static_cast<size_t>(col));
  }
  if (descending != nullptr) *descending = desc;
  return true;
}

// ---------------------------------------------------------------------------
// EXPLAIN entry point
// ---------------------------------------------------------------------------

Result<ResultSet> ExecuteExplain(Database* db,
                                 const ExplainStatement& explain,
                                 const Params& params) {
  if (explain.target == nullptr) {
    return Status::Internal("EXPLAIN without a target statement");
  }
  if (!explain.analyze) {
    std::vector<std::string> lines;
    RenderStatement(db, *explain.target, 0, &lines);
    ResultSet result({"PLAN"});
    for (std::string& line : lines) {
      result.AddRow({Value::String(std::move(line))});
    }
    return result;
  }

  // ANALYZE: run the target with a profile installed, then render what
  // actually executed. The target's own rows are discarded (only the
  // operator trace is returned), but its side effects are real.
  ExecProfile profile;
  ExecProfile* previous = db->exec_profile();
  db->set_exec_profile(&profile);
  int64_t start_ns = obs::NowNanos();
  Result<ResultSet> target_result =
      db->ExecuteStatement(*explain.target, params);
  int64_t total_ns = obs::NowNanos() - start_ns;
  db->set_exec_profile(previous);
  if (!target_result.ok()) return target_result.status();

  ResultSet result({"OP", "DETAIL", "ROWS_IN", "ROWS_OUT", "LOOPS",
                    "TIME_NS", "BATCHES"});
  for (const ExecProfileOp& op : profile.ops) {
    result.AddRow(
        {Value::String(std::string(static_cast<size_t>(op.depth) * 2, ' ') +
                       op.op),
         Value::String(op.detail),
         Value::Integer(static_cast<int64_t>(op.rows_in)),
         Value::Integer(static_cast<int64_t>(op.rows_out)),
         Value::Integer(static_cast<int64_t>(op.loops)),
         Value::Integer(op.elapsed_ns),
         Value::Integer(static_cast<int64_t>(op.batches))});
  }
  uint64_t out_rows = target_result->rows().empty()
                          ? static_cast<uint64_t>(
                                target_result->affected_rows() < 0
                                    ? 0
                                    : target_result->affected_rows())
                          : target_result->row_count();
  result.AddRow({Value::String("RESULT"), Value::String(""),
                 Value::Integer(0),
                 Value::Integer(static_cast<int64_t>(out_rows)),
                 Value::Integer(1), Value::Integer(total_ns),
                 Value::Integer(0)});
  return result;
}

}  // namespace sqlflow::sql
