#include "sql/planner.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>

#include "common/string_util.h"
#include "sql/database.h"
#include "sql/table.h"

namespace sqlflow::sql {

namespace {

/// How a probe value behaves under the executor's comparison rules.
/// Strings split on whether they parse as a number, because Comparison()
/// coerces string↔numeric through AsDouble and raises a TypeError when
/// the string does not parse.
enum class ProbeClass { kNull, kBool, kNumeric, kNumString, kRawString };

ProbeClass ClassifyValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return ProbeClass::kNull;
    case ValueType::kBoolean:
      return ProbeClass::kBool;
    case ValueType::kInteger:
    case ValueType::kDouble:
      return ProbeClass::kNumeric;
    case ValueType::kString:
      return v.AsDouble().ok() ? ProbeClass::kNumString
                               : ProbeClass::kRawString;
  }
  return ProbeClass::kRawString;
}

/// True when comparing a probe of class `cls` against any value the
/// column can store is guaranteed not to raise a TypeError — a scan would
/// surface that error, so the index path must decline and fall back.
bool ProbeCompatible(ValueType column_type, ProbeClass cls) {
  if (cls == ProbeClass::kNull) return true;  // NULL probe ⇒ no rows
  switch (column_type) {
    case ValueType::kInteger:
    case ValueType::kDouble:
      return cls == ProbeClass::kNumeric || cls == ProbeClass::kNumString;
    case ValueType::kString:
      return cls == ProbeClass::kNumString ||
             cls == ProbeClass::kRawString;
    case ValueType::kBoolean:
      return cls == ProbeClass::kBool;
    case ValueType::kNull:
      return false;  // untyped column: stored values are unconstrained
  }
  return false;
}

bool IsNaN(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.dbl());
}

/// The value an equality probe `v` searches a `type` column's ordered
/// index with: a numeric string probes a numeric column as a Double
/// ('5' finds 5), everything else as itself. A NULL result means the
/// predicate is NULL (no row matches); nullopt means the index cannot
/// answer and a scan must (a probe the scan would reject with a
/// TypeError, or NaN, whose equality the index order does not mirror).
/// The full WHERE re-checks every candidate, so a probe only has to
/// reach every SQL-equal stored value.
std::optional<Value> CoerceProbe(ValueType type, const Value& v) {
  ProbeClass cls = ClassifyValue(v);
  if (cls == ProbeClass::kNull) return Value::Null();
  if (!ProbeCompatible(type, cls)) return std::nullopt;
  Value probe = v;
  if ((type == ValueType::kInteger || type == ValueType::kDouble) &&
      cls == ProbeClass::kNumString) {
    Result<double> d = v.AsDouble();
    if (!d.ok()) return std::nullopt;  // unreachable: cls checked
    probe = Value::Double(*d);
  }
  if (IsNaN(probe)) return std::nullopt;
  return probe;
}

/// Slots (ascending) of every key in `index` equal to `key`. Usually
/// one entry; integers past 2^53 can all equal one Double probe, so the
/// run may span several keys, whose postings are merged.
std::vector<size_t> EqualKeySlots(const SecondaryIndex& index,
                                  const Row& key) {
  auto [it, end] = index.ordered.equal_range(key);
  if (it == end) return {};
  if (std::next(it) == end) return it->second;
  std::vector<size_t> out;
  for (; it != end; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Schema ordinal of a column reference that resolves against this
/// table's scope (unqualified or qualified with `alias`); -1 otherwise.
int ResolveColumn(const Table& table, const std::string& alias,
                  const Expr& e) {
  if (e.kind != ExprKind::kColumnRef) return -1;
  if (!e.table_qualifier.empty() &&
      !EqualsIgnoreCase(e.table_qualifier, alias)) {
    return -1;
  }
  return table.schema().FindColumn(e.column_name);
}

void CollectTablesFromSelect(const SelectStatement& sel,
                             std::set<std::string>* out);

void CollectTablesFromExpr(const Expr& e, std::set<std::string>* out) {
  if (e.subquery != nullptr) CollectTablesFromSelect(*e.subquery, out);
  for (const ExprPtr& child : e.children) {
    CollectTablesFromExpr(*child, out);
  }
  if (e.case_else != nullptr) CollectTablesFromExpr(*e.case_else, out);
}

void CollectTablesFromSelect(const SelectStatement& sel,
                             std::set<std::string>* out) {
  for (const TableRef& ref : sel.from) {
    if (!ref.table_name.empty()) out->insert(ToUpperAscii(ref.table_name));
    if (ref.derived != nullptr) CollectTablesFromSelect(*ref.derived, out);
    if (ref.join_condition != nullptr) {
      CollectTablesFromExpr(*ref.join_condition, out);
    }
  }
  for (const SelectItem& item : sel.items) {
    if (item.expr != nullptr) CollectTablesFromExpr(*item.expr, out);
  }
  if (sel.where != nullptr) CollectTablesFromExpr(*sel.where, out);
  for (const ExprPtr& g : sel.group_by) CollectTablesFromExpr(*g, out);
  if (sel.having != nullptr) CollectTablesFromExpr(*sel.having, out);
  for (const OrderByItem& ob : sel.order_by) {
    CollectTablesFromExpr(*ob.expr, out);
  }
  if (sel.union_next != nullptr) {
    CollectTablesFromSelect(*sel.union_next, out);
  }
}

}  // namespace

bool IsProbeExpr(const Expr& e) {
  return e.kind == ExprKind::kLiteral || e.kind == ExprKind::kParameter;
}

/// Plan-time type gate for literal probes; parameters are gated at
/// execution time in IndexCandidates / RangeCandidates.
bool ProbeExprCompatible(ValueType column_type, const Expr& e) {
  if (e.kind != ExprKind::kLiteral) return true;
  return ProbeCompatible(column_type, ClassifyValue(e.literal));
}

void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    SplitConjuncts(*e.children[0], out);
    SplitConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

std::optional<IndexLookupPlan> PlanTableAccess(const Table& table,
                                               const std::string& alias,
                                               const Expr* where) {
  if (where == nullptr || table.secondary_indexes().empty()) {
    return std::nullopt;
  }
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(*where, &conjuncts);

  // Equality probes per schema ordinal (first conjunct wins; duplicates
  // are re-checked by the residual WHERE anyway), plus IN-list probes.
  std::vector<const Expr*> eq_probe(table.schema().column_count(),
                                    nullptr);
  std::vector<const Expr*> in_probe(table.schema().column_count(),
                                    nullptr);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
      const Expr& lhs = *c->children[0];
      const Expr& rhs = *c->children[1];
      int col = -1;
      const Expr* probe = nullptr;
      if ((col = ResolveColumn(table, alias, lhs)) >= 0 &&
          IsProbeExpr(rhs)) {
        probe = &rhs;
      } else if ((col = ResolveColumn(table, alias, rhs)) >= 0 &&
                 IsProbeExpr(lhs)) {
        probe = &lhs;
      } else {
        continue;
      }
      ValueType type = table.schema().columns()[col].type;
      if (type == ValueType::kNull) continue;  // untyped: never sargable
      if (!ProbeExprCompatible(type, *probe)) continue;
      if (eq_probe[col] == nullptr) eq_probe[col] = probe;
    } else if (c->kind == ExprKind::kInList && !c->negated &&
               c->subquery == nullptr && !c->children.empty()) {
      int col = ResolveColumn(table, alias, *c->children[0]);
      if (col < 0) continue;
      ValueType type = table.schema().columns()[col].type;
      if (type == ValueType::kNull) continue;
      bool all_probes = true;
      for (size_t i = 1; i < c->children.size(); ++i) {
        if (!IsProbeExpr(*c->children[i]) ||
            !ProbeExprCompatible(type, *c->children[i])) {
          all_probes = false;
          break;
        }
      }
      if (all_probes && in_probe[col] == nullptr) in_probe[col] = c;
    }
  }

  // Pick the cheapest index fully covered by equality probes under the
  // row-count cost model: a unique key yields one candidate, a
  // non-unique key rows/distinct-keys. Ties break toward unique, then
  // longer keys, for determinism.
  const SecondaryIndex* best = nullptr;
  double best_cost = 0.0;
  int best_tie = -1;
  const double rows = static_cast<double>(table.row_count());
  for (const SecondaryIndex& index : table.secondary_indexes()) {
    bool covered = !index.column_indexes.empty();
    for (size_t col : index.column_indexes) {
      if (eq_probe[col] == nullptr) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    double cost =
        index.unique
            ? 1.0
            : rows / std::max<double>(
                         1.0, static_cast<double>(index.ordered.size()));
    int tie = (index.unique ? 1000 : 0) +
              static_cast<int>(index.column_indexes.size());
    if (best == nullptr || cost < best_cost ||
        (cost == best_cost && tie > best_tie)) {
      best = &index;
      best_cost = cost;
      best_tie = tie;
    }
  }
  if (best != nullptr) {
    IndexLookupPlan plan;
    plan.table_name = table.schema().table_name();
    plan.index_name = best->name;
    plan.key_columns = best->column_indexes;
    for (size_t col : best->column_indexes) {
      plan.key_values.push_back(eq_probe[col]);
    }
    return plan;
  }

  // Otherwise a single-column IN list over a single-column index.
  for (const SecondaryIndex& index : table.secondary_indexes()) {
    if (index.column_indexes.size() != 1) continue;
    if (in_probe[index.column_indexes[0]] == nullptr) continue;
    IndexLookupPlan plan;
    plan.table_name = table.schema().table_name();
    plan.index_name = index.name;
    plan.key_columns = index.column_indexes;
    plan.in_list = in_probe[index.column_indexes[0]];
    return plan;
  }
  return std::nullopt;
}

std::optional<RangeScanPlan> PlanTableRange(const Table& table,
                                            const std::string& alias,
                                            const Expr* where) {
  if (where == nullptr || table.secondary_indexes().empty()) {
    return std::nullopt;
  }
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(*where, &conjuncts);

  // Candidate interval per schema ordinal (first conjunct wins per side;
  // the residual WHERE re-checks everything anyway), plus equality
  // probes usable as leading-key-column prefixes.
  struct ColumnRange {
    RangeBound lower;
    RangeBound upper;
    const Expr* like = nullptr;
  };
  std::vector<ColumnRange> ranges(table.schema().column_count());
  std::vector<const Expr*> eq_probe(table.schema().column_count(),
                                    nullptr);
  auto note_bound = [&ranges](int col, const Expr* probe, bool is_lower,
                              bool inclusive, bool raw) {
    RangeBound& b =
        is_lower ? ranges[static_cast<size_t>(col)].lower
                 : ranges[static_cast<size_t>(col)].upper;
    if (b.probe == nullptr) {
      b.probe = probe;
      b.inclusive = inclusive;
      b.raw_compare = raw;
    }
  };

  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary) {
      BinaryOp op = c->binary_op;
      if (op == BinaryOp::kLike) {
        // col LIKE <probe> over a string column: the literal prefix (up
        // to the first wildcard) bounds a byte-order interval, which is
        // exactly the ordered index's order for strings.
        int col = ResolveColumn(table, alias, *c->children[0]);
        if (col < 0 || !IsProbeExpr(*c->children[1])) continue;
        if (table.schema().columns()[col].type != ValueType::kString) {
          continue;
        }
        ColumnRange& r = ranges[static_cast<size_t>(col)];
        if (r.like == nullptr) r.like = c->children[1].get();
        continue;
      }
      if (op != BinaryOp::kEq && op != BinaryOp::kLt &&
          op != BinaryOp::kLtEq && op != BinaryOp::kGt &&
          op != BinaryOp::kGtEq) {
        continue;
      }
      const Expr& lhs = *c->children[0];
      const Expr& rhs = *c->children[1];
      int col = -1;
      const Expr* probe = nullptr;
      bool col_on_left = true;
      if ((col = ResolveColumn(table, alias, lhs)) >= 0 &&
          IsProbeExpr(rhs)) {
        probe = &rhs;
      } else if ((col = ResolveColumn(table, alias, rhs)) >= 0 &&
                 IsProbeExpr(lhs)) {
        probe = &lhs;
        col_on_left = false;
      } else {
        continue;
      }
      ValueType type = table.schema().columns()[col].type;
      // Untyped columns store unconstrained values (comparisons can
      // error on any probe); booleans have no meaningful range order.
      if (type == ValueType::kNull || type == ValueType::kBoolean) {
        continue;
      }
      if (!ProbeExprCompatible(type, *probe)) continue;
      if (op == BinaryOp::kEq) {
        // Equality over an ordered-comparable column: usable to pin a
        // leading key column of a multi-column index.
        if (eq_probe[static_cast<size_t>(col)] == nullptr) {
          eq_probe[static_cast<size_t>(col)] = probe;
        }
        continue;
      }
      bool is_upper = col_on_left
                          ? (op == BinaryOp::kLt || op == BinaryOp::kLtEq)
                          : (op == BinaryOp::kGt || op == BinaryOp::kGtEq);
      bool inclusive = op == BinaryOp::kLtEq || op == BinaryOp::kGtEq;
      note_bound(col, probe, !is_upper, inclusive, false);
    } else if (c->kind == ExprKind::kBetween && !c->negated) {
      // BETWEEN compares through Value::Compare (no coercion, no
      // errors), which is the ordered index's own order — sargable on
      // any column type, bounds used raw.
      int col = ResolveColumn(table, alias, *c->children[0]);
      if (col < 0) continue;
      if (!IsProbeExpr(*c->children[1]) || !IsProbeExpr(*c->children[2])) {
        continue;
      }
      note_bound(col, c->children[1].get(), true, true, true);
      note_bound(col, c->children[2].get(), false, true, true);
    }
  }

  // Choose the cheapest index under the cost model: for each index, pin
  // the longest run of leading key columns covered by equality probes,
  // then bound the next key column if an interval (or LIKE prefix) is
  // available for it. Cost ties break toward longer equality prefixes,
  // then fewer key columns, then declaration order.
  std::optional<RangeScanPlan> best;
  double best_cost = 0.0;
  std::pair<size_t, size_t> best_tie{0, 0};
  for (const SecondaryIndex& index : table.secondary_indexes()) {
    if (index.column_indexes.empty()) continue;
    size_t p = 0;
    while (p < index.column_indexes.size() &&
           eq_probe[index.column_indexes[p]] != nullptr) {
      ++p;
    }
    // A fully equality-covered key is PlanTableAccess territory (hash
    // lookup); the cost model would undercount a non-unique run here.
    if (p == index.column_indexes.size()) continue;
    size_t col = index.column_indexes[p];
    const ColumnRange& r = ranges[col];
    bool has_bounds = r.lower.probe != nullptr || r.upper.probe != nullptr;
    if (p == 0 && !has_bounds && r.like == nullptr) continue;
    RangeScanPlan plan;
    plan.table_name = table.schema().table_name();
    plan.index_name = index.name;
    plan.key_columns = index.column_indexes;
    plan.column = col;
    for (size_t i = 0; i < p; ++i) {
      plan.prefix_values.push_back(eq_probe[index.column_indexes[i]]);
    }
    if (has_bounds) {
      plan.lower = r.lower;
      plan.upper = r.upper;
    } else if (r.like != nullptr) {
      plan.like_pattern = r.like;
    }
    double cost = EstimateRangeCost(table, plan);
    std::pair<size_t, size_t> tie{
        p, std::numeric_limits<size_t>::max() - index.column_indexes.size()};
    if (!best.has_value() || cost < best_cost ||
        (cost == best_cost && tie > best_tie)) {
      best = std::move(plan);
      best_cost = cost;
      best_tie = tie;
    }
  }
  return best;
}

double EstimateLookupCost(const Table& table, const IndexLookupPlan& plan) {
  const double rows = static_cast<double>(table.row_count());
  const SecondaryIndex* index = table.FindSecondaryIndex(plan.index_name);
  if (index == nullptr) return rows;
  double per_key =
      index->unique
          ? 1.0
          : rows / std::max<double>(
                       1.0, static_cast<double>(index->ordered.size()));
  if (plan.in_list != nullptr) {
    return per_key *
           static_cast<double>(plan.in_list->children.size() - 1);
  }
  return per_key;
}

double EstimateRangeCost(const Table& table, const RangeScanPlan& plan) {
  const double rows = static_cast<double>(table.row_count());
  double selectivity = 1.0;
  for (size_t i = 0; i < plan.prefix_values.size(); ++i) {
    selectivity /= 4.0;  // each pinned key column quarters the run
  }
  bool bounded_both =
      plan.like_pattern != nullptr ||
      (plan.lower.probe != nullptr && plan.upper.probe != nullptr);
  bool bounded_half =
      plan.lower.probe != nullptr || plan.upper.probe != nullptr;
  if (bounded_both) {
    selectivity /= 4.0;
  } else if (bounded_half) {
    selectivity /= 3.0;
  }
  return rows * selectivity;
}

void ChooseAccessPath(const Table& table, const std::string& alias,
                      const Expr* where, StatementPlan* plan) {
  std::optional<IndexLookupPlan> access =
      PlanTableAccess(table, alias, where);
  std::optional<RangeScanPlan> range = PlanTableRange(table, alias, where);
  if (access.has_value() && range.has_value()) {
    if (EstimateLookupCost(table, *access) <=
        EstimateRangeCost(table, *range)) {
      range.reset();
    } else {
      access.reset();
    }
  }
  if (access.has_value()) {
    plan->has_access = true;
    plan->access = std::move(*access);
  } else if (range.has_value()) {
    plan->has_range = true;
    plan->range = std::move(*range);
  }
}

StatementPlan PlanStatement(const Statement& stmt, Database* db) {
  StatementPlan plan;
  plan.schema_epoch = db->schema_epoch();
  const Expr* where = nullptr;
  const std::string* table_name = nullptr;
  const std::string* alias = nullptr;
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      const SelectStatement& sel = *stmt.select;
      if (sel.from.size() != 1 || sel.from[0].derived != nullptr ||
          sel.where == nullptr) {
        return plan;
      }
      where = sel.where.get();
      table_name = &sel.from[0].table_name;
      alias = sel.from[0].alias.empty() ? table_name : &sel.from[0].alias;
      break;
    }
    case StatementKind::kUpdate:
      if (stmt.update->where == nullptr) return plan;
      where = stmt.update->where.get();
      table_name = &stmt.update->table_name;
      alias = table_name;
      break;
    case StatementKind::kDelete:
      if (stmt.del->where == nullptr) return plan;
      where = stmt.del->where.get();
      table_name = &stmt.del->table_name;
      alias = table_name;
      break;
    default:
      return plan;
  }
  const Table* table = db->catalog().FindTable(*table_name);
  if (table == nullptr) return plan;
  ChooseAccessPath(*table, *alias, where, &plan);
  if (plan.has_access) plan.access.table_name = *table_name;
  if (plan.has_range) plan.range.table_name = *table_name;
  return plan;
}

std::optional<std::vector<size_t>> IndexCandidates(
    const Table& table, const IndexLookupPlan& plan, const Params& params,
    Database* db) {
  const SecondaryIndex* index = table.FindSecondaryIndex(plan.index_name);
  if (index == nullptr ||
      index->column_indexes != plan.key_columns) {
    return std::nullopt;  // index vanished or was redefined: scan
  }
  EvalContext ctx;
  ctx.params = &params;
  ctx.database = db;

  if (plan.in_list != nullptr) {
    ValueType type =
        table.schema().columns()[plan.key_columns[0]].type;
    std::vector<size_t> out;
    for (size_t i = 1; i < plan.in_list->children.size(); ++i) {
      Result<Value> v = EvaluateExpr(*plan.in_list->children[i], ctx);
      if (!v.ok()) return std::nullopt;  // e.g. unbound parameter: scan
      std::optional<Value> probe = CoerceProbe(type, *v);
      if (!probe.has_value()) return std::nullopt;
      if (probe->is_null()) continue;  // NULL element never matches
      std::vector<size_t> slots = EqualKeySlots(*index, Row{*probe});
      out.insert(out.end(), slots.begin(), slots.end());
    }
    // Distinct IN elements can probe the same key (1 and '1.0'): dedupe
    // and restore table order.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  Row key;
  key.reserve(plan.key_columns.size());
  for (size_t i = 0; i < plan.key_columns.size(); ++i) {
    Result<Value> v = EvaluateExpr(*plan.key_values[i], ctx);
    if (!v.ok()) return std::nullopt;
    ValueType type = table.schema().columns()[plan.key_columns[i]].type;
    std::optional<Value> probe = CoerceProbe(type, *v);
    if (!probe.has_value()) return std::nullopt;
    if (probe->is_null()) {
      return std::vector<size_t>{};  // col = NULL is never true
    }
    key.push_back(std::move(*probe));
  }
  return EqualKeySlots(*index, key);
}

namespace {

/// Byte-successor of `prefix`: the smallest string greater than every
/// string starting with `prefix`. Empty result ⇒ no finite successor
/// (all-0xFF prefix) ⇒ unbounded above.
std::string PrefixSuccessor(const std::string& prefix) {
  std::string s = prefix;
  while (!s.empty() && static_cast<unsigned char>(s.back()) == 0xFF) {
    s.pop_back();
  }
  if (!s.empty()) s.back() = static_cast<char>(s.back() + 1);
  return s;
}

}  // namespace

std::optional<std::vector<size_t>> RangeCandidates(const Table& table,
                                                   const RangeScanPlan& plan,
                                                   const Params& params,
                                                   Database* db,
                                                   bool reverse) {
  const SecondaryIndex* index = table.FindSecondaryIndex(plan.index_name);
  if (index == nullptr || index->column_indexes != plan.key_columns) {
    return std::nullopt;  // index vanished or was redefined: scan
  }
  if (plan.prefix_values.size() >= plan.key_columns.size()) {
    return std::nullopt;  // malformed plan: scan
  }
  EvalContext ctx;
  ctx.params = &params;
  ctx.database = db;

  // Resolve the equality prefix: each probe pins one leading key column
  // to the run of keys whose column compares equal under the index
  // order. The full WHERE re-checks every candidate, so a coerced probe
  // only has to cover all SQL-equal stored values.
  Row eq_prefix;
  eq_prefix.reserve(plan.prefix_values.size());
  for (const Expr* pe : plan.prefix_values) {
    size_t key_col = plan.key_columns[eq_prefix.size()];
    ValueType type = table.schema().columns()[key_col].type;
    Result<Value> v = EvaluateExpr(*pe, ctx);
    if (!v.ok()) return std::nullopt;
    std::optional<Value> probe = CoerceProbe(type, *v);
    if (!probe.has_value()) return std::nullopt;
    if (probe->is_null()) return std::vector<size_t>{};  // col = NULL ⇒ NULL
    eq_prefix.push_back(std::move(*probe));
  }

  OrderedBound lower;
  bool have_upper = false;
  OrderedBound upper;
  // The endpoint that closes the whole prefix-equal run (exact when a
  // prefix exists; the map's end() plays that role otherwise).
  auto prefix_end = [&eq_prefix] {
    return OrderedBound{eq_prefix, Value::Null(), false, true};
  };

  bool pure_prefix = plan.like_pattern == nullptr &&
                     plan.lower.probe == nullptr &&
                     plan.upper.probe == nullptr;
  if (pure_prefix) {
    if (eq_prefix.empty()) return std::nullopt;  // malformed plan: scan
    // The whole prefix-equal run, NULL next-column keys included (they
    // satisfy the prefix equalities).
    lower = OrderedBound{eq_prefix, Value::Null(), false, false};
    upper = prefix_end();
    have_upper = true;
  } else if (plan.like_pattern != nullptr) {
    Result<Value> pat = EvaluateExpr(*plan.like_pattern, ctx);
    if (!pat.ok()) return std::nullopt;
    if (pat->is_null()) return std::vector<size_t>{};  // LIKE NULL ⇒ NULL
    std::string pattern = pat->AsString();
    size_t wild = pattern.find_first_of("%_");
    std::string prefix = pattern.substr(0, wild);
    if (prefix.empty()) return std::nullopt;  // pattern starts wild: scan
    lower = OrderedBound{eq_prefix, Value::String(prefix), true, false};
    std::string succ = PrefixSuccessor(prefix);
    if (!succ.empty()) {
      upper =
          OrderedBound{eq_prefix, Value::String(std::move(succ)), true,
                       false};
      have_upper = true;
    } else if (!eq_prefix.empty()) {
      // No finite string successor, but the equality prefix still caps
      // the run.
      upper = prefix_end();
      have_upper = true;
    }
    // else: strings are the top type rank, so "no upper" is exact.
  } else {
    // NULL keys sort first under OrderedValueCompare but never satisfy
    // a range predicate; the default floor starts just past them
    // (within the prefix-equal run).
    lower = OrderedBound{eq_prefix, Value::Null(), true, true};
    ValueType type = table.schema().columns()[plan.column].type;
    auto resolve = [&](const RangeBound& b,
                       Value* out) -> std::optional<bool> {
      // nullopt ⇒ abandon (scan); false ⇒ provably empty; true ⇒ ok.
      Result<Value> v = EvaluateExpr(*b.probe, ctx);
      if (!v.ok()) return std::nullopt;
      if (v->is_null()) return false;  // NULL bound ⇒ predicate is NULL
      if (b.raw_compare) {
        // BETWEEN compares raw; a NaN bound behaves asymmetrically
        // under Value::Compare, which the map cannot reproduce.
        if (IsNaN(*v)) return std::nullopt;
        *out = *v;
        return true;
      }
      // A NaN bound declines too: x > NaN is true on scan.
      std::optional<Value> probe = CoerceProbe(type, *v);
      if (!probe.has_value()) return std::nullopt;
      *out = std::move(*probe);
      return true;
    };
    if (plan.lower.probe != nullptr) {
      Value v;
      std::optional<bool> ok = resolve(plan.lower, &v);
      if (!ok.has_value()) return std::nullopt;
      if (!*ok) return std::vector<size_t>{};
      lower = OrderedBound{eq_prefix, std::move(v), true,
                           !plan.lower.inclusive};
    }
    if (plan.upper.probe != nullptr) {
      Value v;
      std::optional<bool> ok = resolve(plan.upper, &v);
      if (!ok.has_value()) return std::nullopt;
      if (!*ok) return std::vector<size_t>{};
      upper = OrderedBound{eq_prefix, std::move(v), true,
                           plan.upper.inclusive};
      have_upper = true;
    } else if (!eq_prefix.empty()) {
      upper = prefix_end();
      have_upper = true;
    }
  }

  // Guard empty/inverted intervals (BETWEEN 10 AND 5): lower_bound of
  // the floor could land past lower_bound of the ceiling, and iterating
  // between them would run off the map. Bounds share the same equality
  // prefix, so only two valued endpoints can invert.
  if (have_upper && lower.has_value && upper.has_value) {
    int cmp = OrderedValueCompare(lower.value, upper.value);
    if (cmp > 0 || (cmp == 0 && (lower.after_equal || !upper.after_equal))) {
      return std::vector<size_t>{};
    }
  }

  auto it = index->ordered.lower_bound(lower);
  auto end = have_upper ? index->ordered.lower_bound(upper)
                        : index->ordered.end();
  std::vector<size_t> out;
  if (!reverse) {
    for (; it != end; ++it) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  } else {
    // Descending key order with slots still ascending within each key —
    // the order a descending stable sort over table-ordered rows
    // produces.
    while (end != it) {
      --end;
      out.insert(out.end(), end->second.begin(), end->second.end());
    }
  }
  return out;
}

std::vector<std::string> CollectReferencedTables(const Statement& stmt) {
  std::set<std::string> names;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      CollectTablesFromSelect(*stmt.select, &names);
      break;
    case StatementKind::kInsert:
      names.insert(ToUpperAscii(stmt.insert->table_name));
      if (stmt.insert->select != nullptr) {
        CollectTablesFromSelect(*stmt.insert->select, &names);
      }
      for (const auto& row : stmt.insert->rows) {
        for (const ExprPtr& e : row) CollectTablesFromExpr(*e, &names);
      }
      break;
    case StatementKind::kUpdate:
      names.insert(ToUpperAscii(stmt.update->table_name));
      if (stmt.update->where != nullptr) {
        CollectTablesFromExpr(*stmt.update->where, &names);
      }
      for (const auto& [col, e] : stmt.update->assignments) {
        CollectTablesFromExpr(*e, &names);
      }
      break;
    case StatementKind::kDelete:
      names.insert(ToUpperAscii(stmt.del->table_name));
      if (stmt.del->where != nullptr) {
        CollectTablesFromExpr(*stmt.del->where, &names);
      }
      break;
    case StatementKind::kExplain: {
      // EXPLAIN touches whatever its target touches (ANALYZE runs it).
      std::vector<std::string> inner =
          CollectReferencedTables(*stmt.explain->target);
      names.insert(inner.begin(), inner.end());
      break;
    }
    default:
      break;
  }
  return {names.begin(), names.end()};
}

}  // namespace sqlflow::sql
