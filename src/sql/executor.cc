#include "sql/executor.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/database.h"
#include "sql/explain.h"
#include "sql/key_hash.h"
#include "sql/planner.h"
#include "sql/profile.h"
#include "sql/table.h"
#include "sql/transaction.h"

namespace sqlflow::sql {

namespace {

// ---------------------------------------------------------------------------
// Row scope over (possibly joined) tables
// ---------------------------------------------------------------------------

// Shared with EXPLAIN's static renderer (sql/explain.h) so both resolve
// scope columns identically; qualifier is the table alias (or name) the
// column came from.
using ScopeColumn = ScopeColumnRef;

/// Resolves column references against one combined row of the FROM scope.
class ScopeBinding : public RowBinding {
 public:
  ScopeBinding(const std::vector<ScopeColumn>* columns, const Row* row)
      : columns_(columns), row_(row) {}

  void set_row(const Row* row) { row_ = row; }

  Result<Value> Resolve(const std::string& qualifier,
                        const std::string& column) const override {
    int found = -1;
    for (size_t i = 0; i < columns_->size(); ++i) {
      const ScopeColumn& sc = (*columns_)[i];
      if (!qualifier.empty() &&
          !EqualsIgnoreCase(sc.qualifier, qualifier)) {
        continue;
      }
      if (!EqualsIgnoreCase(sc.name, column)) continue;
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column reference '" +
                                       column + "'");
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::NotFound(
          "no column '" +
          (qualifier.empty() ? column : qualifier + "." + column) +
          "' in scope");
    }
    return (*row_)[static_cast<size_t>(found)];
  }

 private:
  const std::vector<ScopeColumn>* columns_;
  const Row* row_;
};

}  // namespace

AggKind AggKindOf(const std::string& fn) {
  if (fn == "COUNT") return AggKind::kCount;
  if (fn == "SUM") return AggKind::kSum;
  if (fn == "AVG") return AggKind::kAvg;
  if (fn == "MIN") return AggKind::kMin;
  if (fn == "MAX") return AggKind::kMax;
  return AggKind::kOther;
}

void FeedValue(AggState* st, AggKind kind, bool distinct, const Value& v) {
  if (v.is_null()) return;
  if (distinct && !st->distinct_seen.Insert(v)) return;
  ++st->count;
  switch (kind) {
    case AggKind::kMin:
    case AggKind::kMax: {
      bool better = kind == AggKind::kMin ? v.Compare(st->acc) < 0
                                          : v.Compare(st->acc) > 0;
      if (!st->have || better) {
        st->acc = v;
        st->have = true;
      }
      break;
    }
    case AggKind::kSum:
    case AggKind::kAvg: {
      if (v.type() == ValueType::kInteger) {
        st->sum_i += v.integer();
        st->sum_d += static_cast<double>(v.integer());
      } else {
        Result<double> d = v.AsDouble();
        if (!d.ok()) {
          st->failed = true;
          st->error = d.status();
          return;
        }
        st->sum_d += *d;
        st->all_int = false;
      }
      break;
    }
    default:
      break;
  }
}

bool AggregateTakesNoValues(const Expr& agg) {
  if (agg.children.empty()) return true;
  return agg.function_name == "COUNT" &&
         agg.children[0]->kind == ExprKind::kStar;
}

Result<Value> FinishAggregate(const Expr& agg, const AggState& st,
                              int64_t group_size) {
  if (agg.children.empty()) {
    return Status::InvalidArgument(agg.function_name +
                                   " requires an argument");
  }
  if (AggregateTakesNoValues(agg)) return Value::Integer(group_size);
  if (st.failed) return st.error;
  const AggKind kind = AggKindOf(agg.function_name);
  if (kind == AggKind::kOther) {
    return Status::Internal("bad aggregate " + agg.function_name);
  }
  if (kind == AggKind::kCount) return Value::Integer(st.count);
  if (st.count == 0) return Value::Null();  // SQL: aggregates over ∅ are NULL
  if (kind == AggKind::kMin || kind == AggKind::kMax) return st.acc;
  if (kind == AggKind::kSum) {
    return st.all_int ? Value::Integer(st.sum_i) : Value::Double(st.sum_d);
  }
  return Value::Double(st.sum_d / static_cast<double>(st.count));  // AVG
}

namespace {

/// Collects pointers to aggregate function-call nodes in tree order (not
/// descending into nested aggregates, which the dialect rejects anyway).
void CollectAggregateNodes(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunctionCall &&
      IsAggregateFunctionName(e.function_name)) {
    out->push_back(&e);
    return;
  }
  for (const ExprPtr& child : e.children) {
    CollectAggregateNodes(*child, out);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Result<ResultSet> Executor::ExecuteSelect(const SelectStatement& sel,
                                          const Params& params,
                                          const StatementPlan* plan) {
  SQLFLOW_ASSIGN_OR_RETURN(ResultSet left,
                           ExecuteSelectCore(sel, params, plan));
  if (sel.union_next == nullptr) return left;
  // A memoized plan covers only the first SELECT core; union branches
  // plan inline.
  SQLFLOW_ASSIGN_OR_RETURN(ResultSet right,
                           ExecuteSelect(*sel.union_next, params));
  if (left.column_count() != right.column_count()) {
    return Status::ExecutionError(
        "UNION branches produce different column counts (" +
        std::to_string(left.column_count()) + " vs " +
        std::to_string(right.column_count()) + ")");
  }
  // Column names come from the first branch, SQL-style.
  ResultSet combined(left.column_names());
  KeyHashTable seen;
  auto add = [&](const Row& row) {
    if (!sel.union_all) {
      const uint32_t id = static_cast<uint32_t>(combined.row_count());
      auto same = [&](uint32_t kept) {
        return GroupRowEqual(combined.rows()[kept], row);
      };
      if (!seen.FindOrAdd(GroupRowHash(row), id, same).second) return;
    }
    combined.AddRow(row);
  };
  for (const Row& row : left.rows()) add(row);
  for (const Row& row : right.rows()) add(row);
  if (ExecProfile* prof = db_->exec_profile()) {
    ExecProfileOp& op =
        prof->Add(sel.union_all ? "UNION ALL" : "UNION", "");
    op.rows_in = left.row_count() + right.row_count();
    op.rows_out = combined.row_count();
    op.loops = 1;
  }
  return combined;
}

Status Executor::ExecuteSubqueryRef(const TableRef& ref,
                                    const std::string& qual,
                                    const Params& params,
                                    std::vector<ScopeColumnRef>* columns,
                                    std::vector<Row>* rows) {
  const SelectStatement* select = ref.derived.get();
  if (select == nullptr) select = db_->catalog().FindView(ref.table_name);
  if (select == nullptr) {
    return Status::NotFound("no table or view '" + ref.table_name + "'");
  }
  int* depth = db_->MutableViewDepth();
  if (ref.derived == nullptr && ++*depth > kMaxViewDepth) {
    --*depth;
    return Status::ExecutionError(
        "view expansion too deep (cyclic view definition?)");
  }
  Result<ResultSet> result = ExecuteSelect(*select, params);
  if (ref.derived == nullptr) --*depth;
  if (!result.ok()) return result.status();
  for (const std::string& name : result->column_names()) {
    columns->push_back({qual, name});
  }
  *rows = std::move(result->mutable_rows());
  if (ExecProfile* prof = db_->exec_profile()) {
    ExecProfileOp& op = ref.derived != nullptr
                            ? prof->Add("DERIVED", qual)
                            : prof->Add("VIEW", ref.table_name);
    op.rows_in = op.rows_out = rows->size();
    op.loops = 1;
  }
  return Status::OK();
}

std::optional<Executor::ResolvedAccess> Executor::ResolveCandidates(
    Table* table, const std::string& alias, const Expr* where,
    const StatementPlan* plan, const Params& params,
    const std::vector<size_t>* desired_order, bool desired_desc) {
  ExecProfile* prof = db_->exec_profile();
  const int64_t prof_start = prof != nullptr ? obs::NowNanos() : 0;
  auto record = [&](const char* op, std::string detail, size_t rows_out) {
    if (prof == nullptr) return;
    ExecProfileOp& slot = prof->Add(op, std::move(detail));
    slot.rows_in = table->row_count();
    slot.rows_out = rows_out;
    slot.loops = 1;
    slot.elapsed_ns = obs::NowNanos() - prof_start;
  };
  if (!db_->optimizer_enabled()) {
    db_->NotePlanChoice(PlanChoice::kScan);
    record("SCAN", table->schema().table_name(), table->row_count());
    return std::nullopt;
  }
  const IndexLookupPlan* access = nullptr;
  const RangeScanPlan* range = nullptr;
  StatementPlan local;
  if (plan != nullptr) {
    // Memoized plan (epoch-validated by the caller); neither path set
    // memoizes "nothing sargable" and skips re-planning.
    if (plan->has_access) access = &plan->access;
    if (plan->has_range) range = &plan->range;
  } else if (where != nullptr) {
    ChooseAccessPath(*table, alias, where, &local);
    if (local.has_access) access = &local.access;
    if (local.has_range) range = &local.range;
  }
  if (access != nullptr &&
      EqualsIgnoreCase(access->table_name, table->schema().table_name())) {
    std::optional<std::vector<size_t>> candidates =
        IndexCandidates(*table, *access, params, db_);
    if (candidates.has_value()) {
      db_->NotePlanChoice(PlanChoice::kIndexLookup);
      record("INDEX LOOKUP",
             table->schema().table_name() + " via " + access->index_name,
             candidates->size());
      return ResolvedAccess{std::move(*candidates), false};
    }
  }
  if (range != nullptr &&
      EqualsIgnoreCase(range->table_name, table->schema().table_name())) {
    // Slots arrive in index-key order; that satisfies the caller's
    // ORDER BY only when the key columns match it exactly (reversed
    // traversal for a descending order).
    bool key_ordered = desired_order != nullptr &&
                       *desired_order == range->key_columns;
    bool reversed = key_ordered && desired_desc;
    std::optional<std::vector<size_t>> candidates =
        RangeCandidates(*table, *range, params, db_, reversed);
    if (candidates.has_value()) {
      db_->NotePlanChoice(PlanChoice::kRangeScan);
      if (!key_ordered) std::sort(candidates->begin(), candidates->end());
      record("RANGE SCAN",
             table->schema().table_name() + " via " + range->index_name +
                 (reversed ? " (reverse)" : ""),
             candidates->size());
      return ResolvedAccess{std::move(*candidates), key_ordered};
    }
  }
  // Nothing sargable: an ordered index matching the desired ORDER BY can
  // still hand back the whole table pre-sorted (NULL keys included —
  // they sort first, exactly where ascending ORDER BY wants them, and
  // last under a reversed walk, matching descending ORDER BY).
  if (desired_order != nullptr && !desired_order->empty()) {
    for (const SecondaryIndex& index : table->secondary_indexes()) {
      if (index.column_indexes != *desired_order) continue;
      ResolvedAccess out;
      out.key_ordered = true;
      out.slots.reserve(table->row_count());
      if (!desired_desc) {
        for (const auto& [key, slots] : index.ordered) {
          out.slots.insert(out.slots.end(), slots.begin(), slots.end());
        }
      } else {
        // Descending keys, ascending slots within a key — what a
        // descending stable sort over table order produces.
        for (auto it = index.ordered.rbegin(); it != index.ordered.rend();
             ++it) {
          out.slots.insert(out.slots.end(), it->second.begin(),
                           it->second.end());
        }
      }
      db_->NotePlanChoice(PlanChoice::kRangeScan);
      record("RANGE SCAN",
             table->schema().table_name() + " via " + index.name +
                 (desired_desc ? " (full traversal, reverse)"
                               : " (full traversal)"),
             out.slots.size());
      return out;
    }
  }
  db_->NotePlanChoice(PlanChoice::kScan);
  record("SCAN", table->schema().table_name(), table->row_count());
  return std::nullopt;
}

bool Executor::TryPushdownSlots(Table* table, const std::string& qual,
                                const SelectStatement& sel,
                                size_t ref_index, const Params& params,
                                std::vector<size_t>* out_slots) {
  if (!db_->optimizer_enabled() || sel.where == nullptr) return false;
  // Structural soundness (LEFT OUTER right side, ambiguous alias) and
  // the pushable-conjunct gate are shared with EXPLAIN's renderer.
  if (!PushdownAllowed(sel, ref_index)) return false;
  const TableSchema& schema = table->schema();
  std::vector<const Expr*> pushable =
      CollectPushableConjuncts(schema, qual, sel);
  if (pushable.empty()) return false;

  ExecProfile* prof = db_->exec_profile();
  const int64_t prof_start = prof != nullptr ? obs::NowNanos() : 0;

  // Let the planner find an index over just the pushed conjuncts.
  ExprPtr pushed_where = CombineConjuncts(pushable);
  StatementPlan local;
  ChooseAccessPath(*table, qual, pushed_where.get(), &local);
  std::optional<std::vector<size_t>> candidates;
  bool used_index = false;
  bool used_range = false;
  if (local.has_access) {
    candidates = IndexCandidates(*table, local.access, params, db_);
    used_index = candidates.has_value();
  } else if (local.has_range) {
    candidates = RangeCandidates(*table, local.range, params, db_);
    if (candidates.has_value()) {
      used_range = true;
      std::sort(candidates->begin(), candidates->end());  // table order
    }
  }

  std::vector<ScopeColumn> columns;
  for (const ColumnDef& col : schema.columns()) {
    columns.push_back({qual, col.name});
  }
  Row current;
  ScopeBinding binding(&columns, &current);
  EvalContext ctx;
  ctx.binding = &binding;
  ctx.params = &params;
  ctx.database = db_;

  std::vector<size_t> kept;
  // nullopt ⇒ a conjunct errored: abandon the whole pushdown so the
  // un-pushed WHERE surfaces (or short-circuits past) the error itself.
  auto eval_row = [&](const Row& row) -> std::optional<bool> {
    current = row;
    for (const Expr* c : pushable) {
      Result<Value> v = EvaluateExpr(*c, ctx);
      if (!v.ok()) return std::nullopt;
      if (!IsTrue(*v)) return false;
    }
    return true;
  };
  if (candidates.has_value()) {
    for (size_t slot : *candidates) {
      std::optional<bool> keep = eval_row(table->rows()[slot]);
      if (!keep.has_value()) return false;
      if (*keep) kept.push_back(slot);
    }
  } else {
    for (size_t slot = 0; slot < table->row_count(); ++slot) {
      std::optional<bool> keep = eval_row(table->rows()[slot]);
      if (!keep.has_value()) return false;
      if (*keep) kept.push_back(slot);
    }
  }
  if (used_index) db_->NotePlanChoice(PlanChoice::kIndexLookup);
  if (used_range) db_->NotePlanChoice(PlanChoice::kRangeScan);
  db_->NotePlanChoice(PlanChoice::kPushdown);
  if (prof != nullptr) {
    const size_t examined =
        candidates.has_value() ? candidates->size() : table->row_count();
    ExecProfileOp& op = prof->Add(
        "PUSHDOWN", schema.table_name() + " (" +
                        std::to_string(pushable.size()) + " conjunct" +
                        (pushable.size() == 1 ? "" : "s") + ")");
    op.rows_in = examined;
    op.rows_out = kept.size();
    op.loops = 1;
    op.elapsed_ns = obs::NowNanos() - prof_start;
    if (used_index) {
      ExecProfileOp& sub = prof->Add(
          "INDEX LOOKUP",
          schema.table_name() + " via " + local.access.index_name, 1);
      sub.rows_in = table->row_count();
      sub.rows_out = examined;
      sub.loops = 1;
    } else if (used_range) {
      ExecProfileOp& sub = prof->Add(
          "RANGE SCAN",
          schema.table_name() + " via " + local.range.index_name, 1);
      sub.rows_in = table->row_count();
      sub.rows_out = examined;
      sub.loops = 1;
    }
  }
  *out_slots = std::move(kept);
  return true;
}

Result<Executor::SelectShape> Executor::ShapeSelect(
    const SelectStatement& sel, const std::vector<ScopeColumnRef>& columns) {
  SelectShape shape;
  std::vector<SelectOutput>& outputs = shape.outputs;
  for (const SelectItem& item : sel.items) {
    if (item.star) {
      for (size_t i = 0; i < columns.size(); ++i) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(columns[i].qualifier, item.star_qualifier)) {
          continue;
        }
        SelectOutput out;
        out.scope_index = i;
        out.name = columns[i].name;
        outputs.push_back(std::move(out));
      }
      continue;
    }
    SelectOutput out;
    out.expr = item.expr.get();
    out.name = !item.alias.empty()
                   ? item.alias
                   : DeriveOutputColumnName(*item.expr, outputs.size());
    outputs.push_back(std::move(out));
  }

  bool has_aggregates = false;
  for (const SelectOutput& out : outputs) {
    if (out.expr != nullptr && ContainsAggregate(*out.expr)) {
      has_aggregates = true;
    }
  }
  if (sel.having != nullptr && ContainsAggregate(*sel.having)) {
    has_aggregates = true;
  }
  shape.grouped = !sel.group_by.empty() || has_aggregates;
  if (shape.grouped) {
    for (const SelectOutput& out : outputs) {
      if (out.expr != nullptr) CollectAggregateNodes(*out.expr, &shape.aggs);
    }
    if (sel.having != nullptr) CollectAggregateNodes(*sel.having, &shape.aggs);
    for (const OrderByItem& ob : sel.order_by) {
      CollectAggregateNodes(*ob.expr, &shape.aggs);
    }
  }

  // ORDER BY may reference output columns (alias/name or an integer
  // ordinal); anything else evaluates in scope.
  shape.order_output_index.assign(sel.order_by.size(), -1);
  for (size_t i = 0; i < sel.order_by.size(); ++i) {
    const Expr& e = *sel.order_by[i].expr;
    if (e.kind == ExprKind::kLiteral &&
        e.literal.type() == ValueType::kInteger) {
      int64_t ordinal = e.literal.integer();
      if (ordinal < 1 || ordinal > static_cast<int64_t>(outputs.size())) {
        return Status::InvalidArgument("ORDER BY ordinal out of range");
      }
      shape.order_output_index[i] = static_cast<int>(ordinal - 1);
      continue;
    }
    if (e.kind == ExprKind::kColumnRef && e.table_qualifier.empty()) {
      for (size_t j = 0; j < outputs.size(); ++j) {
        if (EqualsIgnoreCase(outputs[j].name, e.column_name)) {
          shape.order_output_index[i] = static_cast<int>(j);
          break;
        }
      }
    }
  }
  return shape;
}

void Executor::RecordAggregate(const SelectStatement& sel, size_t rows_in,
                               size_t rows_out, uint64_t batches,
                               int64_t start) {
  std::string detail;
  if (sel.group_by.empty()) {
    detail = "implicit group";
  } else {
    for (size_t i = 0; i < sel.group_by.size(); ++i) {
      if (i > 0) detail += ", ";
      detail += sel.group_by[i]->ToString();
    }
    detail = "GROUP BY " + detail;
  }
  ExecProfileOp& op = db_->exec_profile()->Add("AGGREGATE", std::move(detail));
  op.rows_in = rows_in;
  op.rows_out = rows_out;
  op.loops = 1;
  op.batches = batches;
  op.elapsed_ns = obs::NowNanos() - start;
}

ResultSet Executor::FinishSelect(const SelectStatement& sel,
                                 const SelectShape& shape, bool presorted,
                                 std::vector<SortableRow> produced) {
  ExecProfile* prof = db_->exec_profile();
  std::vector<std::string> out_names;
  out_names.reserve(shape.outputs.size());
  for (const SelectOutput& out : shape.outputs) out_names.push_back(out.name);
  ResultSet result(out_names);

  // 5. DISTINCT.
  if (sel.distinct) {
    const int64_t distinct_start = prof != nullptr ? obs::NowNanos() : 0;
    const size_t distinct_rows_in = produced.size();
    KeyHashTable seen;
    std::vector<SortableRow> unique;
    for (SortableRow& row : produced) {
      auto same = [&](uint32_t kept) {
        return GroupRowEqual(unique[kept].output, row.output);
      };
      if (seen.FindOrAdd(GroupRowHash(row.output),
                         static_cast<uint32_t>(unique.size()), same)
              .second) {
        unique.push_back(std::move(row));
      }
    }
    produced = std::move(unique);
    if (prof != nullptr) {
      ExecProfileOp& op = prof->Add("DISTINCT", "");
      op.rows_in = distinct_rows_in;
      op.rows_out = produced.size();
      op.loops = 1;
      op.elapsed_ns = obs::NowNanos() - distinct_start;
    }
  }

  // 6. ORDER BY (stable, so equal keys keep input order). Skipped when
  // an ordered-index traversal already produced this exact order.
  if (!sel.order_by.empty() && !presorted) {
    const int64_t sort_start = prof != nullptr ? obs::NowNanos() : 0;
    std::stable_sort(
        produced.begin(), produced.end(),
        [&sel](const SortableRow& a, const SortableRow& b) {
          for (size_t i = 0; i < sel.order_by.size(); ++i) {
            int cmp = a.sort_keys[i].Compare(b.sort_keys[i]);
            if (cmp != 0) {
              return sel.order_by[i].descending ? cmp > 0 : cmp < 0;
            }
          }
          return false;
        });
    if (prof != nullptr) {
      ExecProfileOp& op = prof->Add("SORT", "");
      op.rows_in = op.rows_out = produced.size();
      op.loops = 1;
      op.elapsed_ns = obs::NowNanos() - sort_start;
    }
  } else if (!sel.order_by.empty() && prof != nullptr) {
    ExecProfileOp& op = prof->Add("SORT", "elided (index order)");
    op.rows_in = op.rows_out = produced.size();
    op.loops = 1;
  }

  // 7. OFFSET / LIMIT.
  size_t begin = 0;
  size_t end = produced.size();
  if (sel.offset.has_value()) {
    begin = std::min<size_t>(static_cast<size_t>(*sel.offset), end);
  }
  if (sel.limit.has_value()) {
    end = std::min<size_t>(begin + static_cast<size_t>(*sel.limit), end);
  }
  if (prof != nullptr &&
      (sel.offset.has_value() || sel.limit.has_value())) {
    std::string detail;
    if (sel.offset.has_value()) {
      detail += "OFFSET " + std::to_string(*sel.offset);
    }
    if (sel.limit.has_value()) {
      if (!detail.empty()) detail += " ";
      detail += "LIMIT " + std::to_string(*sel.limit);
    }
    ExecProfileOp& op = prof->Add("LIMIT", std::move(detail));
    op.rows_in = produced.size();
    op.rows_out = end - begin;
    op.loops = 1;
  }
  for (size_t i = begin; i < end; ++i) {
    result.AddRow(std::move(produced[i].output));
  }
  db_->MutableStats()->bytes_materialized += result.ApproxByteSize();
  return result;
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<ResultSet> Executor::ExecuteInsert(const InsertStatement& ins,
                                          const Params& params) {
  SQLFLOW_ASSIGN_OR_RETURN(Table * table,
                           db_->catalog().GetTable(ins.table_name));
  const TableSchema& schema = table->schema();

  // Map the statement's column list onto schema positions.
  std::vector<int> target(schema.column_count(), -1);
  if (ins.columns.empty()) {
    for (size_t i = 0; i < schema.column_count(); ++i) {
      target[i] = static_cast<int>(i);
    }
  } else {
    for (size_t i = 0; i < ins.columns.size(); ++i) {
      int idx = schema.FindColumn(ins.columns[i]);
      if (idx < 0) {
        return Status::NotFound("no column '" + ins.columns[i] +
                                "' in table '" + ins.table_name + "'");
      }
      target[static_cast<size_t>(idx)] = static_cast<int>(i);
    }
  }

  auto build_row = [&](const Row& source,
                       size_t source_width) -> Result<Row> {
    if (ins.columns.empty()) {
      if (source_width != schema.column_count()) {
        return Status::InvalidArgument(
            "INSERT supplies " + std::to_string(source_width) +
            " values for " + std::to_string(schema.column_count()) +
            " columns");
      }
    } else if (source_width != ins.columns.size()) {
      return Status::InvalidArgument("INSERT value count mismatch");
    }
    Row row(schema.column_count(), Value::Null());
    for (size_t i = 0; i < schema.column_count(); ++i) {
      if (target[i] >= 0) {
        row[i] = source[static_cast<size_t>(target[i])];
      } else if (schema.columns()[i].default_value.has_value()) {
        row[i] = *schema.columns()[i].default_value;
      }
    }
    return row;
  };

  // Each row is a mid-statement fault site: a fault between rows k and
  // k+1 leaves k real rows for the statement-scope undo to unwind.
  int64_t inserted = 0;
  if (ins.select != nullptr) {
    SQLFLOW_ASSIGN_OR_RETURN(ResultSet source,
                             ExecuteSelect(*ins.select, params));
    for (const Row& src : source.rows()) {
      SQLFLOW_ASSIGN_OR_RETURN(Row row, build_row(src, src.size()));
      SQLFLOW_RETURN_IF_ERROR(table->Insert(row, db_->active_undo()));
      ++inserted;
      SQLFLOW_RETURN_IF_ERROR(db_->ConsultMidStatementFault(
          "row " + std::to_string(inserted)));
    }
  } else {
    EvalContext ctx;
    ctx.params = &params;
    ctx.database = db_;
    for (const std::vector<ExprPtr>& value_row : ins.rows) {
      Row values;
      for (const ExprPtr& e : value_row) {
        SQLFLOW_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, ctx));
        values.push_back(std::move(v));
      }
      SQLFLOW_ASSIGN_OR_RETURN(Row row, build_row(values, values.size()));
      SQLFLOW_RETURN_IF_ERROR(table->Insert(row, db_->active_undo()));
      ++inserted;
      SQLFLOW_RETURN_IF_ERROR(db_->ConsultMidStatementFault(
          "row " + std::to_string(inserted)));
    }
  }
  db_->MutableStats()->rows_written += static_cast<uint64_t>(inserted);
  if (ExecProfile* prof = db_->exec_profile()) {
    ExecProfileOp& op = prof->Add("INSERT", ins.table_name);
    op.rows_in = op.rows_out = static_cast<uint64_t>(inserted);
    op.loops = 1;
  }
  ResultSet rs;
  rs.set_affected_rows(inserted);
  return rs;
}

Result<ResultSet> Executor::ExecuteUpdate(const UpdateStatement& upd,
                                          const Params& params,
                                          const StatementPlan* plan) {
  SQLFLOW_ASSIGN_OR_RETURN(Table * table,
                           db_->catalog().GetTable(upd.table_name));
  // Whole-statement conflict gate: UPDATE enumerates raw row slots, so
  // another transaction's pending (uncommitted) rows would be visible
  // to its WHERE. Refuse with a transient status and let the retry
  // layers replay once the in-flight transaction resolves.
  if (db_->concurrent_mode() &&
      table->HasPendingWriterOther(db_->ReaderTxnId())) {
    return Status::Deadlock("table '" + upd.table_name +
                            "' has in-flight changes from another "
                            "transaction");
  }
  const TableSchema& schema = table->schema();

  std::vector<std::pair<size_t, const Expr*>> assignments;
  for (const auto& [col, expr] : upd.assignments) {
    int idx = schema.FindColumn(col);
    if (idx < 0) {
      return Status::NotFound("no column '" + col + "' in table '" +
                              upd.table_name + "'");
    }
    assignments.emplace_back(static_cast<size_t>(idx), expr.get());
  }

  std::vector<ScopeColumn> columns;
  for (const ColumnDef& col : schema.columns()) {
    columns.push_back({upd.table_name, col.name});
  }
  Row current;
  ScopeBinding binding(&columns, &current);
  EvalContext ctx;
  ctx.binding = &binding;
  ctx.params = &params;
  ctx.database = db_;

  // Two passes: find matching indexes, then apply (stable positions).
  std::optional<ResolvedAccess> candidates =
      ResolveCandidates(table, upd.table_name, upd.where.get(), plan,
                        params);
  std::vector<size_t> matches;
  if (candidates.has_value()) {
    for (size_t i : candidates->slots) {
      current = table->rows()[i];
      SQLFLOW_ASSIGN_OR_RETURN(Value cond, EvaluateExpr(*upd.where, ctx));
      if (IsTrue(cond)) matches.push_back(i);
    }
    db_->MutableStats()->rows_read += candidates->slots.size();
  } else {
    for (size_t i = 0; i < table->row_count(); ++i) {
      current = table->rows()[i];
      if (upd.where != nullptr) {
        SQLFLOW_ASSIGN_OR_RETURN(Value cond,
                                 EvaluateExpr(*upd.where, ctx));
        if (!IsTrue(cond)) continue;
      }
      matches.push_back(i);
    }
    db_->MutableStats()->rows_read += table->row_count();
  }

  // Pre-bind every written value before the first mutation: all
  // assignment expressions evaluate against pre-statement state, so a
  // self-reading SET (`x = x + 1`) never observes this statement's own
  // partial writes — and a replay after a mid-statement rollback
  // recomputes identical values, which is what lets
  // IsReplaySafeStatement accept UPDATE unconditionally.
  std::vector<Row> updated_rows;
  updated_rows.reserve(matches.size());
  for (size_t idx : matches) {
    current = table->rows()[idx];
    Row updated = current;
    for (const auto& [col_idx, expr] : assignments) {
      SQLFLOW_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*expr, ctx));
      updated[col_idx] = std::move(v);
    }
    updated_rows.push_back(std::move(updated));
  }
  size_t mutated = 0;
  for (size_t k = 0; k < matches.size(); ++k) {
    SQLFLOW_RETURN_IF_ERROR(table->Update(matches[k], updated_rows[k],
                                          db_->active_undo()));
    // Mid-statement fault site: "after N rows mutated".
    SQLFLOW_RETURN_IF_ERROR(db_->ConsultMidStatementFault(
        "row " + std::to_string(++mutated)));
  }
  db_->MutableStats()->rows_written += matches.size();
  if (ExecProfile* prof = db_->exec_profile()) {
    ExecProfileOp& op = prof->Add("UPDATE", upd.table_name);
    op.rows_in = candidates.has_value() ? candidates->slots.size()
                                        : table->row_count();
    op.rows_out = matches.size();
    op.loops = 1;
  }
  ResultSet rs;
  rs.set_affected_rows(static_cast<int64_t>(matches.size()));
  return rs;
}

Result<ResultSet> Executor::ExecuteDelete(const DeleteStatement& del,
                                          const Params& params,
                                          const StatementPlan* plan) {
  SQLFLOW_ASSIGN_OR_RETURN(Table * table,
                           db_->catalog().GetTable(del.table_name));
  // Same whole-statement conflict gate as UPDATE: a raw-slot sweep must
  // not act on rows another open transaction has pending.
  if (db_->concurrent_mode() &&
      table->HasPendingWriterOther(db_->ReaderTxnId())) {
    return Status::Deadlock("table '" + del.table_name +
                            "' has in-flight changes from another "
                            "transaction");
  }
  std::vector<ScopeColumn> columns;
  for (const ColumnDef& col : table->schema().columns()) {
    columns.push_back({del.table_name, col.name});
  }
  Row current;
  ScopeBinding binding(&columns, &current);
  EvalContext ctx;
  ctx.binding = &binding;
  ctx.params = &params;
  ctx.database = db_;

  std::optional<ResolvedAccess> candidates =
      ResolveCandidates(table, del.table_name, del.where.get(), plan,
                        params);
  std::vector<size_t> matches;
  if (candidates.has_value()) {
    for (size_t i : candidates->slots) {
      current = table->rows()[i];
      SQLFLOW_ASSIGN_OR_RETURN(Value cond, EvaluateExpr(*del.where, ctx));
      if (IsTrue(cond)) matches.push_back(i);
    }
    db_->MutableStats()->rows_read += candidates->slots.size();
  } else {
    for (size_t i = 0; i < table->row_count(); ++i) {
      current = table->rows()[i];
      if (del.where != nullptr) {
        SQLFLOW_ASSIGN_OR_RETURN(Value cond,
                                 EvaluateExpr(*del.where, ctx));
        if (!IsTrue(cond)) continue;
      }
      matches.push_back(i);
    }
    db_->MutableStats()->rows_read += table->row_count();
  }

  // Delete back-to-front so earlier indexes stay valid.
  size_t deleted = 0;
  for (auto it = matches.rbegin(); it != matches.rend(); ++it) {
    SQLFLOW_RETURN_IF_ERROR(table->Delete(*it, db_->active_undo()));
    SQLFLOW_RETURN_IF_ERROR(db_->ConsultMidStatementFault(
        "row " + std::to_string(++deleted)));
  }
  db_->MutableStats()->rows_written += matches.size();
  if (ExecProfile* prof = db_->exec_profile()) {
    ExecProfileOp& op = prof->Add("DELETE", del.table_name);
    op.rows_in = candidates.has_value() ? candidates->slots.size()
                                        : table->row_count() + deleted;
    op.rows_out = matches.size();
    op.loops = 1;
  }
  ResultSet rs;
  rs.set_affected_rows(static_cast<int64_t>(matches.size()));
  return rs;
}

Result<ResultSet> Executor::ExecuteCall(const CallStatement& call,
                                        const Params& params) {
  EvalContext ctx;
  ctx.params = &params;
  ctx.database = db_;
  std::vector<Value> args;
  for (const ExprPtr& e : call.arguments) {
    SQLFLOW_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, ctx));
    args.push_back(std::move(v));
  }
  return db_->CallProcedure(call.procedure_name, args);
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

Result<ResultSet> Executor::Execute(const Statement& stmt,
                                    const Params& params,
                                    const StatementPlan* plan) {
  db_->MutableStats()->statements_executed++;
  // A memoized plan is only trusted at the epoch it was computed for;
  // otherwise the executor plans inline.
  if (plan != nullptr && plan->schema_epoch != db_->schema_epoch()) {
    plan = nullptr;
  }
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(*stmt.select, params, plan);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert, params);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update, params, plan);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del, params, plan);
    case StatementKind::kCall:
      return ExecuteCall(*stmt.call, params);
    case StatementKind::kExplain:
      return ExecuteExplain(db_, *stmt.explain, params);

    case StatementKind::kCreateTable: {
      const CreateTableStatement& ct = *stmt.create_table;
      if (ct.if_not_exists &&
          db_->catalog().FindTable(ct.table_name) != nullptr) {
        return ResultSet();
      }
      std::vector<ColumnDef> columns;
      for (const ColumnDefAst& ast_col : ct.columns) {
        ColumnDef col;
        col.name = ast_col.name;
        col.type = ast_col.type;
        col.not_null = ast_col.not_null;
        col.primary_key = ast_col.primary_key;
        if (ast_col.default_value != nullptr) {
          // Defaults are constants, evaluated once at definition time.
          EvalContext ctx;
          ctx.params = &params;
          ctx.database = db_;
          SQLFLOW_ASSIGN_OR_RETURN(
              Value v, EvaluateExpr(*ast_col.default_value, ctx));
          col.default_value = std::move(v);
        }
        columns.push_back(std::move(col));
      }
      TableSchema schema(ct.table_name, std::move(columns));
      for (const ExprPtr& check : ct.checks) {
        schema.AddCheckConstraint(check->ToString());
      }
      SQLFLOW_RETURN_IF_ERROR(
          db_->catalog().CreateTable(std::move(schema)));
      db_->BumpSchemaEpoch();
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kCreateTable;
        e.table_name = ct.table_name;
        db_->active_undo()->Record(std::move(e));
      }
      return ResultSet();
    }

    case StatementKind::kDropTable: {
      const DropTableStatement& dt = *stmt.drop_table;
      Table* table = db_->catalog().FindTable(dt.table_name);
      if (table == nullptr) {
        if (dt.if_exists) return ResultSet();
        return Status::NotFound("no table '" + dt.table_name + "'");
      }
      // DDL is not versioned: dropping a table out from under another
      // transaction's pending rows would strand its version state.
      // Refuse transiently until the in-flight transaction resolves.
      if (db_->concurrent_mode() &&
          table->HasPendingWriterOther(db_->ReaderTxnId())) {
        return Status::Deadlock("table '" + dt.table_name +
                                "' has in-flight changes from another "
                                "transaction");
      }
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kDropTable;
        e.table_name = dt.table_name;
        e.saved_schema = table->schema();
        e.saved_rows = table->rows();
        e.saved_indexes = db_->catalog().IndexesOnTable(dt.table_name);
        db_->active_undo()->Record(std::move(e));
      }
      db_->InvalidatePlans(dt.table_name);
      db_->BumpSchemaEpoch();
      return db_->catalog().DropTable(dt.table_name).ok()
                 ? Result<ResultSet>(ResultSet())
                 : Result<ResultSet>(
                       Status::Internal("drop failed after lookup"));
    }

    case StatementKind::kTruncate: {
      SQLFLOW_ASSIGN_OR_RETURN(
          Table * table, db_->catalog().GetTable(stmt.truncate->table_name));
      if (table->read_only()) {
        return Status::InvalidArgument("table '" +
                                       stmt.truncate->table_name +
                                       "' is read-only");
      }
      // TRUNCATE wipes version state wholesale (it is not versioned);
      // refuse transiently while another transaction has pending rows.
      if (db_->concurrent_mode() &&
          table->HasPendingWriterOther(db_->ReaderTxnId())) {
        return Status::Deadlock("table '" + stmt.truncate->table_name +
                                "' has in-flight changes from another "
                                "transaction");
      }
      int64_t removed = static_cast<int64_t>(table->row_count());
      table->Clear(db_->active_undo());
      db_->InvalidatePlans(stmt.truncate->table_name);
      ResultSet rs;
      rs.set_affected_rows(removed);
      return rs;
    }

    case StatementKind::kCreateIndex: {
      const CreateIndexStatement& ci = *stmt.create_index;
      SQLFLOW_ASSIGN_OR_RETURN(Table * table,
                               db_->catalog().GetTable(ci.table_name));
      SQLFLOW_RETURN_IF_ERROR(
          table->AddSecondaryIndex(ci.index_name, ci.columns, ci.unique));
      IndexInfo info;
      info.name = ci.index_name;
      info.table_name = ci.table_name;
      info.columns = ci.columns;
      info.unique = ci.unique;
      Status st = db_->catalog().CreateIndex(info);
      if (!st.ok()) {
        (void)table->DropSecondaryIndex(ci.index_name);
        return st;
      }
      db_->BumpSchemaEpoch();
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kCreateIndex;
        e.table_name = ci.index_name;
        e.index_table = ci.table_name;
        db_->active_undo()->Record(std::move(e));
      }
      return ResultSet();
    }

    case StatementKind::kDropIndex: {
      const DropIndexStatement& di = *stmt.drop_index;
      const IndexInfo* found = db_->catalog().FindIndex(di.index_name);
      if (found == nullptr) {
        if (di.if_exists) return ResultSet();
        return Status::NotFound("no index '" + di.index_name + "'");
      }
      IndexInfo info = *found;  // catalog entry dies below
      SQLFLOW_ASSIGN_OR_RETURN(Table * table,
                               db_->catalog().GetTable(info.table_name));
      SQLFLOW_RETURN_IF_ERROR(table->DropSecondaryIndex(info.name));
      SQLFLOW_RETURN_IF_ERROR(db_->catalog().DropIndex(info.name));
      // Cached plans may name the dropped index; epoch bump forces a
      // replan (IndexCandidates would also decline, but replanning can
      // pick a different index).
      db_->BumpSchemaEpoch();
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kDropIndex;
        e.table_name = info.name;
        e.index_table = info.table_name;
        e.saved_indexes.push_back(std::move(info));
        db_->active_undo()->Record(std::move(e));
      }
      return ResultSet();
    }

    case StatementKind::kCreateView: {
      CreateViewStatement& cv = *stmt.create_view;
      SQLFLOW_RETURN_IF_ERROR(db_->catalog().CreateView(
          cv.view_name, CloneSelect(*cv.select)));
      db_->BumpSchemaEpoch();
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kCreateView;
        e.table_name = cv.view_name;
        db_->active_undo()->Record(std::move(e));
      }
      return ResultSet();
    }

    case StatementKind::kDropView: {
      const DropViewStatement& dv = *stmt.drop_view;
      if (db_->catalog().FindView(dv.view_name) == nullptr) {
        if (dv.if_exists) return ResultSet();
        return Status::NotFound("no view '" + dv.view_name + "'");
      }
      std::unique_ptr<SelectStatement> saved =
          db_->catalog().TakeView(dv.view_name);
      db_->BumpSchemaEpoch();
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kDropView;
        e.table_name = dv.view_name;
        e.saved_view = std::move(saved);
        db_->active_undo()->Record(std::move(e));
      }
      return ResultSet();
    }

    case StatementKind::kCreateSequence: {
      const CreateSequenceStatement& cs = *stmt.create_sequence;
      SQLFLOW_RETURN_IF_ERROR(
          db_->catalog().CreateSequence(cs.sequence_name, cs.start_with));
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kCreateSequence;
        e.table_name = cs.sequence_name;
        db_->active_undo()->Record(std::move(e));
      }
      return ResultSet();
    }

    case StatementKind::kDropSequence: {
      const DropSequenceStatement& ds = *stmt.drop_sequence;
      Sequence* seq = db_->catalog().FindSequence(ds.sequence_name);
      if (seq == nullptr) {
        if (ds.if_exists) return ResultSet();
        return Status::NotFound("no sequence '" + ds.sequence_name + "'");
      }
      if (db_->active_undo() != nullptr) {
        UndoEntry e;
        e.kind = UndoEntry::Kind::kDropSequence;
        e.table_name = ds.sequence_name;
        e.sequence_value = seq->next_value;
        db_->active_undo()->Record(std::move(e));
      }
      SQLFLOW_RETURN_IF_ERROR(
          db_->catalog().DropSequence(ds.sequence_name));
      return ResultSet();
    }

    case StatementKind::kBegin:
      SQLFLOW_RETURN_IF_ERROR(db_->Begin());
      return ResultSet();
    case StatementKind::kCommit:
      SQLFLOW_RETURN_IF_ERROR(db_->Commit());
      return ResultSet();
    case StatementKind::kRollback:
      SQLFLOW_RETURN_IF_ERROR(db_->Rollback());
      return ResultSet();
  }
  return Status::Internal("bad statement kind");
}

}  // namespace sqlflow::sql
