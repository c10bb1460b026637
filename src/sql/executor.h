#ifndef SQLFLOW_SQL_EXECUTOR_H_
#define SQLFLOW_SQL_EXECUTOR_H_

#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/eval.h"
#include "sql/explain.h"
#include "sql/key_hash.h"
#include "sql/planner.h"
#include "sql/result_set.h"

namespace sqlflow::sql {

class Database;
class Table;

/// Aggregate accumulation. One AggState streams one aggregate's argument
/// values over one group; `failed` keeps the first error (evaluating the
/// argument, or SUM/AVG over a non-numeric value), which FinishAggregate
/// returns.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax, kOther };
AggKind AggKindOf(const std::string& fn);

struct AggState {
  int64_t count = 0;
  DistinctValues distinct_seen;
  bool have = false;
  Value acc;           // MIN/MAX accumulator
  int64_t sum_i = 0;   // integer SUM
  double sum_d = 0.0;  // double SUM
  bool all_int = true;
  bool failed = false;
  Status error;
};

/// Feeds one argument value (NULLs and repeated DISTINCT values skip).
void FeedValue(AggState* st, AggKind kind, bool distinct, const Value& v);
/// True for COUNT(*) and argument-less calls, which read no values.
bool AggregateTakesNoValues(const Expr& agg);
/// The aggregate over a group of `group_size` rows, or the first error
/// its accumulation kept.
Result<Value> FinishAggregate(const Expr& agg, const AggState& st,
                              int64_t group_size);

/// One select-list output: an expression, or a scope column passed
/// through (expr == nullptr, from a star).
struct SelectOutput {
  const Expr* expr = nullptr;
  size_t scope_index = 0;
  std::string name;
};

/// A projected row plus its ORDER BY keys.
struct SortableRow {
  Row output;
  std::vector<Value> sort_keys;
};

/// Statement interpreter. Stateless apart from the owning database; one
/// executor per database, invoked through Database::Execute.
class Executor {
 public:
  explicit Executor(Database* db) : db_(db) {}

  /// `plan` is an optional memoized access-path plan for `stmt` (the
  /// executor plans inline when it is null).
  Result<ResultSet> Execute(const Statement& stmt, const Params& params,
                            const StatementPlan* plan = nullptr);

  /// Runs a SELECT (including any UNION chain); public so subquery
  /// evaluation can reuse it without re-wrapping into a Statement.
  Result<ResultSet> ExecuteSelect(const SelectStatement& sel,
                                  const Params& params,
                                  const StatementPlan* plan = nullptr);

 private:
  /// One SELECT body, ignoring `union_next`: the columnar pipeline
  /// (defined in vec_exec.cc), processed in kBatchCapacity windows with
  /// per-window fallback to scalar evaluation.
  Result<ResultSet> ExecuteSelectCore(const SelectStatement& sel,
                                      const Params& params,
                                      const StatementPlan* plan);
  /// The select list of one SELECT body: stars expanded over
  /// `columns`, outputs named, grouping detected, and each ORDER BY item
  /// mapped to the output it names (alias, name or ordinal; -1 means
  /// evaluate it in scope).
  struct SelectShape {
    std::vector<SelectOutput> outputs;
    bool grouped = false;
    std::vector<const Expr*> aggs;  // grouped: aggregate nodes, tree order
    std::vector<int> order_output_index;
  };
  static Result<SelectShape> ShapeSelect(
      const SelectStatement& sel, const std::vector<ScopeColumnRef>& columns);
  /// One group's output row: HAVING, then the outputs and ORDER BY keys
  /// into `produced`, with `agg_values` standing in for the aggregate
  /// nodes and `rep` binding the group's first row (nullptr for a group
  /// without rows). A passed-through scope column reads `column(i)`.
  template <typename ColumnAt>
  Status EmitGroup(const SelectStatement& sel, const SelectShape& shape,
                   const Params& params,
                   const std::map<const Expr*, Value>& agg_values,
                   const RowBinding* rep, const ColumnAt& column,
                   std::vector<SortableRow>* produced) {
    EvalContext ctx;
    ctx.binding = rep;
    ctx.params = &params;
    ctx.database = db_;
    ctx.node_override = [&agg_values](const Expr& e) -> std::optional<Value> {
      auto it = agg_values.find(&e);
      if (it == agg_values.end()) return std::nullopt;
      return it->second;
    };
    if (sel.having != nullptr) {
      SQLFLOW_ASSIGN_OR_RETURN(Value cond, EvaluateExpr(*sel.having, ctx));
      if (!IsTrue(cond)) return Status::OK();
    }
    SortableRow out_row;
    out_row.output.reserve(shape.outputs.size());
    for (const SelectOutput& out : shape.outputs) {
      if (out.expr != nullptr) {
        SQLFLOW_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*out.expr, ctx));
        out_row.output.push_back(std::move(v));
      } else if (rep != nullptr) {
        out_row.output.push_back(column(out.scope_index));
      } else {
        return Status::ExecutionError(
            "cannot select columns from an empty group");
      }
    }
    for (size_t i = 0; i < sel.order_by.size(); ++i) {
      const int o = shape.order_output_index[i];
      if (o >= 0) {
        out_row.sort_keys.push_back(out_row.output[static_cast<size_t>(o)]);
      } else {
        SQLFLOW_ASSIGN_OR_RETURN(Value v,
                                 EvaluateExpr(*sel.order_by[i].expr, ctx));
        out_row.sort_keys.push_back(std::move(v));
      }
    }
    produced->push_back(std::move(out_row));
    return Status::OK();
  }
  /// Records the AGGREGATE profile operator of a grouped SELECT.
  void RecordAggregate(const SelectStatement& sel, size_t rows_in,
                       size_t rows_out, uint64_t batches, int64_t start);
  /// The stages after projection: DISTINCT, ORDER BY (skipped when
  /// `presorted` by index order), OFFSET/LIMIT.
  ResultSet FinishSelect(const SelectStatement& sel, const SelectShape& shape,
                         bool presorted, std::vector<SortableRow> produced);

  Result<ResultSet> ExecuteInsert(const InsertStatement& ins,
                                  const Params& params);
  Result<ResultSet> ExecuteUpdate(const UpdateStatement& upd,
                                  const Params& params,
                                  const StatementPlan* plan);
  Result<ResultSet> ExecuteDelete(const DeleteStatement& del,
                                  const Params& params,
                                  const StatementPlan* plan);
  Result<ResultSet> ExecuteCall(const CallStatement& call,
                                const Params& params);

  /// Result of ResolveCandidates: candidate row slots plus whether they
  /// come back in the order of an index matching the caller's desired
  /// sort (so the caller may skip its ORDER BY sort). When key_ordered
  /// is false the slots ascend (table order).
  struct ResolvedAccess {
    std::vector<size_t> slots;
    bool key_ordered = false;
  };

  /// Runs the SELECT behind a FROM reference that is a derived table or
  /// a view into `columns` (qualified by `qual`) and `rows`, recording its
  /// profile operator. NotFound when `ref` names no view.
  Status ExecuteSubqueryRef(const TableRef& ref, const std::string& qual,
                            const Params& params,
                            std::vector<ScopeColumnRef>* columns,
                            std::vector<Row>* rows);

  /// Resolves the WHERE clause of a single-table statement to candidate
  /// row slots through `plan` (or inline planning when plan is null).
  /// nullopt ⇒ scan. Notes the plan choice either way. `desired_order`,
  /// when set, names the schema columns of a uniform-direction ORDER BY
  /// the caller would like satisfied by index order (`desired_desc`
  /// gives the direction); an exact match against an ordered index
  /// yields key_ordered slots (possibly a full sorted traversal when
  /// the WHERE has nothing sargable), walked in reverse for descending
  /// orders.
  std::optional<ResolvedAccess> ResolveCandidates(
      Table* table, const std::string& alias, const Expr* where,
      const StatementPlan* plan, const Params& params,
      const std::vector<size_t>* desired_order = nullptr,
      bool desired_desc = false);

  /// Pushes the single-table conjuncts of `sel.where` that mention only
  /// `qual`'s columns below the join: fills `out_slots` with the slots of
  /// `table` passing them, in table order (using an index when one
  /// matches), and returns true. Returns false — leaving `out_slots`
  /// untouched — when nothing is pushable, pushdown would be unsound
  /// (right side of a LEFT OUTER join, ambiguous alias), or a pushed
  /// conjunct errors on some row (the un-pushed WHERE must surface that
  /// error itself).
  bool TryPushdownSlots(Table* table, const std::string& qual,
                        const SelectStatement& sel, size_t ref_index,
                        const Params& params,
                        std::vector<size_t>* out_slots);

  static constexpr int kMaxViewDepth = 16;

  Database* db_;
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_EXECUTOR_H_
