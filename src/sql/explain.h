#ifndef SQLFLOW_SQL_EXPLAIN_H_
#define SQLFLOW_SQL_EXPLAIN_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/eval.h"
#include "sql/result_set.h"
#include "sql/schema.h"

namespace sqlflow::sql {

class Database;

// ---------------------------------------------------------------------------
// Shared plan-decision helpers
// ---------------------------------------------------------------------------
// The executor and EXPLAIN both call these, so the rendered plan cannot
// drift from the decisions execution actually makes. Decisions that
// depend on the *data* (hash-join key comparability, build side,
// pushdown abandonment on a mid-scan error) stay runtime-only; EXPLAIN
// reports the static choice and EXPLAIN ANALYZE reports what really ran.

/// One column visible in a FROM scope: the table alias (or name) it is
/// reachable through, plus its column name.
struct ScopeColumnRef {
  std::string qualifier;
  std::string name;
};

/// Output-column name for a select item without an alias: a column's
/// name, a function's name, else "col<ordinal+1>".
std::string DeriveOutputColumnName(const Expr& e, size_t ordinal);

/// Scope ordinal of a column reference, mirroring the executor's
/// ScopeBinding resolution; -1 when absent or ambiguous.
int FindScopeColumnIndex(const std::vector<ScopeColumnRef>& cols,
                         const Expr& e);

/// Equality conjuncts of a join condition that pair a left-scope column
/// (ordinal < left_width) with a right-side column, as (left ordinal,
/// right-relative ordinal) pairs — the hash-join key set.
std::vector<std::pair<size_t, size_t>> ExtractEquiJoinKeys(
    const Expr& join_condition, const std::vector<ScopeColumnRef>& columns,
    size_t left_width);

/// Whether pushdown below the join is structurally sound for this table
/// reference: not the right side of a LEFT OUTER join, and its
/// qualifier names exactly one FROM entry.
bool PushdownAllowed(const SelectStatement& sel, size_t ref_index);

/// WHERE conjuncts that mention only `qual`'s columns (explicitly
/// qualified) and can never raise a TypeError the un-pushed WHERE would
/// have short-circuited past — the set TryPushdownSlots evaluates below
/// the join.
std::vector<const Expr*> CollectPushableConjuncts(
    const TableSchema& schema, const std::string& qual,
    const SelectStatement& sel);

/// AND-combines conjuncts into one owned expression (nullptr when empty).
ExprPtr CombineConjuncts(const std::vector<const Expr*>& conjuncts);

/// Maps each ORDER BY item of a single-base-table SELECT to a schema
/// column ordinal (see executor: ORDER BY elision). False when the sort
/// cannot be satisfied by an index traversal; on success `descending`
/// (when non-null) reports the uniform direction — all-descending
/// orders use a reversed walk, mixed directions are never sargable.
bool OrderBySargColumns(const SelectStatement& sel, const std::string& qual,
                        const TableSchema& schema, std::vector<size_t>* out,
                        bool* descending = nullptr);

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// Executes EXPLAIN [ANALYZE] <target>. Plain EXPLAIN renders the
/// statically chosen plan as a one-column ("PLAN") result set without
/// running the target. ANALYZE runs the target with an ExecProfile
/// installed and renders one row per executed operator (OP, DETAIL,
/// ROWS_IN, ROWS_OUT, LOOPS, TIME_NS, BATCHES) plus a final RESULT row.
Result<ResultSet> ExecuteExplain(Database* db,
                                 const ExplainStatement& explain,
                                 const Params& params);

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_EXPLAIN_H_
