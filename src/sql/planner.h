#ifndef SQLFLOW_SQL_PLANNER_H_
#define SQLFLOW_SQL_PLANNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/eval.h"

namespace sqlflow::sql {

class Database;
class Table;

/// Access paths the executor can take; bitmask values so one statement's
/// trace span can report every choice made during its execution.
enum class PlanChoice : unsigned {
  kScan = 1u,
  kIndexLookup = 2u,
  kHashJoin = 4u,
  kRangeScan = 8u,
  kPushdown = 16u,
  kBatch = 32u,  // SELECT core ran the columnar batch pipeline
};

/// An equality/IN access path against one base table: the planner proved
/// that every row satisfying the WHERE clause carries one of finitely
/// many index keys. The executor re-evaluates the full WHERE on every
/// candidate row, so normalized-key collisions cost time, never
/// correctness — only a *missing* candidate would be a bug.
struct IndexLookupPlan {
  std::string table_name;
  std::string index_name;
  /// Schema ordinals in index-column order, paired with `key_values`.
  std::vector<size_t> key_columns;
  /// Literal/parameter probe per key column (non-owning pointers into
  /// the planned statement, which must outlive the plan). Empty when
  /// `in_list` is set.
  std::vector<const Expr*> key_values;
  /// Single-column IN probe: children[0] is the column, children[1..]
  /// the list elements. Null for plain equality plans.
  const Expr* in_list = nullptr;
};

/// One endpoint of a range-scan interval. The probe expression is
/// evaluated at execution time. `raw_compare` marks bounds lifted from
/// BETWEEN, whose evaluation uses Value::Compare directly (no numeric
/// coercion, never a TypeError); `<`/`<=`/`>`/`>=` bounds follow the
/// coercing Comparison() rules and are class-gated at execution.
struct RangeBound {
  const Expr* probe = nullptr;  // null ⇒ unbounded on this side
  bool inclusive = false;
  bool raw_compare = false;
};

/// A bounded scan over an ordered index: equality probes pin the leading
/// `prefix_values.size()` key columns, and the range bounds (or LIKE
/// prefix) then constrain the next key column. The executor walks index
/// entries between the bounds and re-evaluates the full WHERE per
/// candidate, so the interval only has to be a superset of the matching
/// rows. A plan with a non-empty prefix and no bounds at all is a pure
/// prefix probe (`WHERE a = 1` against an index on (a, b)).
struct RangeScanPlan {
  std::string table_name;
  std::string index_name;
  /// Full index key (schema ordinals), for validation at execution.
  std::vector<size_t> key_columns;
  /// Equality probes for key_columns[0 .. prefix_values.size()-1]
  /// (non-owning pointers into the planned statement).
  std::vector<const Expr*> prefix_values;
  /// The bounded column; always key_columns[prefix_values.size()].
  size_t column = 0;
  RangeBound lower;
  RangeBound upper;
  /// Prefix LIKE: bounds derive from the pattern's literal prefix at
  /// execution time (the pattern may be a parameter). Mutually exclusive
  /// with lower/upper probes.
  const Expr* like_pattern = nullptr;
};

/// Cached planning result for one statement, validated against the
/// database's schema epoch (any DDL — including DDL undone by rollback —
/// bumps the epoch and forces a replan). At most one of has_access /
/// has_range is set: the planner keeps the path with the lower estimated
/// cost.
struct StatementPlan {
  uint64_t schema_epoch = 0;
  bool has_access = false;
  IndexLookupPlan access;
  bool has_range = false;
  RangeScanPlan range;
};

/// Flattens nested ANDs: `a AND (b AND c)` → {a, b, c}. Any non-AND
/// expression (including OR trees) is one conjunct.
void SplitConjuncts(const Expr& e, std::vector<const Expr*>* out);

/// Extracts a sargable access path from `where` for a single-table scope
/// whose rows come from `table` under qualifier `alias`. Returns nullopt
/// when no index covers the equality/IN conjuncts, or when probe/column
/// types could change error behavior versus a scan.
std::optional<IndexLookupPlan> PlanTableAccess(const Table& table,
                                               const std::string& alias,
                                               const Expr* where);

/// Extracts a bounded range scan from `where`. Equality conjuncts may
/// pin a leading prefix of an ordered index's key columns; the first
/// unpinned key column is then bounded by `<`/`<=`/`>`/`>=`, BETWEEN, or
/// prefix-LIKE conjuncts (or left unbounded when the prefix alone is
/// selective). Returns nullopt when nothing is range-sargable.
std::optional<RangeScanPlan> PlanTableRange(const Table& table,
                                            const std::string& alias,
                                            const Expr* where);

/// Expected candidate row count under the row-count cost model: a unique
/// full-key match costs 1, a non-unique lookup rows/distinct-keys (an IN
/// list multiplies by its length), a range scan a fixed fraction of the
/// table — 1/4 per equality-prefix column, times 1/4 when bounded on
/// both sides or prefix-LIKE, 1/3 when half-bounded, 1 for a pure
/// prefix probe.
double EstimateLookupCost(const Table& table, const IndexLookupPlan& plan);
double EstimateRangeCost(const Table& table, const RangeScanPlan& plan);

/// Plans both access paths for one table scope and keeps the cheaper one
/// in `plan` (equality wins ties: point lookups touch fewer rows per
/// candidate).
void ChooseAccessPath(const Table& table, const std::string& alias,
                      const Expr* where, StatementPlan* plan);

/// True for literal/parameter expressions usable as index probes.
bool IsProbeExpr(const Expr& e);

/// Plan-time type gate: comparing this probe against any value the
/// column can store never raises a TypeError. Parameters pass here and
/// are re-gated at execution time against their actual value.
bool ProbeExprCompatible(ValueType column_type, const Expr& e);

/// Plans the top-level statement (single-table SELECT/UPDATE/DELETE);
/// other kinds yield an empty plan stamped with the current epoch.
StatementPlan PlanStatement(const Statement& stmt, Database* db);

/// Evaluates the plan's probe expressions and collects candidate row
/// slots (ascending, deduplicated). nullopt ⇒ fall back to a scan (probe
/// type mismatch, evaluation failure, vanished index); an engaged empty
/// vector means provably zero matching rows (e.g. a NULL probe).
std::optional<std::vector<size_t>> IndexCandidates(
    const Table& table, const IndexLookupPlan& plan, const Params& params,
    Database* db);

/// Evaluates the range plan's bounds and walks the ordered index between
/// them. Slots come back in *index-key order* (ascending key, ascending
/// slot within a key; `reverse` flips the key order but keeps slots
/// ascending within a key, which is exactly what a descending stable
/// sort would produce) — callers must re-sort to table order unless they
/// are deliberately consuming the key order (ORDER BY elision). nullopt
/// ⇒ fall back to a scan; an engaged empty vector means provably zero
/// matching rows (e.g. a NULL bound).
std::optional<std::vector<size_t>> RangeCandidates(const Table& table,
                                                   const RangeScanPlan& plan,
                                                   const Params& params,
                                                   Database* db,
                                                   bool reverse = false);

/// Upper-cased, deduplicated names of every table the statement mentions
/// (FROM refs, DML targets, subqueries) — used by the plan cache to drop
/// entries when DROP TABLE / TRUNCATE hits one of them.
std::vector<std::string> CollectReferencedTables(const Statement& stmt);

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_PLANNER_H_
