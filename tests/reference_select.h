#ifndef SQLFLOW_TESTS_REFERENCE_SELECT_H_
#define SQLFLOW_TESTS_REFERENCE_SELECT_H_

#include <string_view>

#include "sql/database.h"

namespace sqlflow::sql {

/// A deliberately naive SELECT evaluator: the oracle differential tests
/// hold the executor to. Full scans of `Table::rows()`, nested-loop
/// INNER/LEFT joins (an unmatched left row padded right after its
/// pairs), WHERE / GROUP BY / HAVING / outputs row at a time through
/// EvaluateExpr, groups by linear search in first-seen order, then
/// DISTINCT, a stable ORDER BY (expression, output name or ordinal),
/// OFFSET and LIMIT. No index, hash table, vectorized kernel or executor
/// FROM/join/group/sort code. Anything else (derived tables, views,
/// UNION, non-SELECT) is an error, so a test needing more fails loudly.
/// Reads raw row vectors: use it while no transaction has pending writes.
Result<ResultSet> ReferenceSelect(Database* db, std::string_view sql,
                                  const Params& params = Params());

}  // namespace sqlflow::sql

#endif  // SQLFLOW_TESTS_REFERENCE_SELECT_H_
