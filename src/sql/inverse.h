#ifndef SQLFLOW_SQL_INVERSE_H_
#define SQLFLOW_SQL_INVERSE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/eval.h"
#include "sql/transaction.h"

namespace sqlflow::sql {

class Database;

/// One compensating statement: parameterized SQL plus positional
/// bindings, ready for Database::Execute. Generated, never hand-written
/// — the SQL text doubles as the audit-trail record of what the
/// compensation did.
struct InverseStatement {
  std::string sql;
  Params params;
};

/// Turns effects captured at execution time (Database::
/// set_capture_effects + TakeCapturedEffects) into the compensation
/// program that undoes them on a *committed* database:
///
///   INSERT → DELETE keyed by the table's first unique index
///            (primary key), falling back to all columns when the table
///            has none; NULL key values compare with IS NULL;
///   DELETE → re-INSERT of the captured row;
///   UPDATE → UPDATE restoring every captured old value, keyed by the
///            *new* row (that is what the committed table contains);
///   TRUNCATE → re-INSERT of every captured row, in order;
///   CREATE TABLE/SEQUENCE/INDEX/VIEW → the corresponding DROP.
///
/// Statements are emitted in reverse execution order, so applying them
/// front-to-back unwinds the step the way a rollback would have.
/// Sequence advances are deliberately *not* inverted: burned sequence
/// numbers stay burned, matching every surveyed product. DROP effects
/// are refused (recreating a dropped object belongs to DDL migration,
/// not compensation).
///
/// Caveat (documented, not fixed): with the all-columns fallback on a
/// keyless table holding duplicate rows, the DELETE inverse of an
/// INSERT removes every duplicate, not just one.
Result<std::vector<InverseStatement>> BuildInverseStatements(
    const Database& db, const std::vector<UndoEntry>& effects);

/// Runs a compensation program front-to-back; stops at the first error.
Status ApplyInverseStatements(Database& db,
                              const std::vector<InverseStatement>& program);

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_INVERSE_H_
