#ifndef SQLFLOW_SQL_PROFILE_H_
#define SQLFLOW_SQL_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sqlflow::sql {

/// One executed plan operator, as reported by EXPLAIN ANALYZE. `loops`
/// counts how many times the operator ran (e.g. an index probe per
/// outer row); rows_in/rows_out are totals across all loops.
struct ExecProfileOp {
  std::string op;      // "SCAN", "INDEX LOOKUP", "HASH JOIN", ...
  std::string detail;  // table/index/predicate description
  int depth = 0;       // rendering indent (join inputs nest one deeper)
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t loops = 0;
  /// kBatchCapacity windows the operator processed (0 for operators
  /// that do not run windowed, such as access paths and SORT).
  uint64_t batches = 0;
  int64_t elapsed_ns = 0;
};

/// Per-statement operator trace filled in by the executor while a
/// profile is installed on the database (EXPLAIN ANALYZE only — plain
/// execution never pays for this).
struct ExecProfile {
  std::vector<ExecProfileOp> ops;

  ExecProfileOp& Add(std::string op, std::string detail, int depth = 0) {
    ops.emplace_back();
    ExecProfileOp& slot = ops.back();
    slot.op = std::move(op);
    slot.detail = std::move(detail);
    slot.depth = depth;
    return slot;
  }
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_PROFILE_H_
