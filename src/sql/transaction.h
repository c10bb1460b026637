#ifndef SQLFLOW_SQL_TRANSACTION_H_
#define SQLFLOW_SQL_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/mvcc.h"
#include "sql/result_set.h"
#include "sql/schema.h"

namespace sqlflow::sql {

class Database;

/// One logical change, with enough information to reverse it. Entries are
/// replayed in reverse order on rollback; tables are addressed by name so
/// that CREATE/DROP interleavings stay correct.
struct UndoEntry {
  enum class Kind {
    kInsert,          // undo: remove row at `row_index`
    kDelete,          // undo: re-insert `row` at `row_index`
    kUpdate,          // undo: restore `row` at `row_index`
    kTruncate,        // undo: restore `bulk_rows`
    kCreateTable,     // undo: drop the table
    kDropTable,       // undo: re-register the saved table
    kCreateSequence,  // undo: drop the sequence
    kDropSequence,    // undo: re-create with `sequence_value`
    kSequenceAdvance, // undo: restore `sequence_value`
    kCreateIndex,     // undo: drop the index
    kDropIndex,       // saved_indexes holds the dropped index's metadata
    kCreateView,      // undo: drop the view
    kDropView,        // undo: re-register `saved_view`
  };

  Kind kind;
  std::string table_name;   // or sequence/index name
  size_t row_index = 0;
  /// MVCC identity of the affected row (0 for non-row entries): replay
  /// resolves the row by id when concurrent interleavings may have
  /// shifted its slot, and restores the pre-mutation version metadata.
  uint64_t row_id = 0;
  uint64_t meta_commit_ts = 0;  // pre-mutation RowMeta (kUpdate/kDelete)
  uint64_t meta_writer = 0;
  Row row;
  /// Only populated when the owning log has `capture_rows()` set: the
  /// post-image of the mutation (the inserted row for kInsert, the new
  /// values for kUpdate). Replay never reads it; the inverse-SQL
  /// compensation builder does (see sql/inverse.h).
  Row new_row;
  std::vector<Row> bulk_rows;
  int64_t sequence_value = 0;
  // For kDropTable: the saved schema + data + indexes.
  TableSchema saved_schema;
  std::vector<Row> saved_rows;
  std::vector<IndexInfo> saved_indexes;  // kDropTable, kDropIndex
  std::string index_table;           // for kCreateIndex
  std::unique_ptr<SelectStatement> saved_view;  // for kDropView
};

/// Ordered list of undo records. One log serves both scopes: the open
/// transaction (entries up to the statement mark) and the statement
/// currently executing (entries past the mark) — `RollbackTo` unwinds
/// just the statement's tail, `RollbackInto` the whole log.
class UndoLog {
 public:
  void Record(UndoEntry entry) { entries_.push_back(std::move(entry)); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<UndoEntry>& entries() const { return entries_; }
  std::vector<UndoEntry>& mutable_entries() { return entries_; }

  /// Applies all entries in reverse and clears the log.
  void RollbackInto(Database* db);

  /// Applies the entries recorded after `mark` in reverse and truncates
  /// the log back to `mark` — the statement-scope rollback that restores
  /// the byte-identical pre-statement state after a mid-statement fault.
  /// Returns true if any undone entry was DDL (caller must bump the
  /// schema epoch so memoized plans revalidate).
  bool RollbackTo(size_t mark, Database* db);

  void Clear() { entries_.clear(); }

  /// When set, Table mutations record post-images (`UndoEntry::new_row`)
  /// alongside the undo data, so successful statements can be turned
  /// into inverse SQL for compensation (sql/inverse.h).
  bool capture_rows() const { return capture_rows_; }
  void set_capture_rows(bool on) { capture_rows_ = on; }

  /// The MVCC transaction this log belongs to, or nullptr outside a
  /// transaction. Set by the owning Database connection; Table mutations
  /// read it for conflict detection and version stashing, and replay
  /// reads it to unwind version metadata. Not owned.
  MvccTxn* txn = nullptr;

 private:
  std::vector<UndoEntry> entries_;
  bool capture_rows_ = false;
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_TRANSACTION_H_
