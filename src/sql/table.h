#ifndef SQLFLOW_SQL_TABLE_H_
#define SQLFLOW_SQL_TABLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/mvcc.h"
#include "sql/result_set.h"
#include "sql/schema.h"

namespace sqlflow::sql {

class UndoLog;

/// Thread-local hook consulted by Insert/Update *between* recording the
/// row's undo entry and maintaining its secondary indexes — the
/// mid-index-maintenance fault site. A non-OK return aborts the mutation
/// with the row applied but unindexed; the undo entry (recorded first,
/// and tolerant of missing postings) restores the byte-identical prior
/// state. Installed by Database::RunWithRecovery around statement
/// execution only; the Raw* replay entry points never consult it, so
/// rollback itself cannot fault. The hook is thread-local — each
/// concurrently executing statement sees only its own installation.
using IndexMaintenanceHook =
    std::function<Status(const std::string& table_name, const char* op)>;

/// Installs `next` and returns the previously installed hook (empty when
/// none), so nested statement scopes can save/restore.
IndexMaintenanceHook ExchangeIndexMaintenanceHook(
    IndexMaintenanceHook next);

/// Value order used by ordered indexes. Identical to Value::Compare
/// except that a NaN double is pinned to the top of the numeric rank
/// (NaN == NaN, NaN > every other numeric). Value::Compare answers
/// "greater" for NaN against *both* operand orders, which is not a
/// strict weak ordering and would corrupt a std::map; pinning NaN also
/// reproduces the scan-visible behavior where a stored NaN satisfies
/// only `>`-style predicates.
int OrderedValueCompare(const Value& a, const Value& b);

/// A lower/upper endpoint in an ordered index's key space, resolved
/// through the transparent comparator so partial probes work on
/// multi-column indexes. `prefix` pins the leading key columns to
/// equality values; when `has_value` is set, `value` then bounds the
/// next key column, otherwise the endpoint addresses the whole run of
/// prefix-equal keys. `after_equal` positions the bound just after all
/// keys matching the endpoint (vs. just before them), which encodes
/// bound inclusivity for both map directions.
struct OrderedBound {
  Row prefix;
  Value value;
  bool has_value = true;
  bool after_equal = false;
};

/// Lexicographic OrderedValueCompare over key rows, transparent so
/// OrderedBound can address positions without materializing a key row.
struct OrderedKeyLess {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const;
  bool operator()(const Row& a, const OrderedBound& b) const;
  bool operator()(const OrderedBound& a, const Row& b) const;
};

/// Secondary index (the PRIMARY KEY is one too): projected key row →
/// row slots (ascending), in OrderedValueCompare order. The one map
/// serves point and IN-list probes, bounded range scans, sorted
/// traversal and — for a unique index — the uniqueness check: a key is
/// taken when its posting holds a slot other than the row being
/// written. Keys equal under that order share one entry, so a unique
/// index refuses a second NULL, a second NaN, and -0.0 after 0.0 (SQL
/// equality for typed columns). Slots are positions in Table::rows()
/// and are kept consistent by every mutation path, including the Raw*
/// undo-replay entry points.
struct SecondaryIndex {
  std::string name;
  std::vector<size_t> column_indexes;
  bool unique = false;
  std::map<Row, std::vector<size_t>, OrderedKeyLess> ordered;
};

/// Version metadata for one live row, kept in a vector parallel to
/// Table::rows(). `commit_ts == 0` marks a row committed before MVCC
/// tracking began (visible to every snapshot); `writer != 0` marks a
/// row written by an in-flight transaction (`commit_ts == kPendingTs`
/// until that transaction commits). `row_id` is a table-unique identity
/// that survives slot shifts, linking a live row to its stashed prior
/// versions and to undo records.
struct RowMeta {
  uint64_t row_id = 0;
  uint64_t commit_ts = 0;
  uint64_t writer = 0;
};

/// A superseded row version kept for snapshot readers: the pre-image a
/// transaction displaced by UPDATE or DELETE. Visible to snapshot S iff
/// `image_ts <= S` and the superseding write is *not* visible at S
/// (still pending by another transaction, or committed after S). GC
/// drops entries whose superseder committed at or below the snapshot
/// horizon.
struct StashedVersion {
  uint64_t row_id = 0;
  Row image;
  uint64_t image_ts = 0;                  // commit ts of the stashed image
  uint64_t superseder = 0;                // txn that displaced it
  uint64_t superseder_ts = kPendingTs;    // its commit ts once committed
};

/// Heap-organized in-memory table. All mutations go through Insert/Update/
/// Delete so that unique indexes stay enforced and undo records
/// are written when a transaction is active (`undo != nullptr`). When the
/// undo log carries an MVCC transaction view, mutations additionally
/// version rows: write-write conflicts abort with a transient Status
/// (first-committer-wins), displaced versions are stashed for snapshot
/// readers, and commit/abort stamp or unwind the metadata.
///
/// Threading: row data, indexes, and row metadata are guarded by the
/// owning Database's statement latch (writers exclusive, readers
/// shared). The version stash is additionally sharded by row id behind
/// per-shard mutexes — the OpenMLDB mem_table/fe_segment layout — so
/// snapshot materialization and GC touch only small critical sections
/// and commit stamping can later move off the global latch.
class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t row_count() const { return rows_.size(); }

  /// Read-only tables (the sys.* virtual tables) reject DML and
  /// TRUNCATE; the Raw* entry points still work — they are how the
  /// catalog refreshes virtual-table contents.
  void SetReadOnly(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  /// Coerces values to the schema, checks constraints, appends the row.
  Status Insert(const Row& row, UndoLog* undo);

  /// Replaces the row at `index` after coercion/constraint checks.
  Status Update(size_t index, const Row& new_row, UndoLog* undo);

  /// Removes the row at `index` (later rows shift down by one).
  Status Delete(size_t index, UndoLog* undo);

  /// Removes all rows (TRUNCATE); one bulk undo record.
  void Clear(UndoLog* undo);

  /// Builds an ordered index over the named columns from the current
  /// data. A `unique` index enforces its key on every later write and
  /// is refused (ConstraintError) when existing rows already repeat a
  /// key.
  Status AddSecondaryIndex(const std::string& name,
                           const std::vector<std::string>& columns,
                           bool unique);
  Status DropSecondaryIndex(const std::string& name);
  const std::vector<SecondaryIndex>& secondary_indexes() const {
    return secondary_indexes_;
  }
  /// nullptr if absent (case-insensitive).
  const SecondaryIndex* FindSecondaryIndex(const std::string& name) const;

  /// Copies all rows (with column names) into a ResultSet.
  ResultSet Scan() const;

  /// Rough in-memory footprint of the row data (for benchmarks).
  size_t ApproxByteSize() const;

  // --- low-level access used by UndoLog replay only ------------------------
  // These bypass coercion and uniqueness checks (rows were valid when
  // recorded) but still maintain every index.
  void RawInsertAt(size_t index, Row row);
  Row RawRemoveAt(size_t index);
  void RawReplaceAt(size_t index, Row row);
  void RawRestoreAll(std::vector<Row> rows);

  // --- WAL replay / snapshot entry points ----------------------------------
  // Recovery-only: applied to a freshly built table outside any
  // transaction. They bypass coercion (the effects were valid when they
  // committed) but maintain every index, and they preserve the *logged*
  // row id — unlike RawInsertAt, which mints a fresh one — so later log
  // records can address the row.

  void ReplayInsert(Row row, uint64_t row_id);
  /// kDataLoss when `row_id` is not live (a log that updates or deletes
  /// a row it never inserted is corrupt).
  Status ReplayUpdate(uint64_t row_id, Row row);
  Status ReplayDelete(uint64_t row_id);

  /// Committed row images with their row ids — what a snapshot file
  /// persists. Live rows pending under an in-flight transaction
  /// contribute their committed pre-image from the version stash (rows
  /// that transaction *inserted* have none and are skipped); if it later
  /// commits, its WAL batch lands after the snapshot LSN and tail replay
  /// applies it.
  std::vector<std::pair<uint64_t, Row>> CommittedRowsWithIds() const;
  uint64_t next_row_id() const { return next_row_id_; }
  /// Snapshot load: restore the id counter past ids burned by aborted
  /// statements (which never reach the log but did consume numbers).
  void SetNextRowIdAtLeast(uint64_t id) {
    if (id > next_row_id_) next_row_id_ = id;
  }

  // --- MVCC version chain ---------------------------------------------------

  /// True when the live rows() vector is NOT the correct view for a
  /// reader at `snapshot_ts`: some transaction has pending rows here
  /// (the pending-slot list is non-empty), something committed after
  /// the snapshot, or superseded versions are stashed. When false the
  /// executor keeps index lookups and pushdown; when true it
  /// materializes via SnapshotRows.
  bool NeedsSnapshot(uint64_t reader_txn, uint64_t snapshot_ts) const;

  /// Materializes the rows visible to `reader_txn` at `snapshot_ts`:
  /// the reader's own pending writes, every version committed at or
  /// before the snapshot, and stashed pre-images whose superseding
  /// write is not yet visible. Row order: live rows in slot order, then
  /// stashed versions (callers treat the result as a bag, exactly like
  /// a scan).
  std::vector<Row> SnapshotRows(uint64_t reader_txn,
                                uint64_t snapshot_ts) const;

  /// Stamps every row pending under `txn_id` (and every stash entry it
  /// superseded) with `commit_ts`. Walks the pending-slot list, so the
  /// cost is O(rows pending in this table), whatever the table size and
  /// wherever the rows sit.
  void CommitTxn(uint64_t txn_id, uint64_t commit_ts);

  /// Defensive abort sweep: clears any metadata still pending under
  /// `txn_id` and drops stash entries it superseded. Undo replay
  /// restores per-row metadata exactly; this catches strays.
  void AbortTxn(uint64_t txn_id);

  /// Drops stash entries whose superseder committed at or below
  /// `horizon`; returns how many versions were reclaimed.
  size_t GcVersions(uint64_t horizon);

  /// Pending rows written by transactions other than `txn_id` — the
  /// UPDATE/DELETE/DROP/TRUNCATE gate (those statements act on raw
  /// slots or are not versioned, so they refuse with a transient status
  /// while other writers are in flight). A scan of the pending-slot
  /// list: O(rows pending in this table).
  bool HasPendingWriterOther(uint64_t txn_id) const;

  /// Slot currently holding `row_id`; `hint` is checked first (the
  /// recorded undo position, almost always still right). Returns
  /// rows().size() when the row is gone.
  size_t FindSlotByRowId(uint64_t row_id, size_t hint) const;

  RowMeta MetaAt(size_t index) const { return meta_[index]; }
  /// Restores one row's metadata during undo replay (adding the slot to
  /// or dropping it from the pending-slot list).
  void RestoreMetaAt(size_t index, RowMeta meta);
  /// Drops the stash entry `{row_id, superseder}` if present (undo
  /// replay of the write that created it). Returns whether one existed.
  bool DropStashedVersion(uint64_t row_id, uint64_t superseder);

  size_t StashDepthForTest() const;
  const std::vector<size_t>& PendingSlotsForTest() const {
    return pending_slots_;
  }
  uint64_t max_commit_ts() const { return max_commit_ts_; }

 private:
  static constexpr size_t kVersionShards = 8;
  struct VersionShard {
    mutable std::mutex mutex;
    std::vector<StashedVersion> stash;
  };

  /// First unique index whose posting for `row`'s key holds a slot
  /// other than `ignore_slot` (the row being updated; rows().size() for
  /// an insert), with that holder's slot; nullptr when every key is
  /// free.
  const SecondaryIndex* FindUniqueViolation(const Row& row,
                                            size_t ignore_slot,
                                            size_t* holder) const;
  /// Classifies a unique violation under MVCC: a collision with a row
  /// another transaction has in flight (or committed after `txn`'s
  /// snapshot) is a transient write-write conflict, not a constraint
  /// error.
  Status ClassifyUniqueViolation(const SecondaryIndex& index, size_t holder,
                                 const MvccTxn* txn) const;
  /// Guards writes against keys that are absent from the live indexes
  /// only because an in-flight transaction deleted (or re-keyed) the
  /// row holding them: if that transaction rolls back the key comes
  /// back, so taking it now is a transient write-write conflict, not a
  /// free slot. Also refuses keys whose holder was displaced by a
  /// transaction that committed after `txn`'s snapshot (`txn` still
  /// sees the stashed image — letting the write through would make its
  /// own snapshot self-inconsistent).
  Status CheckStashedKeyConflict(const Row& row, const MvccTxn& txn) const;
  /// Write-write conflict check for the row at `index` against `txn`;
  /// OK when `txn` may overwrite it.
  Status CheckWriteConflict(size_t index, const MvccTxn& txn) const;
  /// Stashes the pre-image of row `index` (unless `txn` already owns
  /// its pending version) and marks the row pending under `txn`.
  void StashAndMarkPending(size_t index, const MvccTxn& txn);
  /// Gives every listed row pending under `txn_id` writer 0 and
  /// `commit_ts` (0 on abort) and drops it from the pending-slot list.
  void ResolvePending(uint64_t txn_id, uint64_t commit_ts);
  VersionShard& ShardFor(uint64_t row_id) {
    return shards_[row_id % kVersionShards];
  }
  const VersionShard& ShardFor(uint64_t row_id) const {
    return shards_[row_id % kVersionShards];
  }
  /// Evaluates the schema's CHECK constraints against `row`; a FALSE
  /// result is a constraint error (NULL/unknown passes, per SQL).
  Status CheckRowConstraints(const Row& row);
  Row MakeOrderedKey(const SecondaryIndex& index, const Row& row) const;
  /// Registers/unregisters `row` (living at `slot`) in every secondary
  /// index, keeping each posting's slot list sorted. Indexes on which
  /// `row` and `*keeps` share a key are skipped: an UPDATE that keeps a
  /// key keeps its posting.
  void IndexRow(const Row& row, size_t slot, const Row* keeps = nullptr);
  void UnindexRow(const Row& row, size_t slot, const Row* keeps = nullptr);
  /// Renumbers index postings and the pending-slot list after a row
  /// insertion/removal at `at`: every slot >= `at` (insert) or > `at`
  /// (remove) moves by one. No-ops when the affected row was at the end
  /// of the table.
  void ShiftIndexSlotsUp(size_t at);
  void ShiftIndexSlotsDown(size_t at);
  /// Refills `index` from the current rows.
  void BuildIndex(SecondaryIndex* index) const;

  TableSchema schema_;
  bool read_only_ = false;
  std::vector<Row> rows_;
  /// Parallel to rows_: one RowMeta per live row.
  std::vector<RowMeta> meta_;
  /// Superseded versions, sharded by row id.
  std::array<VersionShard, kVersionShards> shards_;
  uint64_t next_row_id_ = 1;
  /// Slots (ascending) of the live rows pending under some transaction
  /// — exactly those whose RowMeta.writer != 0. Every transition into
  /// or out of pending adds or drops its slot, and the slot shifts
  /// renumber it, so commit, abort and the writer gate walk only this.
  std::vector<size_t> pending_slots_;
  /// Stashed versions across all shards (fast NeedsSnapshot check).
  size_t stash_count_ = 0;
  /// Highest commit timestamp stamped onto this table's rows.
  uint64_t max_commit_ts_ = 0;
  std::vector<SecondaryIndex> secondary_indexes_;
  /// Parsed CHECK expressions, built lazily from the schema's text.
  struct ParsedChecks;
  std::shared_ptr<ParsedChecks> parsed_checks_;
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_TABLE_H_
