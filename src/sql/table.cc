#include "sql/table.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/transaction.h"

namespace sqlflow::sql {

namespace {

IndexMaintenanceHook& IndexMaintenanceHookRef() {
  // Thread-local: each concurrently executing statement installs and
  // restores its own hook without racing other connections' statements
  // (statements never migrate threads mid-execution).
  static thread_local IndexMaintenanceHook hook;
  return hook;
}

/// Resolves unqualified column names against one row of this table.
class SchemaRowBinding : public RowBinding {
 public:
  SchemaRowBinding(const TableSchema* schema, const Row* row)
      : schema_(schema), row_(row) {}

  Result<Value> Resolve(const std::string& qualifier,
                        const std::string& column) const override {
    if (!qualifier.empty() &&
        !EqualsIgnoreCase(qualifier, schema_->table_name())) {
      return Status::NotFound("no such qualifier '" + qualifier + "'");
    }
    int index = schema_->FindColumn(column);
    if (index < 0) {
      return Status::NotFound("no column '" + column +
                              "' in CHECK constraint scope");
    }
    return (*row_)[static_cast<size_t>(index)];
  }

 private:
  const TableSchema* schema_;
  const Row* row_;
};

}  // namespace

struct Table::ParsedChecks {
  Status parse_status;
  std::vector<ExprPtr> expressions;
};

int OrderedValueCompare(const Value& a, const Value& b) {
  bool a_nan = a.type() == ValueType::kDouble && std::isnan(a.dbl());
  bool b_nan = b.type() == ValueType::kDouble && std::isnan(b.dbl());
  if (a_nan || b_nan) {
    auto numeric = [](const Value& v) {
      return v.type() == ValueType::kInteger ||
             v.type() == ValueType::kDouble;
    };
    if (numeric(a) && numeric(b)) {
      if (a_nan && b_nan) return 0;
      return a_nan ? 1 : -1;
    }
  }
  return a.Compare(b);
}

bool OrderedKeyLess::operator()(const Row& a, const Row& b) const {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int cmp = OrderedValueCompare(a[i], b[i]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

bool OrderedKeyLess::operator()(const Row& a, const OrderedBound& b) const {
  for (size_t i = 0; i < b.prefix.size(); ++i) {
    int cmp = OrderedValueCompare(a[i], b.prefix[i]);
    if (cmp != 0) return cmp < 0;
  }
  if (!b.has_value) return b.after_equal;
  int cmp = OrderedValueCompare(a[b.prefix.size()], b.value);
  if (cmp != 0) return cmp < 0;
  return b.after_equal;
}

bool OrderedKeyLess::operator()(const OrderedBound& a, const Row& b) const {
  for (size_t i = 0; i < a.prefix.size(); ++i) {
    int cmp = OrderedValueCompare(a.prefix[i], b[i]);
    if (cmp != 0) return cmp < 0;
  }
  if (!a.has_value) return !a.after_equal;
  int cmp = OrderedValueCompare(a.value, b[a.prefix.size()]);
  if (cmp != 0) return cmp < 0;
  return !a.after_equal;
}

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  int pk = schema_.primary_key_index();
  if (pk >= 0) {
    // The primary key is a unique index: it enforces the key and gives
    // every table with a PK indexed key access out of the box.
    SecondaryIndex idx;
    idx.name = "__pk_" + schema_.table_name();
    idx.column_indexes.push_back(static_cast<size_t>(pk));
    idx.unique = true;
    secondary_indexes_.push_back(std::move(idx));
  }
}

Row Table::MakeOrderedKey(const SecondaryIndex& index,
                          const Row& row) const {
  Row key;
  key.reserve(index.column_indexes.size());
  for (size_t idx : index.column_indexes) key.push_back(row[idx]);
  return key;
}

namespace {

void InsertSlotSorted(std::vector<size_t>* slots, size_t slot) {
  if (slots->empty() || slots->back() < slot) {
    slots->push_back(slot);
  } else {
    slots->insert(std::lower_bound(slots->begin(), slots->end(), slot),
                  slot);
  }
}

/// True when `a` and `b` carry the same key under `index`'s order.
bool SameKey(const SecondaryIndex& index, const Row& a, const Row& b) {
  for (size_t col : index.column_indexes) {
    if (OrderedValueCompare(a[col], b[col]) != 0) return false;
  }
  return true;
}

void EraseSlotSorted(std::vector<size_t>* slots, size_t slot) {
  auto pos = std::lower_bound(slots->begin(), slots->end(), slot);
  if (pos != slots->end() && *pos == slot) slots->erase(pos);
}

}  // namespace

IndexMaintenanceHook ExchangeIndexMaintenanceHook(
    IndexMaintenanceHook next) {
  IndexMaintenanceHook previous = std::move(IndexMaintenanceHookRef());
  IndexMaintenanceHookRef() = std::move(next);
  return previous;
}

void Table::IndexRow(const Row& row, size_t slot, const Row* keeps) {
  for (SecondaryIndex& index : secondary_indexes_) {
    if (keeps != nullptr && SameKey(index, row, *keeps)) continue;
    InsertSlotSorted(&index.ordered[MakeOrderedKey(index, row)], slot);
  }
}

void Table::UnindexRow(const Row& row, size_t slot, const Row* keeps) {
  for (SecondaryIndex& index : secondary_indexes_) {
    if (keeps != nullptr && SameKey(index, row, *keeps)) continue;
    auto oit = index.ordered.find(MakeOrderedKey(index, row));
    if (oit != index.ordered.end()) {
      EraseSlotSorted(&oit->second, slot);
      if (oit->second.empty()) index.ordered.erase(oit);
    }
  }
}

void Table::ShiftIndexSlotsUp(size_t at) {
  for (SecondaryIndex& index : secondary_indexes_) {
    for (auto& [key, slots] : index.ordered) {
      for (size_t& slot : slots) {
        if (slot >= at) ++slot;
      }
    }
  }
  for (size_t& slot : pending_slots_) {
    if (slot >= at) ++slot;
  }
}

void Table::ShiftIndexSlotsDown(size_t at) {
  for (SecondaryIndex& index : secondary_indexes_) {
    for (auto& [key, slots] : index.ordered) {
      for (size_t& slot : slots) {
        if (slot > at) --slot;
      }
    }
  }
  for (size_t& slot : pending_slots_) {
    if (slot > at) --slot;
  }
}

void Table::BuildIndex(SecondaryIndex* index) const {
  index->ordered.clear();
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    index->ordered[MakeOrderedKey(*index, rows_[slot])].push_back(slot);
  }
}

const SecondaryIndex* Table::FindUniqueViolation(const Row& row,
                                                 size_t ignore_slot,
                                                 size_t* holder) const {
  for (const SecondaryIndex& index : secondary_indexes_) {
    if (!index.unique) continue;
    // A key the updated row already holds is its own.
    if (ignore_slot < rows_.size() &&
        SameKey(index, rows_[ignore_slot], row)) {
      continue;
    }
    auto it = index.ordered.find(MakeOrderedKey(index, row));
    if (it == index.ordered.end()) continue;
    for (size_t slot : it->second) {
      if (slot != ignore_slot) {
        *holder = slot;
        return &index;
      }
    }
  }
  return nullptr;
}

Status Table::ClassifyUniqueViolation(const SecondaryIndex& index,
                                      size_t holder,
                                      const MvccTxn* txn) const {
  // Under MVCC, a holder pending under another transaction, or
  // committed after `txn`'s snapshot, makes this a transient
  // write-write race (the other writer may yet roll back), not a
  // durable constraint violation.
  if (txn != nullptr) {
    const RowMeta& m = meta_[holder];
    if (m.writer != 0 && m.writer != txn->id) {
      return Status::Deadlock(
          "unique key on '" + schema_.table_name() +
          "' contended by in-flight transaction (constraint '" +
          index.name + "')");
    }
    if (m.writer == 0 && m.commit_ts != 0 && m.commit_ts > txn->begin_ts) {
      return Status::Unavailable(
          "unique key on '" + schema_.table_name() +
          "' taken by a transaction committed after this snapshot "
          "(constraint '" + index.name + "')");
    }
  }
  return Status::ConstraintError(
      "unique constraint '" + index.name + "' violated in table '" +
      schema_.table_name() + "'");
}

Status Table::CheckStashedKeyConflict(const Row& row,
                                      const MvccTxn& txn) const {
  if (stash_count_ == 0) return Status::OK();
  for (const VersionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const StashedVersion& v : shard.stash) {
      bool pending_other =
          v.superseder_ts == kPendingTs && v.superseder != txn.id;
      bool committed_after_snapshot =
          v.superseder_ts != kPendingTs && v.superseder_ts > txn.begin_ts;
      if (!pending_other && !committed_after_snapshot) continue;
      for (const SecondaryIndex& index : secondary_indexes_) {
        if (!index.unique || !SameKey(index, v.image, row)) continue;
        if (pending_other) {
          return Status::Deadlock(
              "unique key on '" + schema_.table_name() +
              "' held by a version an in-flight transaction displaced "
              "(constraint '" + index.name + "')");
        }
        return Status::Unavailable(
            "unique key on '" + schema_.table_name() +
            "' released by a transaction committed after this "
            "snapshot (constraint '" + index.name + "')");
      }
    }
  }
  return Status::OK();
}

Status Table::CheckWriteConflict(size_t index, const MvccTxn& txn) const {
  const RowMeta& m = meta_[index];
  if (m.writer != 0 && m.writer != txn.id) {
    return Status::Deadlock("write-write conflict on table '" +
                            schema_.table_name() +
                            "': row pending under another transaction");
  }
  if (m.writer == 0 && m.commit_ts != 0 && m.commit_ts > txn.begin_ts) {
    return Status::Unavailable(
        "write-write conflict on table '" + schema_.table_name() +
        "': row committed after this transaction's snapshot "
        "(first-committer-wins)");
  }
  return Status::OK();
}

void Table::StashAndMarkPending(size_t index, const MvccTxn& txn) {
  RowMeta& m = meta_[index];
  if (m.writer == txn.id) return;  // already pending under this txn
  StashedVersion v;
  v.row_id = m.row_id;
  v.image = rows_[index];
  v.image_ts = m.commit_ts;
  v.superseder = txn.id;
  v.superseder_ts = kPendingTs;
  {
    VersionShard& shard = ShardFor(m.row_id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stash.push_back(std::move(v));
  }
  ++stash_count_;
  m.writer = txn.id;
  m.commit_ts = kPendingTs;
  InsertSlotSorted(&pending_slots_, index);
}

Status Table::CheckRowConstraints(const Row& row) {
  if (schema_.check_constraints().empty()) return Status::OK();
  if (parsed_checks_ == nullptr) {
    auto parsed = std::make_shared<ParsedChecks>();
    for (const std::string& text : schema_.check_constraints()) {
      auto expr = ParseExpression(text);
      if (!expr.ok()) {
        parsed->parse_status = expr.status();
        break;
      }
      parsed->expressions.push_back(std::move(*expr));
    }
    parsed_checks_ = std::move(parsed);
  }
  SQLFLOW_RETURN_IF_ERROR(parsed_checks_->parse_status);
  SchemaRowBinding binding(&schema_, &row);
  EvalContext ctx;
  ctx.binding = &binding;
  for (size_t i = 0; i < parsed_checks_->expressions.size(); ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(
        Value v, EvaluateExpr(*parsed_checks_->expressions[i], ctx));
    // SQL: a CHECK fails only when the condition is definitely FALSE.
    if (!v.is_null()) {
      SQLFLOW_ASSIGN_OR_RETURN(bool ok, v.AsBoolean());
      if (!ok) {
        return Status::ConstraintError(
            "CHECK constraint (" + schema_.check_constraints()[i] +
            ") violated in table '" + schema_.table_name() + "'");
      }
    }
  }
  return Status::OK();
}

Status Table::Insert(const Row& row, UndoLog* undo) {
  if (read_only_) {
    return Status::InvalidArgument("table '" + schema_.table_name() +
                                   "' is read-only");
  }
  if (row.size() != schema_.column_count()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table '" +
        schema_.table_name() + "' has " +
        std::to_string(schema_.column_count()) + " columns");
  }
  Row coerced(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(coerced[i], schema_.CoerceValue(i, row[i]));
  }
  const MvccTxn* txn = undo != nullptr ? undo->txn : nullptr;
  size_t holder = 0;
  if (const SecondaryIndex* taken =
          FindUniqueViolation(coerced, rows_.size(), &holder)) {
    return ClassifyUniqueViolation(*taken, holder, txn);
  }
  if (txn != nullptr) {
    SQLFLOW_RETURN_IF_ERROR(CheckStashedKeyConflict(coerced, *txn));
  }
  SQLFLOW_RETURN_IF_ERROR(CheckRowConstraints(coerced));
  rows_.push_back(std::move(coerced));
  RowMeta meta;
  meta.row_id = next_row_id_++;
  if (txn != nullptr) {
    meta.commit_ts = kPendingTs;
    meta.writer = txn->id;
    pending_slots_.push_back(rows_.size() - 1);  // the highest slot
  }
  meta_.push_back(meta);
  if (undo != nullptr && undo->txn != nullptr) {
    undo->txn->Touch(ToUpperAscii(schema_.table_name()));
  }
  // Undo is recorded *before* index maintenance so that a fault between
  // the two (the hook below) is recoverable: RawRemoveAt tolerates the
  // postings the row never got.
  if (undo != nullptr) {
    UndoEntry e;
    e.kind = UndoEntry::Kind::kInsert;
    e.table_name = schema_.table_name();
    e.row_index = rows_.size() - 1;
    e.row_id = meta.row_id;
    if (undo->capture_rows()) e.new_row = rows_.back();
    undo->Record(std::move(e));
  }
  if (const auto& hook = IndexMaintenanceHookRef(); hook) {
    SQLFLOW_RETURN_IF_ERROR(hook(schema_.table_name(), "insert"));
  }
  IndexRow(rows_.back(), rows_.size() - 1);
  return Status::OK();
}

Status Table::Update(size_t index, const Row& new_row, UndoLog* undo) {
  if (read_only_) {
    return Status::InvalidArgument("table '" + schema_.table_name() +
                                   "' is read-only");
  }
  if (index >= rows_.size()) {
    return Status::InvalidArgument("update index out of range");
  }
  if (new_row.size() != schema_.column_count()) {
    return Status::InvalidArgument("row width mismatch in update");
  }
  Row coerced(new_row.size());
  for (size_t i = 0; i < new_row.size(); ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(coerced[i],
                             schema_.CoerceValue(i, new_row[i]));
  }
  const MvccTxn* txn = undo != nullptr ? undo->txn : nullptr;
  if (txn != nullptr) {
    SQLFLOW_RETURN_IF_ERROR(CheckWriteConflict(index, *txn));
  }
  size_t holder = 0;
  if (const SecondaryIndex* taken =
          FindUniqueViolation(coerced, index, &holder)) {
    return ClassifyUniqueViolation(*taken, holder, txn);
  }
  if (txn != nullptr) {
    SQLFLOW_RETURN_IF_ERROR(CheckStashedKeyConflict(coerced, *txn));
  }
  SQLFLOW_RETURN_IF_ERROR(CheckRowConstraints(coerced));
  RowMeta prior_meta = meta_[index];
  if (txn != nullptr) {
    StashAndMarkPending(index, *txn);
    undo->txn->Touch(ToUpperAscii(schema_.table_name()));
  }
  Row old_row = std::exchange(rows_[index], std::move(coerced));
  UnindexRow(old_row, index, &rows_[index]);
  // Same ordering rationale as Insert: the undo entry lands before index
  // maintenance, so a fault at the hook leaves a state RawReplaceAt can
  // reverse (the new row's changed keys have no postings yet; kept keys
  // post this slot for either image).
  if (undo != nullptr) {
    UndoEntry e;
    e.kind = UndoEntry::Kind::kUpdate;
    e.table_name = schema_.table_name();
    e.row_index = index;
    e.row = old_row;
    e.row_id = prior_meta.row_id;
    e.meta_commit_ts = prior_meta.commit_ts;
    e.meta_writer = prior_meta.writer;
    if (undo->capture_rows()) e.new_row = rows_[index];
    undo->Record(std::move(e));
  }
  if (const auto& hook = IndexMaintenanceHookRef(); hook) {
    SQLFLOW_RETURN_IF_ERROR(hook(schema_.table_name(), "update"));
  }
  IndexRow(rows_[index], index, &old_row);
  return Status::OK();
}

Status Table::Delete(size_t index, UndoLog* undo) {
  if (read_only_) {
    return Status::InvalidArgument("table '" + schema_.table_name() +
                                   "' is read-only");
  }
  if (index >= rows_.size()) {
    return Status::InvalidArgument("delete index out of range");
  }
  const MvccTxn* txn = undo != nullptr ? undo->txn : nullptr;
  if (txn != nullptr) {
    SQLFLOW_RETURN_IF_ERROR(CheckWriteConflict(index, *txn));
  }
  RowMeta prior_meta = meta_[index];
  if (txn != nullptr) {
    if (prior_meta.writer != txn->id) {
      // Committed row: stash its image so concurrent snapshots keep
      // seeing it until this delete commits past their horizon. A row
      // already pending under this txn either has its committed
      // pre-image stashed (earlier UPDATE) or was inserted by this txn
      // and was never visible to anyone else.
      StashedVersion v;
      v.row_id = prior_meta.row_id;
      v.image = rows_[index];
      v.image_ts = prior_meta.commit_ts;
      v.superseder = txn->id;
      v.superseder_ts = kPendingTs;
      {
        VersionShard& shard = ShardFor(prior_meta.row_id);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.stash.push_back(std::move(v));
      }
      ++stash_count_;
    }
    undo->txn->Touch(ToUpperAscii(schema_.table_name()));
  }
  Row old_row = std::move(rows_[index]);
  UnindexRow(old_row, index);
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(index));
  if (prior_meta.writer != 0) EraseSlotSorted(&pending_slots_, index);
  meta_.erase(meta_.begin() + static_cast<ptrdiff_t>(index));
  if (index < rows_.size()) ShiftIndexSlotsDown(index);
  if (undo != nullptr) {
    UndoEntry e;
    e.kind = UndoEntry::Kind::kDelete;
    e.table_name = schema_.table_name();
    e.row_index = index;
    e.row = std::move(old_row);
    e.row_id = prior_meta.row_id;
    e.meta_commit_ts = prior_meta.commit_ts;
    e.meta_writer = prior_meta.writer;
    undo->Record(std::move(e));
  }
  return Status::OK();
}

void Table::Clear(UndoLog* undo) {
  if (undo != nullptr) {
    UndoEntry e;
    e.kind = UndoEntry::Kind::kTruncate;
    e.table_name = schema_.table_name();
    e.bulk_rows = rows_;
    undo->Record(std::move(e));
    if (undo->txn != nullptr) {
      undo->txn->Touch(ToUpperAscii(schema_.table_name()));
    }
  }
  rows_.clear();
  // TRUNCATE is not versioned (the executor refuses it while other
  // writers are in flight): drop all version state with the rows.
  meta_.clear();
  pending_slots_.clear();
  for (VersionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stash.clear();
  }
  stash_count_ = 0;
  for (SecondaryIndex& index : secondary_indexes_) index.ordered.clear();
}

ResultSet Table::Scan() const {
  std::vector<std::string> names;
  names.reserve(schema_.column_count());
  for (const ColumnDef& col : schema_.columns()) names.push_back(col.name);
  ResultSet rs(std::move(names));
  for (const Row& row : rows_) rs.AddRow(row);
  return rs;
}

size_t Table::ApproxByteSize() const {
  size_t total = 0;
  for (const Row& row : rows_) {
    for (const Value& v : row) {
      total += v.type() == ValueType::kString ? v.str().size() + 4 : 8;
    }
  }
  return total;
}

void Table::RawInsertAt(size_t index, Row row) {
  RowMeta meta;
  meta.row_id = next_row_id_++;
  if (index >= rows_.size()) {
    rows_.push_back(std::move(row));
    meta_.push_back(meta);
    IndexRow(rows_.back(), rows_.size() - 1);
  } else {
    ShiftIndexSlotsUp(index);
    rows_.insert(rows_.begin() + static_cast<ptrdiff_t>(index),
                 std::move(row));
    meta_.insert(meta_.begin() + static_cast<ptrdiff_t>(index), meta);
    IndexRow(rows_[index], index);
  }
}

Row Table::RawRemoveAt(size_t index) {
  Row row = std::move(rows_[index]);
  UnindexRow(row, index);
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(index));
  if (meta_[index].writer != 0) EraseSlotSorted(&pending_slots_, index);
  meta_.erase(meta_.begin() + static_cast<ptrdiff_t>(index));
  if (index < rows_.size()) ShiftIndexSlotsDown(index);
  return row;
}

void Table::RawReplaceAt(size_t index, Row row) {
  UnindexRow(rows_[index], index);
  rows_[index] = std::move(row);
  IndexRow(rows_[index], index);
}

void Table::RawRestoreAll(std::vector<Row> rows) {
  rows_ = std::move(rows);
  meta_.clear();
  meta_.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    RowMeta meta;
    meta.row_id = next_row_id_++;
    meta_.push_back(meta);
  }
  pending_slots_.clear();
  for (VersionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stash.clear();
  }
  stash_count_ = 0;
  for (SecondaryIndex& index : secondary_indexes_) BuildIndex(&index);
}

void Table::ReplayInsert(Row row, uint64_t row_id) {
  RowMeta meta;
  meta.row_id = row_id;
  rows_.push_back(std::move(row));
  meta_.push_back(meta);
  IndexRow(rows_.back(), rows_.size() - 1);
  if (row_id >= next_row_id_) next_row_id_ = row_id + 1;
}

Status Table::ReplayUpdate(uint64_t row_id, Row row) {
  size_t slot = FindSlotByRowId(row_id, rows_.size());
  if (slot >= rows_.size()) {
    return Status::DataLoss("wal replays UPDATE of unknown row id " +
                            std::to_string(row_id) + " in table " +
                            schema_.table_name());
  }
  RawReplaceAt(slot, std::move(row));
  return Status::OK();
}

Status Table::ReplayDelete(uint64_t row_id) {
  size_t slot = FindSlotByRowId(row_id, rows_.size());
  if (slot >= rows_.size()) {
    return Status::DataLoss("wal replays DELETE of unknown row id " +
                            std::to_string(row_id) + " in table " +
                            schema_.table_name());
  }
  RawRemoveAt(slot);
  if (row_id >= next_row_id_) next_row_id_ = row_id + 1;
  return Status::OK();
}

std::vector<std::pair<uint64_t, Row>> Table::CommittedRowsWithIds() const {
  std::vector<std::pair<uint64_t, Row>> out;
  out.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (meta_[i].writer == 0) out.emplace_back(meta_[i].row_id, rows_[i]);
  }
  for (const VersionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const StashedVersion& sv : shard.stash) {
      if (sv.superseder_ts == kPendingTs) {
        out.emplace_back(sv.row_id, sv.image);
      }
    }
  }
  return out;
}

// --- MVCC version chain -----------------------------------------------------

bool Table::NeedsSnapshot(uint64_t reader_txn, uint64_t snapshot_ts) const {
  (void)reader_txn;
  return !pending_slots_.empty() || stash_count_ > 0 ||
         max_commit_ts_ > snapshot_ts;
}

std::vector<Row> Table::SnapshotRows(uint64_t reader_txn,
                                     uint64_t snapshot_ts) const {
  std::vector<Row> out;
  out.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    const RowMeta& m = meta_[i];
    if (m.writer != 0) {
      if (m.writer == reader_txn) out.push_back(rows_[i]);
      continue;
    }
    if (m.commit_ts <= snapshot_ts) out.push_back(rows_[i]);
  }
  for (const VersionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const StashedVersion& v : shard.stash) {
      if (v.image_ts > snapshot_ts) continue;
      // The version chain guarantees at most one candidate per row id:
      // adjacent versions share image_ts == the older one's
      // superseder_ts, so exactly one interval brackets the snapshot.
      bool superseder_visible =
          v.superseder == reader_txn ||
          (v.superseder_ts != kPendingTs && v.superseder_ts <= snapshot_ts);
      if (!superseder_visible) out.push_back(v.image);
    }
  }
  return out;
}

void Table::ResolvePending(uint64_t txn_id, uint64_t commit_ts) {
  // erase_if applies the predicate exactly once per slot, in order.
  std::erase_if(pending_slots_, [&](size_t slot) {
    RowMeta& m = meta_[slot];
    if (m.writer != txn_id) return false;
    m.writer = 0;
    m.commit_ts = commit_ts;
    return true;
  });
}

void Table::CommitTxn(uint64_t txn_id, uint64_t commit_ts) {
  ResolvePending(txn_id, commit_ts);
  if (stash_count_ > 0) {
    for (VersionShard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (StashedVersion& v : shard.stash) {
        if (v.superseder == txn_id && v.superseder_ts == kPendingTs) {
          v.superseder_ts = commit_ts;
        }
      }
    }
  }
  if (commit_ts > max_commit_ts_) max_commit_ts_ = commit_ts;
}

void Table::AbortTxn(uint64_t txn_id) {
  // Undo replay restores metadata per row; anything still pending here
  // was rolled back without a matching undo record (defensive).
  ResolvePending(txn_id, 0);
  if (stash_count_ == 0) return;
  for (VersionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.stash.begin(); it != shard.stash.end();) {
      if (it->superseder == txn_id && it->superseder_ts == kPendingTs) {
        it = shard.stash.erase(it);
        --stash_count_;
      } else {
        ++it;
      }
    }
  }
}

size_t Table::GcVersions(uint64_t horizon) {
  if (stash_count_ == 0) return 0;
  size_t reclaimed = 0;
  for (VersionShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.stash.begin(); it != shard.stash.end();) {
      if (it->superseder_ts != kPendingTs && it->superseder_ts <= horizon) {
        it = shard.stash.erase(it);
        ++reclaimed;
      } else {
        ++it;
      }
    }
  }
  stash_count_ -= reclaimed;
  return reclaimed;
}

bool Table::HasPendingWriterOther(uint64_t txn_id) const {
  for (size_t slot : pending_slots_) {
    if (meta_[slot].writer != txn_id) return true;
  }
  return false;
}

size_t Table::FindSlotByRowId(uint64_t row_id, size_t hint) const {
  if (hint < meta_.size() && meta_[hint].row_id == row_id) return hint;
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (meta_[i].row_id == row_id) return i;
  }
  return meta_.size();
}

void Table::RestoreMetaAt(size_t index, RowMeta meta) {
  bool was_pending = meta_[index].writer != 0;
  bool now_pending = meta.writer != 0;
  meta_[index] = meta;
  if (was_pending && !now_pending) EraseSlotSorted(&pending_slots_, index);
  if (!was_pending && now_pending) InsertSlotSorted(&pending_slots_, index);
}

bool Table::DropStashedVersion(uint64_t row_id, uint64_t superseder) {
  VersionShard& shard = ShardFor(row_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  for (auto it = shard.stash.begin(); it != shard.stash.end(); ++it) {
    if (it->row_id == row_id && it->superseder == superseder) {
      shard.stash.erase(it);
      --stash_count_;
      return true;
    }
  }
  return false;
}

size_t Table::StashDepthForTest() const {
  return stash_count_;
}

Status Table::AddSecondaryIndex(const std::string& name,
                                const std::vector<std::string>& columns,
                                bool unique) {
  for (const SecondaryIndex& index : secondary_indexes_) {
    if (EqualsIgnoreCase(index.name, name)) {
      return Status::AlreadyExists("index '" + name +
                                   "' already exists on table '" +
                                   schema_.table_name() + "'");
    }
  }
  SecondaryIndex index;
  index.name = name;
  index.unique = unique;
  for (const std::string& col : columns) {
    int idx = schema_.FindColumn(col);
    if (idx < 0) {
      return Status::NotFound("no column '" + col + "' in table '" +
                              schema_.table_name() + "'");
    }
    index.column_indexes.push_back(static_cast<size_t>(idx));
  }
  BuildIndex(&index);
  if (unique) {
    for (const auto& [key, slots] : index.ordered) {
      if (slots.size() > 1) {
        return Status::ConstraintError(
            "existing data violates unique constraint '" + name + "'");
      }
    }
  }
  secondary_indexes_.push_back(std::move(index));
  return Status::OK();
}

Status Table::DropSecondaryIndex(const std::string& name) {
  for (auto it = secondary_indexes_.begin();
       it != secondary_indexes_.end(); ++it) {
    if (EqualsIgnoreCase(it->name, name)) {
      secondary_indexes_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no index '" + name + "'");
}

const SecondaryIndex* Table::FindSecondaryIndex(
    const std::string& name) const {
  for (const SecondaryIndex& index : secondary_indexes_) {
    if (EqualsIgnoreCase(index.name, name)) return &index;
  }
  return nullptr;
}

}  // namespace sqlflow::sql
