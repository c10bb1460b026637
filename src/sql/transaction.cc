#include "sql/transaction.h"

#include "sql/database.h"
#include "sql/table.h"

namespace sqlflow::sql {

namespace {

/// DML undo entries restore data; everything else re-shapes the catalog
/// and therefore invalidates memoized plans when unwound.
bool IsDdlUndo(UndoEntry::Kind kind) {
  switch (kind) {
    case UndoEntry::Kind::kInsert:
    case UndoEntry::Kind::kDelete:
    case UndoEntry::Kind::kUpdate:
    case UndoEntry::Kind::kTruncate:
    case UndoEntry::Kind::kSequenceAdvance:
      return false;
    default:
      return true;
  }
}

/// Reverses one recorded change. Uses only the Raw* replay entry points
/// (which never consult fault hooks and never re-log), so rollback can
/// run safely while a fault injector is armed. Under MVCC (`txn` set),
/// rows are resolved by id (slots may have shifted) and each entry also
/// restores the row's pre-mutation version metadata and drops the stash
/// entry its mutation created.
void UndoOne(UndoEntry& e, Database* db, const MvccTxn* txn) {
  Catalog& catalog = db->catalog();
  switch (e.kind) {
  case UndoEntry::Kind::kInsert: {
    Table* table = catalog.FindTable(e.table_name);
    if (table == nullptr) break;
    size_t slot = e.row_index;
    if (txn != nullptr && e.row_id != 0) {
      slot = table->FindSlotByRowId(e.row_id, e.row_index);
    }
    if (slot < table->row_count()) {
      table->RawRemoveAt(slot);
    }
    break;
  }
  case UndoEntry::Kind::kDelete: {
    Table* table = catalog.FindTable(e.table_name);
    if (table != nullptr) {
      size_t at = e.row_index;
      if (at > table->row_count()) at = table->row_count();
      table->RawInsertAt(at, std::move(e.row));
      if (txn != nullptr && e.row_id != 0) {
        size_t slot = at < table->row_count() ? at : table->row_count() - 1;
        RowMeta meta;
        meta.row_id = e.row_id;
        meta.commit_ts = e.meta_commit_ts;
        meta.writer = e.meta_writer;
        table->RestoreMetaAt(slot, meta);
        if (e.meta_writer != txn->id) {
          table->DropStashedVersion(e.row_id, txn->id);
        }
      }
    }
    break;
  }
  case UndoEntry::Kind::kUpdate: {
    Table* table = catalog.FindTable(e.table_name);
    if (table == nullptr) break;
    size_t slot = e.row_index;
    if (txn != nullptr && e.row_id != 0) {
      slot = table->FindSlotByRowId(e.row_id, e.row_index);
    }
    if (slot < table->row_count()) {
      table->RawReplaceAt(slot, std::move(e.row));
      if (txn != nullptr && e.row_id != 0) {
        RowMeta meta;
        meta.row_id = e.row_id;
        meta.commit_ts = e.meta_commit_ts;
        meta.writer = e.meta_writer;
        table->RestoreMetaAt(slot, meta);
        if (e.meta_writer != txn->id) {
          table->DropStashedVersion(e.row_id, txn->id);
        }
      }
    }
    break;
  }
  case UndoEntry::Kind::kTruncate: {
    Table* table = catalog.FindTable(e.table_name);
    if (table != nullptr) {
      table->RawRestoreAll(std::move(e.bulk_rows));
    }
    break;
  }
  case UndoEntry::Kind::kCreateTable:
    (void)catalog.DropTable(e.table_name);
    break;
  case UndoEntry::Kind::kDropTable: {
    auto table = std::make_unique<Table>(e.saved_schema);
    // Re-register the dropped indexes (metadata and structure; DropTable
    // erased both), then restore the data, which refills them. The
    // PRIMARY KEY index is re-created by the Table constructor.
    for (const IndexInfo& info : e.saved_indexes) {
      (void)catalog.CreateIndex(info);
      (void)table->AddSecondaryIndex(info.name, info.columns,
                                     info.unique);
    }
    table->RawRestoreAll(std::move(e.saved_rows));
    catalog.RestoreTable(std::move(table));
    break;
  }
  case UndoEntry::Kind::kCreateSequence:
    (void)catalog.DropSequence(e.table_name);
    break;
  case UndoEntry::Kind::kDropSequence: {
    (void)catalog.CreateSequence(e.table_name, e.sequence_value);
    if (Sequence* seq = catalog.FindSequence(e.table_name)) {
      seq->next_value = e.sequence_value;
    }
    break;
  }
  case UndoEntry::Kind::kSequenceAdvance: {
    if (Sequence* seq = catalog.FindSequence(e.table_name)) {
      seq->next_value = e.sequence_value;
    }
    break;
  }
  case UndoEntry::Kind::kCreateIndex: {
    Table* table = catalog.FindTable(e.index_table);
    if (table != nullptr) (void)table->DropSecondaryIndex(e.table_name);
    (void)catalog.DropIndex(e.table_name);
    break;
  }
  case UndoEntry::Kind::kDropIndex: {
    // Restore the dropped index (structure + catalog metadata),
    // rebuilt from the table's current rows; Raw* replay of any
    // remaining data entries keeps it maintained from here on.
    for (IndexInfo& info : e.saved_indexes) {
      if (Table* table = catalog.FindTable(info.table_name)) {
        (void)table->AddSecondaryIndex(info.name, info.columns,
                                       info.unique);
      }
      (void)catalog.CreateIndex(info);
    }
    break;
  }
  case UndoEntry::Kind::kCreateView:
    (void)catalog.DropView(e.table_name);
    break;
  case UndoEntry::Kind::kDropView:
    (void)catalog.CreateView(e.table_name, std::move(e.saved_view));
    break;
  }
}

}  // namespace

void UndoLog::RollbackInto(Database* db) {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    UndoOne(*it, db, txn);
  }
  entries_.clear();
}

bool UndoLog::RollbackTo(size_t mark, Database* db) {
  bool undid_ddl = false;
  while (entries_.size() > mark) {
    undid_ddl = undid_ddl || IsDdlUndo(entries_.back().kind);
    UndoOne(entries_.back(), db, txn);
    entries_.pop_back();
  }
  return undid_ddl;
}

}  // namespace sqlflow::sql
