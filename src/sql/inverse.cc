#include "sql/inverse.h"

#include "sql/database.h"
#include "sql/schema.h"
#include "sql/table.h"

namespace sqlflow::sql {

namespace {

/// The columns a compensating DELETE/UPDATE keys on: the table's first
/// unique index (the PRIMARY KEY, when one exists) or every column.
std::vector<size_t> KeyColumns(const Table& table) {
  for (const SecondaryIndex& index : table.secondary_indexes()) {
    if (index.unique) return index.column_indexes;
  }
  std::vector<size_t> all(table.schema().column_count());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

/// Appends "c1 = ? AND c2 IS NULL AND ..." for `row` projected onto
/// `key_columns`, binding the non-null values positionally.
void AppendKeyPredicate(const Table& table,
                        const std::vector<size_t>& key_columns,
                        const Row& row, std::string* sql,
                        Params* params) {
  bool first = true;
  for (size_t col : key_columns) {
    if (!first) *sql += " AND ";
    first = false;
    *sql += table.schema().columns()[col].name;
    if (row[col].is_null()) {
      *sql += " IS NULL";
    } else {
      *sql += " = ?";
      params->Add(row[col]);
    }
  }
}

InverseStatement MakeReinsert(const Table& table, const Row& row) {
  InverseStatement inv;
  inv.sql = "INSERT INTO " + table.schema().table_name() + " (";
  std::string placeholders;
  for (size_t i = 0; i < table.schema().column_count(); ++i) {
    if (i > 0) {
      inv.sql += ", ";
      placeholders += ", ";
    }
    inv.sql += table.schema().columns()[i].name;
    placeholders += '?';
    inv.params.Add(row[i]);
  }
  inv.sql += ") VALUES (" + placeholders + ')';
  return inv;
}

}  // namespace

Result<std::vector<InverseStatement>> BuildInverseStatements(
    const Database& db, const std::vector<UndoEntry>& effects) {
  std::vector<InverseStatement> program;
  program.reserve(effects.size());
  // Reverse order: the inverse of "do A then B" is "undo B then undo A".
  for (auto it = effects.rbegin(); it != effects.rend(); ++it) {
    const UndoEntry& e = *it;
    const Table* table = db.catalog().FindTable(e.table_name);
    switch (e.kind) {
      case UndoEntry::Kind::kInsert: {
        if (table == nullptr) {
          return Status::NotFound("cannot invert INSERT: table '" +
                                  e.table_name + "' is gone");
        }
        if (e.new_row.empty()) {
          return Status::InvalidArgument(
              "cannot invert INSERT into '" + e.table_name +
              "': effect was captured without row post-images "
              "(set_capture_effects must be on during execution)");
        }
        InverseStatement inv;
        inv.sql = "DELETE FROM " + e.table_name + " WHERE ";
        AppendKeyPredicate(*table, KeyColumns(*table), e.new_row,
                           &inv.sql, &inv.params);
        program.push_back(std::move(inv));
        break;
      }
      case UndoEntry::Kind::kDelete: {
        if (table == nullptr) {
          return Status::NotFound("cannot invert DELETE: table '" +
                                  e.table_name + "' is gone");
        }
        program.push_back(MakeReinsert(*table, e.row));
        break;
      }
      case UndoEntry::Kind::kUpdate: {
        if (table == nullptr) {
          return Status::NotFound("cannot invert UPDATE: table '" +
                                  e.table_name + "' is gone");
        }
        if (e.new_row.empty()) {
          return Status::InvalidArgument(
              "cannot invert UPDATE of '" + e.table_name +
              "': effect was captured without row post-images "
              "(set_capture_effects must be on during execution)");
        }
        InverseStatement inv;
        inv.sql = "UPDATE " + e.table_name + " SET ";
        for (size_t i = 0; i < table->schema().column_count(); ++i) {
          if (i > 0) inv.sql += ", ";
          inv.sql += table->schema().columns()[i].name;
          inv.sql += " = ?";
          inv.params.Add(e.row[i]);
        }
        inv.sql += " WHERE ";
        // Keyed by the new row: that is what the committed table holds.
        AppendKeyPredicate(*table, KeyColumns(*table), e.new_row,
                           &inv.sql, &inv.params);
        program.push_back(std::move(inv));
        break;
      }
      case UndoEntry::Kind::kTruncate: {
        if (table == nullptr) {
          return Status::NotFound("cannot invert TRUNCATE: table '" +
                                  e.table_name + "' is gone");
        }
        for (const Row& row : e.bulk_rows) {
          program.push_back(MakeReinsert(*table, row));
        }
        break;
      }
      case UndoEntry::Kind::kCreateTable:
        program.push_back({"DROP TABLE " + e.table_name, Params()});
        break;
      case UndoEntry::Kind::kCreateSequence:
        program.push_back({"DROP SEQUENCE " + e.table_name, Params()});
        break;
      case UndoEntry::Kind::kCreateIndex:
        program.push_back({"DROP INDEX " + e.table_name, Params()});
        break;
      case UndoEntry::Kind::kCreateView:
        program.push_back({"DROP VIEW " + e.table_name, Params()});
        break;
      case UndoEntry::Kind::kSequenceAdvance:
        break;  // burned sequence numbers stay burned, by design
      case UndoEntry::Kind::kDropTable: {
        // DROP TABLE captures everything needed to rebuild the object:
        // schema, secondary indexes, and the committed rows. The
        // inverse is a real DDL+DML program, so compensation can undo
        // a flow that tore down a per-instance result table.
        if (e.saved_schema.column_count() == 0) {
          return Status::InvalidArgument(
              "cannot invert DROP TABLE '" + e.table_name +
              "': effect was captured without the saved schema "
              "(set_capture_effects must be on during execution)");
        }
        program.push_back({CreateTableSql(e.saved_schema), Params()});
        for (const IndexInfo& index : e.saved_indexes) {
          std::string ddl = std::string("CREATE ") +
                            (index.unique ? "UNIQUE " : "") + "INDEX " +
                            index.name + " ON " + index.table_name +
                            " (";
          for (size_t i = 0; i < index.columns.size(); ++i) {
            if (i > 0) ddl += ", ";
            ddl += index.columns[i];
          }
          ddl += ')';
          program.push_back({std::move(ddl), Params()});
        }
        for (const Row& row : e.saved_rows) {
          InverseStatement inv;
          inv.sql = "INSERT INTO " + e.saved_schema.table_name() + " (";
          std::string placeholders;
          for (size_t i = 0; i < e.saved_schema.column_count(); ++i) {
            if (i > 0) {
              inv.sql += ", ";
              placeholders += ", ";
            }
            inv.sql += e.saved_schema.columns()[i].name;
            placeholders += '?';
            inv.params.Add(row[i]);
          }
          inv.sql += ") VALUES (" + placeholders + ')';
          program.push_back(std::move(inv));
        }
        break;
      }
      case UndoEntry::Kind::kDropSequence:
      case UndoEntry::Kind::kDropIndex:
      case UndoEntry::Kind::kDropView:
        return Status::InvalidArgument(
            "cannot auto-invert a DROP effect on '" + e.table_name +
            "' — recreating dropped objects is DDL migration, not "
            "compensation");
    }
  }
  return program;
}

Status ApplyInverseStatements(
    Database& db, const std::vector<InverseStatement>& program) {
  for (const InverseStatement& inv : program) {
    auto result = db.Execute(inv.sql, inv.params);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

}  // namespace sqlflow::sql
