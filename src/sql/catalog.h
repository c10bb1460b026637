#ifndef SQLFLOW_SQL_CATALOG_H_
#define SQLFLOW_SQL_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/table.h"

namespace sqlflow::sql {

/// Named monotonic counter (CREATE SEQUENCE); NEXTVAL advances it.
struct Sequence {
  std::string name;
  int64_t start_with = 1;
  int64_t next_value = 1;
};

/// Metadata for a created index. The owning table holds the index itself
/// (Table::secondary_indexes), which the planner probes and which, when
/// `unique`, enforces the key; the catalog entry records it by name for
/// DROP INDEX, rollback and the Data Setup pattern.
struct IndexInfo {
  std::string name;
  std::string table_name;
  std::vector<std::string> columns;
  bool unique = false;
};

/// Name → object maps for one database. Names are case-insensitive.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // --- tables ---------------------------------------------------------------
  Status CreateTable(TableSchema schema);
  Status DropTable(const std::string& name);
  /// nullptr if absent.
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;
  Result<Table*> GetTable(const std::string& name);
  std::vector<std::string> TableNames() const;

  /// Re-registers a dropped table during rollback.
  void RestoreTable(std::unique_ptr<Table> table);
  /// Detaches a table (used when recording a DROP for undo).
  std::unique_ptr<Table> TakeTable(const std::string& name);

  // --- virtual tables --------------------------------------------------------
  /// Produces the current rows of one virtual table from live engine
  /// state. Generators must only *read* engine state (no SQL execution,
  /// no catalog mutation) — they run between statements.
  using VirtualRowGenerator = std::function<std::vector<Row>()>;

  /// Registers a read-only table (by convention named `sys.<name>`)
  /// whose rows are regenerated on demand. Virtual tables resolve
  /// through FindTable/GetTable like base tables but are excluded from
  /// TableNames(), DROP and TRUNCATE.
  Status RegisterVirtualTable(TableSchema schema,
                              VirtualRowGenerator generator);
  bool HasVirtualTables() const { return !virtual_tables_.empty(); }
  bool IsVirtualTable(const std::string& name) const;
  std::vector<std::string> VirtualTableNames() const;
  /// Regenerates the rows of every virtual table in `names` (non-virtual
  /// names are ignored). Called by the database before executing a
  /// statement that references a sys.* name, never mid-statement.
  void RefreshVirtualTables(const std::vector<std::string>& names);

  // --- views -----------------------------------------------------------------
  /// Stores a named SELECT; name must not collide with a table or view.
  Status CreateView(const std::string& name,
                    std::unique_ptr<SelectStatement> select);
  Status DropView(const std::string& name);
  /// nullptr if absent.
  const SelectStatement* FindView(const std::string& name) const;
  std::vector<std::string> ViewNames() const;
  /// Detaches a view definition (for undo bookkeeping).
  std::unique_ptr<SelectStatement> TakeView(const std::string& name);

  // --- sequences ------------------------------------------------------------
  Status CreateSequence(const std::string& name, int64_t start_with);
  Status DropSequence(const std::string& name);
  Sequence* FindSequence(const std::string& name);
  Result<int64_t> SequenceNextValue(const std::string& name);
  std::vector<std::string> SequenceNames() const;

  // --- indexes ----------------------------------------------------------------
  Status CreateIndex(const IndexInfo& info);
  Status DropIndex(const std::string& name);
  const IndexInfo* FindIndex(const std::string& name) const;
  std::vector<IndexInfo> IndexesOnTable(const std::string& table) const;

 private:
  static std::string Key(const std::string& name);

  struct VirtualEntry {
    std::unique_ptr<Table> table;
    VirtualRowGenerator generator;
  };

  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, VirtualEntry> virtual_tables_;
  std::map<std::string, std::unique_ptr<SelectStatement>> views_;
  std::map<std::string, Sequence> sequences_;
  std::map<std::string, IndexInfo> indexes_;
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_CATALOG_H_
