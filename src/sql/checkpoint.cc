#include "sql/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sql/catalog.h"
#include "sql/database.h"
#include "sql/schema.h"
#include "sql/table.h"

namespace sqlflow::sql {

namespace {

constexpr uint32_t kSnapshotMagic = 0x50414E53;  // "SNAP"
constexpr uint32_t kSnapshotVersion = 1;

std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.bin";
}

/// Catalog objects as re-executable DDL, in dependency-safe order:
/// tables first, then the indexes over them, then views (stored
/// unvalidated, so view-on-view order is irrelevant).
std::vector<std::string> CatalogDdl(Database& db) {
  Catalog& catalog = db.catalog();
  std::vector<std::string> ddl;
  for (const std::string& name : catalog.TableNames()) {
    const Table* table = catalog.FindTable(name);
    if (table == nullptr || table->read_only()) continue;
    ddl.push_back(CreateTableSql(table->schema()));
  }
  for (const std::string& name : catalog.TableNames()) {
    for (const IndexInfo& info : catalog.IndexesOnTable(name)) {
      std::string stmt = info.unique ? "CREATE UNIQUE INDEX " :
                                       "CREATE INDEX ";
      stmt += info.name + " ON " + info.table_name + " (";
      for (size_t i = 0; i < info.columns.size(); ++i) {
        if (i > 0) stmt += ", ";
        stmt += info.columns[i];
      }
      stmt += ")";
      ddl.push_back(std::move(stmt));
    }
  }
  for (const std::string& name : catalog.ViewNames()) {
    const SelectStatement* view = catalog.FindView(name);
    if (view == nullptr) continue;
    ddl.push_back("CREATE VIEW " + name + " AS " + SelectToString(*view));
  }
  return ddl;
}

}  // namespace

Status WriteSnapshot(Database& db, const std::string& dir,
                     uint64_t snapshot_lsn,
                     const std::map<uint64_t, WfInstanceLog>& wf_state) {
  Catalog& catalog = db.catalog();
  std::string out;
  WalPutU32(out, kSnapshotMagic);
  WalPutU32(out, kSnapshotVersion);
  WalPutU64(out, snapshot_lsn);

  std::vector<std::string> ddl = CatalogDdl(db);
  WalPutU32(out, static_cast<uint32_t>(ddl.size()));
  for (const std::string& stmt : ddl) WalPutString(out, stmt);

  std::vector<std::string> table_names;
  for (const std::string& name : catalog.TableNames()) {
    const Table* table = catalog.FindTable(name);
    if (table != nullptr && !table->read_only()) table_names.push_back(name);
  }
  WalPutU32(out, static_cast<uint32_t>(table_names.size()));
  for (const std::string& name : table_names) {
    const Table* table = catalog.FindTable(name);
    WalPutString(out, table->schema().table_name());
    WalPutU64(out, table->next_row_id());
    auto rows = table->CommittedRowsWithIds();
    WalPutU32(out, static_cast<uint32_t>(rows.size()));
    for (const auto& [row_id, row] : rows) {
      WalPutU64(out, row_id);
      WalPutRow(out, row);
    }
  }

  std::vector<std::string> seq_names = catalog.SequenceNames();
  WalPutU32(out, static_cast<uint32_t>(seq_names.size()));
  for (const std::string& name : seq_names) {
    const Sequence* seq = catalog.FindSequence(name);
    WalPutString(out, seq->name);
    WalPutU64(out, static_cast<uint64_t>(seq->start_with));
    WalPutU64(out, static_cast<uint64_t>(seq->next_value));
  }

  WalPutU32(out, static_cast<uint32_t>(wf_state.size()));
  for (const auto& [id, log] : wf_state) {
    WalPutU64(out, id);
    WalPutString(out, log.start_payload);
    WalPutU32(out, static_cast<uint32_t>(log.steps.size()));
    for (const std::string& s : log.steps) WalPutString(out, s);
    WalPutU32(out, static_cast<uint32_t>(log.attempts.size()));
    for (const std::string& s : log.attempts) WalPutString(out, s);
    out.push_back(log.ended ? 1 : 0);
  }

  WalPutU32(out, WalCrc32(out.data(), out.size()));

  std::string path = SnapshotPath(dir);
  std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::DataLoss("cannot write snapshot temp " + tmp);
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f) return Status::DataLoss("snapshot write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::DataLoss("cannot rename snapshot into place: " + path);
  }
  return Status::OK();
}

Result<SnapshotData> LoadSnapshot(Database& db, const std::string& dir) {
  std::ifstream f(SnapshotPath(dir), std::ios::binary);
  if (!f) return SnapshotData{};  // no snapshot: full-log replay
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string bytes = std::move(buf).str();
  if (bytes.size() < 4) {
    return Status::DataLoss("snapshot file truncated: " +
                            SnapshotPath(dir));
  }
  // Trailing CRC over everything before it.
  std::string_view body(bytes.data(), bytes.size() - 4);
  WalReader crc_reader(
      std::string_view(bytes.data() + bytes.size() - 4, 4));
  uint32_t stored_crc = *crc_reader.U32();
  if (WalCrc32(body.data(), body.size()) != stored_crc) {
    return Status::DataLoss("snapshot failed CRC check: " +
                            SnapshotPath(dir));
  }

  WalReader r(body);
  SQLFLOW_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  SQLFLOW_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (magic != kSnapshotMagic || version != kSnapshotVersion) {
    return Status::DataLoss("snapshot has wrong magic/version");
  }
  SnapshotData data;
  SQLFLOW_ASSIGN_OR_RETURN(data.snapshot_lsn, r.U64());

  SQLFLOW_ASSIGN_OR_RETURN(uint32_t n_ddl, r.U32());
  for (uint32_t i = 0; i < n_ddl; ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(std::string stmt, r.Str());
    auto result = db.Execute(stmt);
    if (!result.ok()) {
      return Status::DataLoss("snapshot DDL failed: [" + stmt + "]: " +
                              result.status().ToString());
    }
  }

  SQLFLOW_ASSIGN_OR_RETURN(uint32_t n_tables, r.U32());
  for (uint32_t i = 0; i < n_tables; ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(std::string name, r.Str());
    SQLFLOW_ASSIGN_OR_RETURN(uint64_t next_row_id, r.U64());
    Table* table = db.catalog().FindTable(name);
    if (table == nullptr) {
      return Status::DataLoss("snapshot rows for unknown table " + name);
    }
    SQLFLOW_ASSIGN_OR_RETURN(uint32_t n_rows, r.U32());
    for (uint32_t j = 0; j < n_rows; ++j) {
      SQLFLOW_ASSIGN_OR_RETURN(uint64_t row_id, r.U64());
      SQLFLOW_ASSIGN_OR_RETURN(Row row, r.RowField());
      table->ReplayInsert(std::move(row), row_id);
    }
    table->SetNextRowIdAtLeast(next_row_id);
  }

  SQLFLOW_ASSIGN_OR_RETURN(uint32_t n_seqs, r.U32());
  for (uint32_t i = 0; i < n_seqs; ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(std::string name, r.Str());
    SQLFLOW_ASSIGN_OR_RETURN(uint64_t start_with, r.U64());
    SQLFLOW_ASSIGN_OR_RETURN(uint64_t next_value, r.U64());
    SQLFLOW_RETURN_IF_ERROR(db.catalog().CreateSequence(
        name, static_cast<int64_t>(start_with)));
    db.catalog().FindSequence(name)->next_value =
        static_cast<int64_t>(next_value);
  }

  SQLFLOW_ASSIGN_OR_RETURN(uint32_t n_wf, r.U32());
  for (uint32_t i = 0; i < n_wf; ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(uint64_t id, r.U64());
    WfInstanceLog log;
    SQLFLOW_ASSIGN_OR_RETURN(log.start_payload, r.Str());
    SQLFLOW_ASSIGN_OR_RETURN(uint32_t n_steps, r.U32());
    for (uint32_t j = 0; j < n_steps; ++j) {
      SQLFLOW_ASSIGN_OR_RETURN(std::string s, r.Str());
      log.steps.push_back(std::move(s));
    }
    SQLFLOW_ASSIGN_OR_RETURN(uint32_t n_attempts, r.U32());
    for (uint32_t j = 0; j < n_attempts; ++j) {
      SQLFLOW_ASSIGN_OR_RETURN(std::string s, r.Str());
      log.attempts.push_back(std::move(s));
    }
    SQLFLOW_ASSIGN_OR_RETURN(uint8_t ended, r.U8());
    log.ended = ended != 0;
    data.wf_state[id] = std::move(log);
  }

  return data;
}

std::string CanonicalStateDump(Database& db) {
  Catalog& catalog = db.catalog();
  std::string out;
  for (const std::string& name : catalog.TableNames()) {
    const Table* table = catalog.FindTable(name);
    if (table == nullptr || table->read_only()) continue;
    out += "TABLE " + CreateTableSql(table->schema()) + "\n";
    for (const SecondaryIndex& idx : table->secondary_indexes()) {
      if (!idx.unique) continue;
      out += "  UNIQUE " + idx.name + " (";
      for (size_t i = 0; i < idx.column_indexes.size(); ++i) {
        if (i > 0) out += ",";
        out += table->schema().columns()[idx.column_indexes[i]].name;
      }
      out += ")\n";
    }
    for (const SecondaryIndex& idx : table->secondary_indexes()) {
      out += "  INDEX " + idx.name + (idx.unique ? " UNIQUE" : "") + "\n";
    }
    auto committed = table->CommittedRowsWithIds();
    std::vector<std::string> rows;
    rows.reserve(committed.size());
    for (const auto& [row_id, row] : committed) {
      std::string bytes;
      WalPutRow(bytes, row);
      rows.push_back(std::move(bytes));
    }
    std::sort(rows.begin(), rows.end());
    out += "  ROWS " + std::to_string(rows.size()) + "\n";
    for (const std::string& bytes : rows) {
      out += "  ";
      for (unsigned char c : bytes) {
        static const char* hex = "0123456789abcdef";
        out += hex[c >> 4];
        out += hex[c & 0xF];
      }
      out += "\n";
    }
  }
  for (const std::string& name : catalog.SequenceNames()) {
    const Sequence* seq = catalog.FindSequence(name);
    out += "SEQUENCE " + seq->name + " start=" +
           std::to_string(seq->start_with) + " next=" +
           std::to_string(seq->next_value) + "\n";
  }
  for (const std::string& name : catalog.ViewNames()) {
    const SelectStatement* view = catalog.FindView(name);
    if (view == nullptr) continue;
    out += "VIEW " + name + " AS " + SelectToString(*view) + "\n";
  }
  return out;
}

}  // namespace sqlflow::sql
