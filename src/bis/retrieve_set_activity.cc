#include "bis/retrieve_set_activity.h"

#include "bis/set_reference.h"
#include "bis/sql_activity.h"
#include "rowset/xml_rowset.h"

namespace sqlflow::bis {

RetrieveSetActivity::RetrieveSetActivity(std::string name, Config config)
    : Activity(std::move(name)), config_(std::move(config)) {}

Status RetrieveSetActivity::Execute(wfc::ProcessContext& ctx) {
  SQLFLOW_ASSIGN_OR_RETURN(
      std::shared_ptr<sql::Database> db,
      ResolveDataSource(ctx, config_.data_source_variable));
  SQLFLOW_ASSIGN_OR_RETURN(
      SetReferencePtr ref,
      ctx.variables().GetObjectAs<SetReference>(config_.set_reference));
  // Read through the statement path, not the catalog: the read then
  // holds the shared statement latch against concurrent lifecycle DDL
  // and sees this connection's snapshot, not other transactions'
  // pending rows. The lifecycle DDL splices the same name into SQL.
  SQLFLOW_ASSIGN_OR_RETURN(sql::ResultSet result,
                           db->Execute("SELECT * FROM " + ref->table_name()));

  xml::NodePtr rowset = rowset::ToRowSet(result);
  ctx.variables().Set(config_.set_variable,
                      wfc::VarValue(std::move(rowset)));
  ctx.audit().Record(
      wfc::AuditEventKind::kNote, name(),
      "materialized " + std::to_string(result.row_count()) +
          " rows from " + ref->table_name() + " into set variable " +
          config_.set_variable);
  return Status::OK();
}

}  // namespace sqlflow::bis
