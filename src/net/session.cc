#include "net/session.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "wfc/service.h"

namespace sqlflow::net {

namespace {

/// SQL-level transaction control must not be wrapped in the session's
/// own ledger transaction (no nesting in this engine) — those requests
/// run bare and stay outside the durable dedup.
bool IsTxnControl(std::string_view sql) {
  size_t i = 0;
  while (i < sql.size() &&
         (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' ||
          sql[i] == '\r')) {
    ++i;
  }
  auto starts_with = [&](std::string_view kw) {
    if (sql.size() - i < kw.size()) return false;
    for (size_t j = 0; j < kw.size(); ++j) {
      char c = sql[i + j];
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
      if (c != kw[j]) return false;
    }
    return true;
  };
  return starts_with("BEGIN") || starts_with("COMMIT") ||
         starts_with("ROLLBACK") || starts_with("START");
}

sql::ResultSet InstanceIdResult(uint64_t instance_id) {
  sql::ResultSet rs({"INSTANCE_ID"});
  rs.AddRow({Value::Integer(static_cast<int64_t>(instance_id))});
  return rs;
}

}  // namespace

std::string EncodeOutcome(const Status& status, const sql::ResultSet& rs) {
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  sql::WalPutString(out, status.message());
  PutResultSet(out, rs);
  return out;
}

Status DecodeOutcome(std::string_view encoded, Status* status,
                     sql::ResultSet* rs) {
  sql::WalReader r(encoded);
  SQLFLOW_ASSIGN_OR_RETURN(uint8_t code, r.U8());
  SQLFLOW_ASSIGN_OR_RETURN(std::string message, r.Str());
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  SQLFLOW_ASSIGN_OR_RETURN(*rs, ReadResultSet(r));
  return Status::OK();
}

Session::Session(std::shared_ptr<sql::Database> conn, WorkflowState* wf)
    : conn_(std::move(conn)), wf_(wf) {}

Response Session::Handle(const Request& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  static obs::Counter& requests =
      obs::MetricsRegistry::Global().GetCounter("net.requests");
  requests.Increment();
  Response response;
  response.request_id = request.request_id;
  switch (request.type) {
    case MessageType::kExecuteSql:
      response = ExecuteSql(request);
      break;
    case MessageType::kStartInstance:
      response = StartInstance(request);
      break;
    case MessageType::kInvokeService:
      response = InvokeService(request);
      break;
    case MessageType::kQueryAudit:
      response = QueryAudit(request);
      break;
    case MessageType::kPing:
      break;  // OK, empty result
    default:
      response.status = Status::InvalidArgument(
          "request type " +
          std::to_string(static_cast<int>(request.type)) +
          " is not executable");
      break;
  }
  cached_in_txn_.store(conn_->in_transaction(), std::memory_order_relaxed);
  cached_txn_.store(conn_->ReaderTxnId(), std::memory_order_relaxed);
  return response;
}

bool Session::ReplayRecorded(const std::string& key, Response* out) {
  sql::WalManager* wal = conn_->wal();
  if (key.empty() || wal == nullptr) return false;
  auto entry = wal->FindNetRequest(key);
  if (!entry.has_value() || entry->state != sql::WalNetRequest::kDone) {
    return false;
  }
  Status status;
  sql::ResultSet rs;
  if (!DecodeOutcome(entry->response, &status, &rs).ok()) return false;
  out->status = std::move(status);
  out->result = std::move(rs);
  obs::MetricsRegistry::Global()
      .GetCounter("net.request.deduped")
      .Increment();
  return true;
}

Response Session::ExecuteSql(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  if (ReplayRecorded(request.idempotency_key, &response)) return response;

  const bool use_ledger = !request.idempotency_key.empty() &&
                          conn_->wal() != nullptr &&
                          !conn_->in_transaction() &&
                          !IsTxnControl(request.sql);
  if (!use_ledger) {
    auto result = conn_->Execute(request.sql, request.params);
    if (result.ok()) {
      response.result = std::move(*result);
    } else {
      response.status = result.status();
    }
    return response;
  }

  // Keyed autocommit statement: run it inside a transaction whose
  // commit batch also carries the ledger entry. The statement's effects
  // and the dedup marker become durable atomically, which is the whole
  // exactly-once story — a crash can't separate them.
  Status begin = conn_->Begin();
  if (!begin.ok()) {
    response.status = begin;
    return response;
  }
  auto result = conn_->Execute(request.sql, request.params);
  if (!result.ok()) {
    (void)conn_->Rollback();
    // Failed statements are deliberately not recorded: the failure may
    // be transient and a retry should get a fresh execution.
    response.status = result.status();
    return response;
  }
  (void)conn_->AddWalAttachment(sql::WalNetRequestRecord(
      request.idempotency_key,
      {sql::WalNetRequest::kDone, 0,
       EncodeOutcome(Status::OK(), *result)}));
  Status commit = conn_->Commit();
  if (!commit.ok()) {
    // Commit failure already rolled the transaction (and the queued
    // ledger entry) back inside Database::Commit.
    response.status = commit;
    return response;
  }
  response.result = std::move(*result);
  return response;
}

Response Session::StartInstance(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  if (wf_ == nullptr || wf_->engine == nullptr) {
    response.status =
        Status::Unsupported("this server has no workflow engine");
    return response;
  }
  if (ReplayRecorded(request.idempotency_key, &response)) return response;

  std::map<std::string, wfc::VarValue> inputs;
  for (const auto& [name, value] : request.args) inputs[name] = value;

  std::lock_guard<std::mutex> wf_lock(wf_->mutex);
  sql::WalManager* wal = conn_->wal();
  const std::string& key = request.idempotency_key;
  const bool keyed = !key.empty() && wal != nullptr;

  if (keyed) {
    // A pending ledger entry means a previous incarnation crashed with
    // this request in flight; its instance id (recorded before the run
    // started) tells us how far it got.
    auto entry = wal->FindNetRequest(key);
    if (entry.has_value() &&
        entry->state == sql::WalNetRequest::kPending) {
      const uint64_t id = entry->instance_id;
      auto done = wf_->results.find(id);
      if (done != wf_->results.end()) {
        // Resumed (or completed this incarnation): answer from the
        // finished instance and finalize the ledger.
        response.status = done->second.status;
        response.result = InstanceIdResult(id);
        (void)conn_->AddWalAttachment(sql::WalNetRequestRecord(
            key, {sql::WalNetRequest::kDone, id,
                  EncodeOutcome(response.status, response.result)}));
        obs::MetricsRegistry::Global()
            .GetCounter("net.request.deduped")
            .Increment();
        return response;
      }
      auto wf_state = wal->WfState();
      auto logged = wf_state.find(id);
      if (logged != wf_state.end()) {
        if (logged->second.ended) {
          // The instance finished before the crash but the kDone record
          // didn't make it. Its effects are committed exactly once; the
          // recorded response is lost, so synthesize the completion.
          response.result = InstanceIdResult(id);
          (void)conn_->AddWalAttachment(sql::WalNetRequestRecord(
              key, {sql::WalNetRequest::kDone, id,
                    EncodeOutcome(response.status, response.result)}));
          obs::MetricsRegistry::Global()
              .GetCounter("net.request.deduped")
              .Increment();
          return response;
        }
        // Started but neither ended nor resumed: recovery has not run
        // its course. Re-running would duplicate the instance's
        // committed steps — refuse transiently instead.
        response.status = Status::Unavailable(
            "instance " + std::to_string(id) +
            " is awaiting resume; retry after recovery");
        return response;
      }
      // The crash hit between the pending record and the instance's
      // first WAL record: nothing ran, a fresh run is safe. Fall
      // through — the new pending record supersedes the stale one.
    }
  }

  const uint64_t instance_id = wf_->engine->AllocateInstanceId();
  if (keyed) {
    Status pending = conn_->AddWalAttachment(sql::WalNetRequestRecord(
        key, {sql::WalNetRequest::kPending, instance_id, ""}));
    if (!pending.ok()) {
      response.status = std::move(pending);
      return response;
    }
  }
  auto run = wf_->engine->RunAllocatedInstance(instance_id, request.target,
                                              inputs);
  if (!run.ok()) {
    // Unknown process — the instance never started; the pending record
    // (if any) is inert and a retry fails the same way.
    response.status = run.status();
    return response;
  }
  wf_->results[run->instance_id] = *run;
  response.status = run->status;
  response.result = InstanceIdResult(run->instance_id);
  if (keyed) {
    (void)conn_->AddWalAttachment(sql::WalNetRequestRecord(
        key, {sql::WalNetRequest::kDone, run->instance_id,
              EncodeOutcome(response.status, response.result)}));
  }
  return response;
}

Response Session::InvokeService(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  if (wf_ == nullptr || wf_->engine == nullptr) {
    response.status =
        Status::Unsupported("this server has no service registry");
    return response;
  }
  auto service = wf_->engine->services().Find(request.target);
  if (!service.ok()) {
    response.status = service.status();
    return response;
  }
  std::vector<std::pair<std::string, Value>> params = request.args;
  if (!request.idempotency_key.empty()) {
    // Service-level dedup: IdempotentService answers repeats of this
    // key from its response cache without re-invoking the endpoint.
    params.emplace_back(wfc::IdempotentService::kKeyParam,
                        Value::String(request.idempotency_key));
  }
  auto reply =
      wfc::InvokeWithRecovery(**service, wfc::MakeRequest(params));
  if (!reply.ok()) {
    response.status = reply.status();
    return response;
  }
  auto value = wfc::GetResponseValue(*reply);
  if (!value.ok()) {
    response.status = value.status();
    return response;
  }
  sql::ResultSet rs({"VALUE"});
  rs.AddRow({std::move(*value)});
  response.result = std::move(rs);
  return response;
}

Response Session::QueryAudit(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  if (wf_ == nullptr || wf_->engine == nullptr) {
    response.status =
        Status::Unsupported("this server has no workflow engine");
    return response;
  }
  std::lock_guard<std::mutex> wf_lock(wf_->mutex);
  auto it = wf_->results.find(request.instance_id);
  if (it == wf_->results.end()) {
    response.status = Status::NotFound(
        "no finished instance " + std::to_string(request.instance_id) +
        " on this server");
    return response;
  }
  // Timestamps and durations are deliberately omitted: the audit reply
  // is stable across runs, which the chaos differentials rely on.
  sql::ResultSet rs({"SEQ", "KIND", "ACTIVITY", "DETAIL", "ATTEMPT"});
  for (const wfc::AuditEvent& event : it->second.audit.events()) {
    rs.AddRow({Value::Integer(static_cast<int64_t>(event.sequence)),
               Value::String(wfc::AuditEventKindName(event.kind)),
               Value::String(event.activity),
               Value::String(event.detail),
               Value::Integer(event.attempt)});
  }
  response.result = std::move(rs);
  return response;
}

}  // namespace sqlflow::net
