#include "sql/database.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/checkpoint.h"
#include "sql/executor.h"
#include "sql/fault.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "sql/table.h"

namespace sqlflow::sql {

namespace {

/// Metric handles every statement touches, resolved once: the registry
/// keeps each counter and histogram alive for the whole process, so the
/// per-statement path skips the registry mutex and the name lookup.
struct StatementMetrics {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram& exec = registry.GetHistogram("sql.exec");
  obs::Counter& statements = registry.GetCounter("sql.statements");
  obs::Counter& errors = registry.GetCounter("sql.errors");
  obs::Counter& plan_scan = registry.GetCounter("sql.plan.scan");
  obs::Counter& plan_index_lookup =
      registry.GetCounter("sql.plan.index_lookup");
  obs::Counter& plan_hash_join = registry.GetCounter("sql.plan.hash_join");
  obs::Counter& plan_range_scan = registry.GetCounter("sql.plan.range_scan");
  obs::Counter& plan_pushdown = registry.GetCounter("sql.plan.pushdown");
  obs::Counter& plan_batch = registry.GetCounter("sql.plan.batch");
  obs::Counter& plan_cache_hit = registry.GetCounter("sql.plan_cache.hit");
  obs::Counter& plan_cache_miss = registry.GetCounter("sql.plan_cache.miss");
  obs::Counter& txn_commit = registry.GetCounter("sql.txn.commit");
  obs::Counter& txn_abort = registry.GetCounter("sql.txn.abort");
};

StatementMetrics& Metrics() {
  static StatementMetrics metrics;
  return metrics;
}

/// True if evaluating `e` reads database state that an earlier partial
/// execution could have changed — the property that makes a blind
/// replay double-apply. Parameters and literals are replay-exact;
/// column references and subqueries are not.
bool ExprReadsState(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      return true;
    default:
      break;
  }
  if (e.subquery != nullptr) return true;
  for (const ExprPtr& child : e.children) {
    if (child != nullptr && ExprReadsState(*child)) return true;
  }
  return e.case_else != nullptr && ExprReadsState(*e.case_else);
}

bool SelectAdvancesState(const SelectStatement& s);

/// True if evaluating `e` *writes* engine state — today that means a
/// NEXTVAL call (sequence advance), at any depth including subqueries.
bool ExprAdvancesState(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall && e.function_name == "NEXTVAL") {
    return true;
  }
  for (const ExprPtr& child : e.children) {
    if (child != nullptr && ExprAdvancesState(*child)) return true;
  }
  if (e.case_else != nullptr && ExprAdvancesState(*e.case_else)) {
    return true;
  }
  return e.subquery != nullptr && SelectAdvancesState(*e.subquery);
}

bool SelectAdvancesState(const SelectStatement& s) {
  for (const SelectItem& item : s.items) {
    if (item.expr != nullptr && ExprAdvancesState(*item.expr)) return true;
  }
  for (const TableRef& ref : s.from) {
    if (ref.join_condition != nullptr &&
        ExprAdvancesState(*ref.join_condition)) {
      return true;
    }
    if (ref.derived != nullptr && SelectAdvancesState(*ref.derived)) {
      return true;
    }
  }
  if (s.where != nullptr && ExprAdvancesState(*s.where)) return true;
  for (const ExprPtr& e : s.group_by) {
    if (e != nullptr && ExprAdvancesState(*e)) return true;
  }
  if (s.having != nullptr && ExprAdvancesState(*s.having)) return true;
  for (const OrderByItem& item : s.order_by) {
    if (item.expr != nullptr && ExprAdvancesState(*item.expr)) return true;
  }
  return s.union_next != nullptr && SelectAdvancesState(*s.union_next);
}

/// Whether `stmt` gets wrapped in an implicit MVCC transaction when it
/// runs autocommit in concurrent mode: everything that may write.
/// SELECT stays transaction-free (anonymous snapshot reader), and the
/// transaction-control statements manage the slot themselves.
bool StatementNeedsMvccTxn(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return false;
    case StatementKind::kExplain:
      return stmt.explain->analyze && stmt.explain->target != nullptr &&
             StatementNeedsMvccTxn(*stmt.explain->target);
    default:
      return true;
  }
}

/// Statement latches this thread currently holds (as SharedState
/// addresses). Nested statements — CALL bodies, EXPLAIN ANALYZE
/// targets, BEGIN/COMMIT executed from inside a latched statement —
/// re-enter without re-acquiring; cross-database nesting keeps the
/// vector honest.
thread_local std::vector<const void*> t_held_latches;

}  // namespace

bool IsReplaySafeStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kInsert: {
      // INSERT ... SELECT re-reads the tables it may have changed.
      if (stmt.insert->select != nullptr) return false;
      for (const auto& row : stmt.insert->rows) {
        for (const ExprPtr& value : row) {
          if (value != nullptr && ExprReadsState(*value)) return false;
        }
      }
      return true;
    }
    case StatementKind::kUpdate:
      // Replay-exact even for self-reading assignments: the executor
      // pre-binds every written value against pre-statement state
      // before the first mutation, so after a mid-statement rollback a
      // replay of `x = x + 1` recomputes the same values it was about
      // to write.
      return true;
    case StatementKind::kCall:
      return false;  // opaque body — cannot prove replay exactness
    case StatementKind::kExplain:
      // Plain EXPLAIN never writes; ANALYZE replays its target, so it
      // inherits the target's replay safety.
      return !stmt.explain->analyze ||
             IsReplaySafeStatement(*stmt.explain->target);
    default:
      return true;
  }
}

bool IsSharedReadStatement(const Statement& stmt, const Catalog& catalog) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      break;
    case StatementKind::kExplain:
      // Plain EXPLAIN only plans (no execution); ANALYZE runs its
      // target and inherits the target's classification.
      if (stmt.explain->analyze) return false;
      return stmt.explain->target != nullptr &&
             IsSharedReadStatement(*stmt.explain->target, catalog);
    default:
      return false;
  }
  if (stmt.select == nullptr || SelectAdvancesState(*stmt.select)) {
    return false;
  }
  for (const std::string& name : CollectReferencedTables(stmt)) {
    // Views expand re-entrantly (their bodies may hide NEXTVAL or
    // sys.* references) and sys.* tables are re-materialized in place
    // before the scan — both mutate shared state, so they serialize.
    if (catalog.FindView(name) != nullptr) return false;
    if (catalog.IsVirtualTable(name)) return false;
  }
  return true;
}

/// RAII over the shared statement latch. No-op until the database is in
/// concurrent mode, and when this thread already holds the latch (a
/// nested statement piggybacks on the outer acquisition — note that a
/// nested statement can therefore run under a shared latch its outer
/// SELECT took; that cannot under-lock because pure-read outer
/// statements have no writing nested statements).
class Database::StatementLatch {
 public:
  StatementLatch(Database* db, bool exclusive)
      : state_(db->shared_.get()), exclusive_(exclusive) {
    if (!state_->concurrent.load(std::memory_order_acquire) ||
        std::find(t_held_latches.begin(), t_held_latches.end(),
                  static_cast<const void*>(state_)) !=
            t_held_latches.end()) {
      state_ = nullptr;
      return;
    }
    if (exclusive_) {
      state_->statement_latch.lock();
    } else {
      state_->statement_latch.lock_shared();
    }
    t_held_latches.push_back(state_);
  }

  ~StatementLatch() {
    if (state_ == nullptr) return;
    t_held_latches.pop_back();
    if (exclusive_) {
      state_->statement_latch.unlock();
    } else {
      state_->statement_latch.unlock_shared();
    }
  }

  StatementLatch(const StatementLatch&) = delete;
  StatementLatch& operator=(const StatementLatch&) = delete;

 private:
  SharedState* state_;
  bool exclusive_;
};

Status Database::WithExclusiveStatementLatch(
    const std::function<Status()>& fn) {
  StatementLatch latch(this, /*exclusive=*/true);
  return fn();
}

void Database::Stats::CopyFrom(const Stats& other) {
  statements_executed.store(
      other.statements_executed.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  rows_read.store(other.rows_read.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  rows_written.store(other.rows_written.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  bytes_materialized.store(
      other.bytes_materialized.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  transactions_committed.store(
      other.transactions_committed.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  transactions_rolled_back.store(
      other.transactions_rolled_back.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

Database::Database(std::string name)
    : shared_(std::make_shared<SharedState>(std::move(name))) {
  shared_->retry_policy = RetryPolicyDefaultRef();
}

Database::Database(std::shared_ptr<SharedState> shared, bool optimizer_on)
    : shared_(std::move(shared)), optimizer_enabled_(optimizer_on) {
  // Durable databases build redo records from undo post-images, so
  // every connection's undo log must capture them.
  if (shared_->wal != nullptr) undo_log_.set_capture_rows(true);
}

Database::~Database() {
  // A connection destroyed with a transaction still open aborts it, so
  // the MVCC horizon cannot pin on a dead transaction forever.
  if (txn_active_) {
    if (in_transaction_) {
      (void)Rollback();
    } else {
      AbortMvccTxn();
    }
  }
}

std::shared_ptr<Database> Database::CreateConnection() {
  shared_->concurrent.store(true, std::memory_order_release);
  return std::shared_ptr<Database>(
      new Database(shared_, optimizer_enabled_));
}

uint64_t Database::SnapshotTs() const {
  return txn_active_ ? txn_.begin_ts : shared_->mvcc.epoch();
}

uint64_t Database::ReaderTxnId() const {
  return txn_active_ ? txn_.id : 0;
}

bool Database::NeedsSnapshotRead(const Table& table) const {
  if (!concurrent_mode()) return false;
  return table.NeedsSnapshot(ReaderTxnId(), SnapshotTs());
}

RetryPolicy& Database::RetryPolicyDefaultRef() {
  static RetryPolicy policy;
  return policy;
}

void Database::SetRetryPolicyDefault(RetryPolicy policy) {
  RetryPolicyDefaultRef() = policy;
}

std::shared_ptr<FaultInjector>& Database::GlobalFaultInjectorRef() {
  static std::shared_ptr<FaultInjector> injector;
  return injector;
}

void Database::SetGlobalFaultInjector(
    std::shared_ptr<FaultInjector> inj) {
  GlobalFaultInjectorRef() = std::move(inj);
}

std::shared_ptr<FaultInjector> Database::GlobalFaultInjector() {
  return GlobalFaultInjectorRef();
}

Result<ResultSet> Database::RunOneAttempt(
    const Statement& stmt, const Params& params, const StatementPlan* plan,
    FaultInjector* injector, const std::string& site_description) {
  // Statement scope: active_undo() goes live (statement-level atomicity
  // in autocommit mode), mid-statement sites see the injector, and the
  // table layer's index-maintenance hook routes back here. All state is
  // save/restored so CALL bodies re-enter cleanly — and the hook is
  // *not* installed during rollback, which runs after this returns.
  ++statement_depth_;
  FaultInjector* saved_injector = mid_injector_;
  std::string saved_prefix = std::move(mid_site_prefix_);
  mid_injector_ = injector;
  mid_site_prefix_ = site_description;
  IndexMaintenanceHook saved_hook = ExchangeIndexMaintenanceHook(
      injector == nullptr
          ? IndexMaintenanceHook()
          : [this](const std::string& table, const char* op) {
              return ConsultMidStatementFault(std::string("index ") +
                                              table + ' ' + op);
            });
  Executor executor(this);
  Result<ResultSet> result = executor.Execute(stmt, params, plan);
  (void)ExchangeIndexMaintenanceHook(std::move(saved_hook));
  mid_injector_ = saved_injector;
  mid_site_prefix_ = std::move(saved_prefix);
  --statement_depth_;
  return result;
}

Status Database::ConsultMidStatementFault(const std::string& what) {
  if (mid_injector_ == nullptr || statement_depth_ == 0) {
    return Status::OK();
  }
  FaultSite site;
  site.database = shared_->name;
  site.layer = FaultLayer::kMidStatement;
  site.description = "mid " + mid_site_prefix_ + ' ' + what;
  if (std::optional<Status> fault = mid_injector_->MaybeFault(site)) {
    return *fault;
  }
  return Status::OK();
}

void Database::CaptureUndoEntries() {
  for (UndoEntry& e : undo_log_.mutable_entries()) {
    captured_effects_.push_back(std::move(e));
  }
  undo_log_.Clear();
}

void Database::FinishStatementScope() {
  if (statement_depth_ > 0 || in_transaction_) return;
  // Outermost autocommit statement finished: its writes are durable, so
  // the statement-scope undo entries are either harvested for inverse
  // compensation or discarded.
  if (capture_effects_) {
    CaptureUndoEntries();
  } else {
    undo_log_.Clear();
  }
}

void Database::set_capture_effects(bool on) {
  capture_effects_ = on;
  // Post-image capture stays on regardless while the WAL is armed —
  // redo records are built from the post-images at commit time.
  undo_log_.set_capture_rows(on || shared_->wal != nullptr);
}

std::vector<UndoEntry> Database::TakeCapturedEffects() {
  std::vector<UndoEntry> out = std::move(captured_effects_);
  captured_effects_.clear();
  return out;
}

void Database::CommitMvccTxn() {
  const uint64_t commit_ts = shared_->mvcc.Commit(txn_);
  for (const std::string& table_name : txn_.touched_tables) {
    if (Table* table = shared_->catalog.FindTable(table_name)) {
      table->CommitTxn(txn_.id, commit_ts);
    }
  }
  shared_->mvcc.End(txn_.id);
  // Versions below every live snapshot can never be read again.
  const uint64_t horizon = shared_->mvcc.Horizon();
  size_t dropped = 0;
  for (const std::string& table_name : txn_.touched_tables) {
    if (Table* table = shared_->catalog.FindTable(table_name)) {
      dropped += table->GcVersions(horizon);
    }
  }
  Metrics().txn_commit.Increment();
  if (dropped > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter("sql.mvcc.gc_versions")
        .Increment(dropped);
  }
  txn_active_ = false;
  txn_implicit_ = false;
  undo_log_.txn = nullptr;
}

void Database::AbortMvccTxn() {
  for (const std::string& table_name : txn_.touched_tables) {
    if (Table* table = shared_->catalog.FindTable(table_name)) {
      table->AbortTxn(txn_.id);
    }
  }
  shared_->mvcc.End(txn_.id);
  Metrics().txn_abort.Increment();
  txn_active_ = false;
  txn_implicit_ = false;
  undo_log_.txn = nullptr;
}

Result<ResultSet> Database::RunWithRecovery(const Statement& stmt,
                                            const Params& params,
                                            const StatementPlan* plan) {
  FaultInjector* injector = shared_->fault_injector != nullptr
                                ? shared_->fault_injector.get()
                                : GlobalFaultInjectorRef().get();
  std::string site_description = StatementKindName(stmt.kind);
  for (const std::string& table : CollectReferencedTables(stmt)) {
    site_description += ' ';
    site_description += table;
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  int max_attempts = shared_->retry_policy.max_attempts < 1
                         ? 1
                         : shared_->retry_policy.max_attempts;
  // In concurrent mode, a mutating autocommit statement runs inside an
  // implicit MVCC transaction — one *per attempt*, so a replay after a
  // first-committer-wins abort re-reads at a fresh snapshot and can
  // succeed where the first attempt conflicted.
  const bool wrap_txn = concurrent_mode() && !in_transaction_ &&
                        !txn_active_ && StatementNeedsMvccTxn(stmt);
  for (int attempt = 1;; ++attempt) {
    if (wrap_txn && !txn_active_) {
      shared_->mvcc.Begin(&txn_);
      txn_active_ = true;
      txn_implicit_ = true;
      undo_log_.txn = &txn_;
    }
    // Pre-statement site (the PR-4 model: the statement never started).
    const size_t mark = undo_log_.size();
    Result<ResultSet> result = [&]() -> Result<ResultSet> {
      if (injector != nullptr) {
        FaultSite site;
        site.database = shared_->name;
        site.description = site_description;
        if (std::optional<Status> fault = injector->MaybeFault(site)) {
          return *fault;
        }
      }
      return RunOneAttempt(stmt, params, plan, injector,
                           site_description);
    }();
    if (result.ok()) {
      if (attempt > 1) {
        metrics.GetCounter("sql.fault.absorbed").Increment();
      }
      // Durability point for autocommit: the statement's redo batch must
      // be on disk before its effects commit. An append failure —
      // including an injected crash — unwinds the statement as if it
      // never ran and surfaces the (non-transient) kDataLoss.
      if (shared_->wal != nullptr && statement_depth_ == 0 &&
          !in_transaction_ &&
          (!undo_log_.empty() || !wal_attachments_.empty())) {
        Status wal_status = AppendWalCommitBatch();
        if (!wal_status.ok()) {
          if (!undo_log_.empty() && undo_log_.RollbackTo(0, this)) {
            BumpSchemaEpoch();
          }
          if (wrap_txn && txn_active_ && txn_implicit_) AbortMvccTxn();
          return wal_status;
        }
      }
      // The statement may itself have upgraded the implicit transaction
      // to an explicit one (a CALL body issuing BEGIN) — then it stays
      // open; otherwise the implicit wrapper commits here.
      if (wrap_txn && txn_active_ && txn_implicit_) {
        CommitMvccTxn();
      }
      FinishStatementScope();
      return result;
    }
    // Failure: unwind the statement's own partial writes so the
    // database is byte-identical to its pre-statement state — whether
    // we replay, escalate, or propagate. BEGIN/COMMIT executed by this
    // very statement may have moved the mark, hence the min(). The
    // undo log's txn view is still installed, so replay restores
    // version metadata and drops stashed pre-images as it unwinds.
    const bool had_partial_writes =
        undo_log_.size() > std::min(mark, undo_log_.size());
    if (had_partial_writes) {
      if (undo_log_.RollbackTo(std::min(mark, undo_log_.size()), this)) {
        BumpSchemaEpoch();
      }
      metrics.GetCounter("sql.partial.rolled_back").Increment();
    }
    if (wrap_txn && txn_active_ && txn_implicit_) {
      AbortMvccTxn();
    }
    // Attachments queued by the failed statement must not ride a later
    // commit (inside a transaction they belong to the whole txn scope
    // and survive until COMMIT or ROLLBACK decides).
    if (!in_transaction_) wal_attachments_.clear();
    if (!result.status().IsTransient() || attempt >= max_attempts) {
      return result;
    }
    // Idempotence guard: replaying is only transparent if the rolled-
    // back writes were never observable (transaction) or the statement
    // is replay-exact. Otherwise refuse and escalate the transient
    // fault to the workflow-level retry, which re-runs the whole
    // activity against fresh reads.
    if (had_partial_writes && !in_transaction_ &&
        !IsReplaySafeStatement(stmt)) {
      metrics.GetCounter("sql.retry.refused").Increment();
      return result;
    }
    metrics.GetCounter("sql.retry.attempts").Increment();
  }
}

Result<ResultSet> Database::Execute(std::string_view sql) {
  return Execute(sql, Params::None());
}

Result<ResultSet> Database::Execute(std::string_view sql,
                                    const Params& params) {
  std::shared_ptr<const Statement> stmt;
  std::shared_ptr<const StatementPlan> plan;
  {
    // The cache lock never spans execution: statements and plans are
    // shared_ptr-pinned, copied out, and the lock dropped — execution
    // can re-enter this cache (stored procedures) and evict or
    // invalidate the entry mid-flight.
    std::unique_lock<std::mutex> lock(plan_cache_mutex_);
    if (plan_cache_capacity_ == 0) {
      lock.unlock();
      SQLFLOW_ASSIGN_OR_RETURN(std::unique_ptr<Statement> parsed,
                               ParseStatement(sql));
      return ExecuteStatement(*parsed, params);
    }
    std::string key(sql);
    auto it = plan_cache_.find(key);
    if (it == plan_cache_.end()) {
      plan_cache_stats_.misses++;
      Metrics().plan_cache_miss.Increment();
      SQLFLOW_ASSIGN_OR_RETURN(std::unique_ptr<Statement> parsed,
                               ParseStatement(sql));
      bool cacheable = parsed->kind == StatementKind::kSelect ||
                       parsed->kind == StatementKind::kInsert ||
                       parsed->kind == StatementKind::kUpdate ||
                       parsed->kind == StatementKind::kDelete;
      if (!cacheable) {
        lock.unlock();
        return ExecuteStatement(*parsed, params);
      }
      CachedStatement entry;
      entry.statement =
          std::shared_ptr<const Statement>(std::move(parsed));
      entry.tables = CollectReferencedTables(*entry.statement);
      entry.last_used_tick = ++plan_cache_tick_;
      it = plan_cache_.emplace(std::move(key), std::move(entry)).first;
      EvictPlanCacheOverflow();
    } else {
      plan_cache_stats_.hits++;
      it->second.hits++;
      Metrics().plan_cache_hit.Increment();
      it->second.last_used_tick = ++plan_cache_tick_;
    }
    if (it->second.plan == nullptr ||
        it->second.plan->schema_epoch != schema_epoch()) {
      it->second.plan = std::make_shared<const StatementPlan>(
          PlanStatement(*it->second.statement, this));
    }
    stmt = it->second.statement;
    plan = it->second.plan;
  }
  return ExecuteStatement(*stmt, params, plan.get());
}

void Database::EvictPlanCacheOverflow() {
  while (plan_cache_.size() > plan_cache_capacity_) {
    auto victim = plan_cache_.begin();
    for (auto it = plan_cache_.begin(); it != plan_cache_.end(); ++it) {
      if (it->second.last_used_tick < victim->second.last_used_tick) {
        victim = it;
      }
    }
    plan_cache_.erase(victim);
    plan_cache_stats_.evictions++;
  }
}

void Database::set_plan_cache_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  plan_cache_capacity_ = capacity;
  if (capacity == 0) {
    plan_cache_.clear();
  } else {
    EvictPlanCacheOverflow();
  }
}

std::vector<Database::PlanCacheEntry> Database::PlanCacheEntries() const {
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  std::vector<PlanCacheEntry> out;
  out.reserve(plan_cache_.size());
  for (const auto& [sql, cached] : plan_cache_) {
    PlanCacheEntry entry;
    entry.sql = sql;
    for (const std::string& table : cached.tables) {
      if (!entry.tables.empty()) entry.tables += ',';
      entry.tables += table;
    }
    entry.hits = cached.hits;
    entry.plan_epoch =
        cached.plan == nullptr ? 0 : cached.plan->schema_epoch;
    entry.last_used_tick = cached.last_used_tick;
    entry.has_access_plan = cached.plan != nullptr && cached.plan->has_access;
    entry.has_range_plan = cached.plan != nullptr && cached.plan->has_range;
    out.push_back(std::move(entry));
  }
  return out;
}

void Database::InvalidatePlans(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  std::string upper = ToUpperAscii(table_name);
  for (auto it = plan_cache_.begin(); it != plan_cache_.end();) {
    const std::vector<std::string>& tables = it->second.tables;
    if (std::find(tables.begin(), tables.end(), upper) != tables.end()) {
      it = plan_cache_.erase(it);
      plan_cache_stats_.invalidations++;
      obs::MetricsRegistry::Global()
          .GetCounter("sql.plan_cache.invalidation")
          .Increment();
    } else {
      ++it;
    }
  }
}

void Database::NotePlanChoice(PlanChoice choice) {
  plan_mask_ |= static_cast<unsigned>(choice);
  StatementMetrics& metrics = Metrics();
  switch (choice) {
    case PlanChoice::kScan:
      metrics.plan_scan.Increment();
      break;
    case PlanChoice::kIndexLookup:
      metrics.plan_index_lookup.Increment();
      break;
    case PlanChoice::kHashJoin:
      metrics.plan_hash_join.Increment();
      break;
    case PlanChoice::kRangeScan:
      metrics.plan_range_scan.Increment();
      break;
    case PlanChoice::kPushdown:
      metrics.plan_pushdown.Increment();
      break;
    case PlanChoice::kBatch:
      metrics.plan_batch.Increment();
      break;
  }
}

Result<ResultSet> Database::ExecuteStatement(const Statement& stmt,
                                             const Params& params,
                                             const StatementPlan* plan) {
  Result<ResultSet> result = ExecuteStatementLatched(stmt, params, plan);
  // Group-commit durability point: the redo batch was appended (and
  // ordered) under the latch inside; the fsync wait runs here, after
  // the latch released, so committers on other connections share one
  // flush instead of serializing a syscall each. The commit is not
  // acknowledged until this returns.
  Status durable = WaitPendingWalDurability();
  if (!durable.ok() && result.ok()) result = durable;
  return result;
}

Result<ResultSet> Database::ExecuteStatementLatched(
    const Statement& stmt, const Params& params, const StatementPlan* plan) {
  // Cross-connection statement latch: pure reads share it, everything
  // else is exclusive. Classification only runs in concurrent mode —
  // the latch itself is a no-op before the first CreateConnection().
  const bool shared_read =
      concurrent_mode() && IsSharedReadStatement(stmt, shared_->catalog);
  StatementLatch latch(this, /*exclusive=*/!shared_read);
  obs::Span span("sql.exec");
  span.Set("db", shared_->name);
  span.Set("kind", StatementKindName(stmt.kind));
  // sys.* tables materialize fresh engine state before the statement
  // (never mid-statement, so scans see one consistent snapshot).
  if (shared_->catalog.HasVirtualTables()) {
    shared_->catalog.RefreshVirtualTables(CollectReferencedTables(stmt));
  }
  // Each statement records its own plan choices; nested statements
  // (stored procedures, scripts) tag their own spans and fold back into
  // the enclosing statement's attribute.
  unsigned saved_mask = plan_mask_;
  plan_mask_ = 0;
  Result<ResultSet> result = RunWithRecovery(stmt, params, plan);
  StatementMetrics& metrics = Metrics();
  metrics.exec.Record(static_cast<uint64_t>(span.ElapsedNanos()));
  metrics.statements.Increment();
  if (plan_mask_ != 0) {
    std::string attr;
    auto append = [&](PlanChoice bit, const char* label) {
      if ((plan_mask_ & static_cast<unsigned>(bit)) == 0) return;
      if (!attr.empty()) attr += '+';
      attr += label;
    };
    append(PlanChoice::kIndexLookup, "index_lookup");
    append(PlanChoice::kRangeScan, "range_scan");
    append(PlanChoice::kHashJoin, "hash_join");
    append(PlanChoice::kPushdown, "pushdown");
    append(PlanChoice::kScan, "scan");
    append(PlanChoice::kBatch, "batch");
    span.Set("plan", attr);
  }
  plan_mask_ |= saved_mask;
  if (result.ok()) {
    // Rows touched: result rows for queries, change count for DML.
    int64_t rows = result->row_count() > 0
                       ? static_cast<int64_t>(result->row_count())
                       : result->affected_rows();
    span.Set("rows", std::to_string(rows));
  } else {
    metrics.errors.Increment();
    span.Set("error", result.status().ToString());
  }
  return result;
}

Result<ResultSet> Database::ExecuteSelect(const SelectStatement& select,
                                          const Params& params) {
  Executor executor(this);
  return executor.ExecuteSelect(select, params);
}

Status Database::ExecuteScript(std::string_view sql) {
  SQLFLOW_ASSIGN_OR_RETURN(auto statements, ParseScript(sql));
  for (const auto& stmt : statements) {
    // Route through ExecuteStatement so scripts are traced per statement.
    auto result = ExecuteStatement(*stmt, Params::None());
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

Result<PreparedStatement> Database::Prepare(std::string_view sql) {
  SQLFLOW_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                           ParseStatement(sql));
  return PreparedStatement(this, std::move(stmt));
}

Result<ResultSet> PreparedStatement::Execute(const Params& params) const {
  if (plan_ == nullptr || plan_->schema_epoch != db_->schema_epoch()) {
    plan_ = std::make_shared<const StatementPlan>(
        PlanStatement(*statement_, db_));
  }
  // Keep a local ref in case execution replans re-entrantly.
  std::shared_ptr<const StatementPlan> plan = plan_;
  return db_->ExecuteStatement(*statement_, params, plan.get());
}

int PreparedStatement::parameter_count() const {
  return statement_->parameter_count;
}

Status Database::Begin() {
  StatementLatch latch(this, /*exclusive=*/true);
  if (in_transaction_) {
    return Status::ExecutionError(
        "transaction already open (no nesting in this engine)");
  }
  in_transaction_ = true;
  // Defensive reset — but only at top level: a BEGIN issued from inside
  // a CALL body must not discard the enclosing statement's own undo
  // entries (depth 1 is the BEGIN statement itself).
  if (statement_depth_ <= 1) undo_log_.Clear();
  if (concurrent_mode()) {
    if (txn_active_) {
      // A CALL body issuing BEGIN upgrades the enclosing statement's
      // implicit transaction: its writes so far become part of the
      // explicit transaction's footprint.
      txn_implicit_ = false;
    } else {
      shared_->mvcc.Begin(&txn_);
      txn_active_ = true;
      txn_implicit_ = false;
      undo_log_.txn = &txn_;
    }
  }
  return Status::OK();
}

Status Database::Commit() {
  Status status = [&]() -> Status {
    StatementLatch latch(this, /*exclusive=*/true);
    if (!in_transaction_) {
      return Status::ExecutionError("no open transaction to commit");
    }
    // Durability ordering: the transaction's whole redo batch (plus
    // queued workflow attachments) is appended to the log as one atomic
    // group *before* the commit becomes visible; append failure —
    // including an injected crash — turns this COMMIT into a rollback.
    // Under kEveryCommit the fsync wait itself is deferred past the
    // latch (group commit): the commit is not *acknowledged* until the
    // flush below returns, and because the log is sequential no later
    // acknowledged commit can be durable without this one.
    if (shared_->wal != nullptr &&
        (!undo_log_.empty() || !wal_attachments_.empty())) {
      Status wal_status = AppendWalCommitBatch();
      if (!wal_status.ok()) {
        in_transaction_ = false;  // raw undo replay must not re-log
        undo_log_.RollbackInto(this);
        if (txn_active_) AbortMvccTxn();
        shared_->stats.transactions_rolled_back++;
        BumpSchemaEpoch();
        return wal_status;
      }
    }
    in_transaction_ = false;
    // A committed transaction's effects are durable — harvest them for
    // inverse compensation when capturing, exactly like an autocommit
    // statement's.
    if (capture_effects_) {
      CaptureUndoEntries();
    } else {
      undo_log_.Clear();
    }
    if (txn_active_) CommitMvccTxn();
    shared_->stats.transactions_committed++;
    return Status::OK();
  }();
  // Post-latch flush wait. When COMMIT arrived as SQL text this frame
  // is nested under ExecuteStatement's latch and the wait defers to
  // that outermost frame instead.
  Status durable = WaitPendingWalDurability();
  if (status.ok() && !durable.ok()) status = durable;
  return status;
}

Status Database::Rollback() {
  StatementLatch latch(this, /*exclusive=*/true);
  if (!in_transaction_) {
    return Status::ExecutionError("no open transaction to roll back");
  }
  in_transaction_ = false;  // raw undo replay must not re-log
  undo_log_.RollbackInto(this);
  wal_attachments_.clear();  // the scope they rode died with the txn
  if (txn_active_) AbortMvccTxn();
  shared_->stats.transactions_rolled_back++;
  // Rollback may have undone DDL; force memoized plans to revalidate.
  BumpSchemaEpoch();
  return Status::OK();
}

Status Database::RegisterProcedure(StoredProcedure procedure) {
  std::string key = ToUpperAscii(procedure.name);
  if (shared_->procedures.count(key) > 0) {
    return Status::AlreadyExists("procedure '" + procedure.name +
                                 "' already exists");
  }
  shared_->procedures.emplace(std::move(key), std::move(procedure));
  return Status::OK();
}

Result<ResultSet> Database::CallProcedure(const std::string& name,
                                          const std::vector<Value>& args) {
  auto it = shared_->procedures.find(ToUpperAscii(name));
  if (it == shared_->procedures.end()) {
    return Status::NotFound("no stored procedure '" + name + "'");
  }
  const StoredProcedure& proc = it->second;
  if (proc.arity >= 0 &&
      static_cast<size_t>(proc.arity) != args.size()) {
    return Status::InvalidArgument(
        "procedure '" + name + "' expects " + std::to_string(proc.arity) +
        " arguments, got " + std::to_string(args.size()));
  }
  return proc.body(*this, args);
}

std::vector<std::string> Database::ProcedureNames() const {
  std::vector<std::string> names;
  names.reserve(shared_->procedures.size());
  for (const auto& [key, proc] : shared_->procedures) {
    names.push_back(proc.name);
  }
  return names;
}

// --- durability (WAL + snapshots) ------------------------------------------

Status Database::EnableDurability(const std::string& dir,
                                  WalOptions options) {
  if (shared_->wal != nullptr) {
    return Status::ExecutionError("durability already enabled on '" +
                                  shared_->name + "'");
  }
  if (in_transaction_ || statement_depth_ > 0) {
    return Status::ExecutionError(
        "cannot enable durability inside an open transaction/statement");
  }
  SQLFLOW_ASSIGN_OR_RETURN(std::unique_ptr<WalManager> manager,
                           WalManager::Open(dir, options));
  // Recovery: snapshot first, then the committed tail past it. The WAL
  // is not installed yet, so replayed statements do not re-log.
  SQLFLOW_ASSIGN_OR_RETURN(SnapshotData snap, LoadSnapshot(*this, dir));
  for (auto& [id, log] : snap.wf_state) {
    manager->SeedWfInstance(id, std::move(log));
  }
  manager->set_snapshot_lsn(snap.snapshot_lsn);
  WalManager* raw = manager.get();
  uint64_t committed_end = snap.snapshot_lsn;
  SQLFLOW_RETURN_IF_ERROR(WalManager::ReplayLog(
      raw->log_path(), snap.snapshot_lsn,
      [this, raw](const std::vector<WalRecord>& batch) {
        return ApplyWalBatch(batch, raw);
      },
      &committed_end));
  // Drop the torn tail (and any complete-but-uncommitted records before
  // it) so the batches this incarnation appends land at the committed
  // end — otherwise a later kCommit would sweep the orphans into its
  // batch on the next recovery.
  if (committed_end < raw->current_lsn()) {
    SQLFLOW_RETURN_IF_ERROR(raw->TruncateTo(committed_end));
  }
  shared_->wal = std::move(manager);
  // From here on every mutation's post-image feeds redo records.
  undo_log_.set_capture_rows(true);
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::Recover(const std::string& name,
                                                    const std::string& dir,
                                                    WalOptions options) {
  auto db = std::make_unique<Database>(name);
  SQLFLOW_RETURN_IF_ERROR(db->EnableDurability(dir, options));
  return db;
}

Status Database::Checkpoint() {
  if (shared_->wal == nullptr) {
    return Status::ExecutionError("durability is not enabled on '" +
                                  shared_->name + "'");
  }
  return WithExclusiveStatementLatch([this]() {
    const uint64_t lsn = shared_->wal->current_lsn();
    SQLFLOW_RETURN_IF_ERROR(WriteSnapshot(*this, shared_->wal->dir(), lsn,
                                          shared_->wal->WfState()));
    shared_->wal->set_snapshot_lsn(lsn);
    return Status::OK();
  });
}

Status Database::AddWalAttachment(std::string payload) {
  if (shared_->wal == nullptr) return Status::OK();
  if (in_transaction_ || statement_depth_ > 0) {
    wal_attachments_.push_back(std::move(payload));
    return Status::OK();
  }
  // Between statements: the record forms its own committed batch.
  FaultInjector* injector = shared_->fault_injector != nullptr
                                ? shared_->fault_injector.get()
                                : GlobalFaultInjectorRef().get();
  shared_->wal->SetFaultInjector(injector, shared_->name);
  return shared_->wal->Append(payload);
}

Status Database::AppendWalCommitBatch() {
  std::vector<std::string> payloads = BuildWalPayloadsFromUndo();
  for (std::string& a : wal_attachments_) payloads.push_back(std::move(a));
  wal_attachments_.clear();
  if (payloads.empty()) return Status::OK();
  FaultInjector* injector = shared_->fault_injector != nullptr
                                ? shared_->fault_injector.get()
                                : GlobalFaultInjectorRef().get();
  shared_->wal->SetFaultInjector(injector, shared_->name);
  // Append-only here: the fsync wait (kEveryCommit) is deferred to
  // WaitPendingWalDurability so it runs after the statement latch
  // drops and coalesces with other connections' flushes.
  return shared_->wal->AppendCommit(payloads, &pending_wal_sync_lsn_);
}

Status Database::WaitPendingWalDurability() {
  if (pending_wal_sync_lsn_ == 0) return Status::OK();
  // Still latched means this is a nested frame (BEGIN/COMMIT executed
  // from SQL text, a CALL body) — the outermost frame releases the
  // latch and discharges the wait.
  if (std::find(t_held_latches.begin(), t_held_latches.end(),
                static_cast<const void*>(shared_.get())) !=
      t_held_latches.end()) {
    return Status::OK();
  }
  const uint64_t lsn = pending_wal_sync_lsn_;
  pending_wal_sync_lsn_ = 0;
  if (shared_->wal == nullptr) return Status::OK();
  return shared_->wal->SyncToLsn(lsn);
}

std::vector<std::string> Database::BuildWalPayloadsFromUndo() {
  const std::vector<UndoEntry>& entries = undo_log_.entries();
  Catalog& catalog = shared_->catalog;

  // Pre-pass: a DROP wipes everything earlier in the scope for that
  // name. If the object was also *created* in this scope, the drop
  // itself vanishes too — neither side survives the commit, and redo
  // for DML on the phantom object would replay against nothing.
  std::vector<char> elide(entries.size(), 0);
  for (size_t i = 0; i < entries.size(); ++i) {
    const UndoEntry& d = entries[i];
    UndoEntry::Kind create_kind;
    std::function<bool(const UndoEntry&)> wiped;
    switch (d.kind) {
      case UndoEntry::Kind::kDropTable:
        create_kind = UndoEntry::Kind::kCreateTable;
        wiped = [&d](const UndoEntry& e) {
          switch (e.kind) {
            case UndoEntry::Kind::kInsert:
            case UndoEntry::Kind::kUpdate:
            case UndoEntry::Kind::kDelete:
            case UndoEntry::Kind::kTruncate:
            case UndoEntry::Kind::kCreateTable:
              return EqualsIgnoreCase(e.table_name, d.table_name);
            case UndoEntry::Kind::kCreateIndex:
              return EqualsIgnoreCase(e.index_table, d.table_name);
            default:
              return false;
          }
        };
        break;
      case UndoEntry::Kind::kDropSequence:
        create_kind = UndoEntry::Kind::kCreateSequence;
        wiped = [&d](const UndoEntry& e) {
          return (e.kind == UndoEntry::Kind::kCreateSequence ||
                  e.kind == UndoEntry::Kind::kSequenceAdvance) &&
                 EqualsIgnoreCase(e.table_name, d.table_name);
        };
        break;
      case UndoEntry::Kind::kDropView:
        create_kind = UndoEntry::Kind::kCreateView;
        wiped = [&d](const UndoEntry& e) {
          return e.kind == UndoEntry::Kind::kCreateView &&
                 EqualsIgnoreCase(e.table_name, d.table_name);
        };
        break;
      case UndoEntry::Kind::kDropIndex:
        create_kind = UndoEntry::Kind::kCreateIndex;
        wiped = [&d](const UndoEntry& e) {
          return e.kind == UndoEntry::Kind::kCreateIndex &&
                 EqualsIgnoreCase(e.table_name, d.table_name);
        };
        break;
      default:
        continue;
    }
    bool born_here = false;
    for (size_t j = 0; j < i; ++j) {
      if (elide[j] || !wiped(entries[j])) continue;
      if (entries[j].kind == create_kind) born_here = true;
      elide[j] = 1;
    }
    if (born_here) elide[i] = 1;
  }

  std::vector<std::string> payloads;
  // Repeated NEXTVALs on one sequence collapse to a single kSeqSet: at
  // build time the catalog already holds the final position.
  std::set<std::string> seq_emitted;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (elide[i]) continue;
    const UndoEntry& e = entries[i];
    switch (e.kind) {
      case UndoEntry::Kind::kInsert:
        payloads.push_back(
            WalInsertRecord(e.table_name, e.row_id, e.new_row));
        break;
      case UndoEntry::Kind::kUpdate:
        payloads.push_back(
            WalUpdateRecord(e.table_name, e.row_id, e.new_row));
        break;
      case UndoEntry::Kind::kDelete:
        payloads.push_back(WalDeleteRecord(e.table_name, e.row_id));
        break;
      case UndoEntry::Kind::kTruncate:
        payloads.push_back(WalTruncateRecord(e.table_name));
        break;
      case UndoEntry::Kind::kCreateTable: {
        const Table* table = catalog.FindTable(e.table_name);
        if (table != nullptr) {
          payloads.push_back(WalDdlRecord(CreateTableSql(table->schema())));
        }
        break;
      }
      case UndoEntry::Kind::kDropTable:
        payloads.push_back(WalDdlRecord("DROP TABLE " + e.table_name));
        break;
      case UndoEntry::Kind::kCreateSequence: {
        const Sequence* seq = catalog.FindSequence(e.table_name);
        if (seq != nullptr) {
          payloads.push_back(
              WalDdlRecord("CREATE SEQUENCE " + seq->name + " START WITH " +
                           std::to_string(seq->start_with)));
        }
        break;
      }
      case UndoEntry::Kind::kDropSequence:
        payloads.push_back(WalDdlRecord("DROP SEQUENCE " + e.table_name));
        break;
      case UndoEntry::Kind::kSequenceAdvance: {
        if (!seq_emitted.insert(ToUpperAscii(e.table_name)).second) break;
        const Sequence* seq = catalog.FindSequence(e.table_name);
        if (seq != nullptr) {
          payloads.push_back(WalSeqSetRecord(seq->name, seq->next_value));
        }
        break;
      }
      case UndoEntry::Kind::kCreateIndex: {
        const IndexInfo* info = catalog.FindIndex(e.table_name);
        if (info != nullptr) {
          std::string stmt =
              info->unique ? "CREATE UNIQUE INDEX " : "CREATE INDEX ";
          stmt += info->name + " ON " + info->table_name + " (";
          for (size_t c = 0; c < info->columns.size(); ++c) {
            if (c > 0) stmt += ", ";
            stmt += info->columns[c];
          }
          stmt += ")";
          payloads.push_back(WalDdlRecord(stmt));
        }
        break;
      }
      case UndoEntry::Kind::kDropIndex:
        payloads.push_back(WalDdlRecord("DROP INDEX " + e.table_name));
        break;
      case UndoEntry::Kind::kCreateView: {
        const SelectStatement* view = catalog.FindView(e.table_name);
        if (view != nullptr) {
          payloads.push_back(WalDdlRecord("CREATE VIEW " + e.table_name +
                                          " AS " + SelectToString(*view)));
        }
        break;
      }
      case UndoEntry::Kind::kDropView:
        payloads.push_back(WalDdlRecord("DROP VIEW " + e.table_name));
        break;
    }
  }
  return payloads;
}

Status Database::ApplyWalBatch(const std::vector<WalRecord>& batch,
                               WalManager* manager) {
  for (const WalRecord& rec : batch) {
    WalReader r(rec.payload);
    switch (rec.type) {
      case WalRecordType::kInsert: {
        SQLFLOW_ASSIGN_OR_RETURN(std::string table_name, r.Str());
        SQLFLOW_ASSIGN_OR_RETURN(uint64_t row_id, r.U64());
        SQLFLOW_ASSIGN_OR_RETURN(Row row, r.RowField());
        Table* table = shared_->catalog.FindTable(table_name);
        if (table == nullptr) {
          return Status::DataLoss("wal replays INSERT into unknown table " +
                                  table_name);
        }
        table->ReplayInsert(std::move(row), row_id);
        break;
      }
      case WalRecordType::kUpdate: {
        SQLFLOW_ASSIGN_OR_RETURN(std::string table_name, r.Str());
        SQLFLOW_ASSIGN_OR_RETURN(uint64_t row_id, r.U64());
        SQLFLOW_ASSIGN_OR_RETURN(Row row, r.RowField());
        Table* table = shared_->catalog.FindTable(table_name);
        if (table == nullptr) {
          return Status::DataLoss("wal replays UPDATE of unknown table " +
                                  table_name);
        }
        SQLFLOW_RETURN_IF_ERROR(table->ReplayUpdate(row_id, std::move(row)));
        break;
      }
      case WalRecordType::kDelete: {
        SQLFLOW_ASSIGN_OR_RETURN(std::string table_name, r.Str());
        SQLFLOW_ASSIGN_OR_RETURN(uint64_t row_id, r.U64());
        Table* table = shared_->catalog.FindTable(table_name);
        if (table == nullptr) {
          return Status::DataLoss("wal replays DELETE from unknown table " +
                                  table_name);
        }
        SQLFLOW_RETURN_IF_ERROR(table->ReplayDelete(row_id));
        break;
      }
      case WalRecordType::kTruncate: {
        SQLFLOW_ASSIGN_OR_RETURN(std::string table_name, r.Str());
        Table* table = shared_->catalog.FindTable(table_name);
        if (table == nullptr) {
          return Status::DataLoss("wal replays TRUNCATE of unknown table " +
                                  table_name);
        }
        table->Clear(nullptr);
        break;
      }
      case WalRecordType::kDdl: {
        SQLFLOW_ASSIGN_OR_RETURN(std::string sql, r.Str());
        auto result = Execute(sql);
        if (!result.ok()) {
          return Status::DataLoss("wal DDL replay failed: [" + sql + "]: " +
                                  result.status().ToString());
        }
        break;
      }
      case WalRecordType::kSeqSet: {
        SQLFLOW_ASSIGN_OR_RETURN(std::string name, r.Str());
        SQLFLOW_ASSIGN_OR_RETURN(uint64_t next_value, r.U64());
        Sequence* seq = shared_->catalog.FindSequence(name);
        if (seq == nullptr) {
          return Status::DataLoss("wal replays advance of unknown sequence " +
                                  name);
        }
        seq->next_value = static_cast<int64_t>(next_value);
        break;
      }
      case WalRecordType::kWfStart:
      case WalRecordType::kWfStep:
      case WalRecordType::kWfAttempt:
      case WalRecordType::kWfEnd:
      case WalRecordType::kNetRequest:
        manager->NoteReplayedRecord(rec);
        break;
      case WalRecordType::kCommit:
        break;  // batch terminator; ReplayLog does not deliver these
    }
  }
  return Status::OK();
}

Result<Value> EvalNextval(Database* db, const std::string& sequence_name) {
  Sequence* seq = db->catalog().FindSequence(sequence_name);
  if (seq == nullptr) {
    return Status::NotFound("no sequence '" + sequence_name + "'");
  }
  if (UndoLog* undo = db->active_undo()) {
    UndoEntry e;
    e.kind = UndoEntry::Kind::kSequenceAdvance;
    e.table_name = sequence_name;
    e.sequence_value = seq->next_value;
    undo->Record(std::move(e));
  }
  return Value::Integer(seq->next_value++);
}

}  // namespace sqlflow::sql
