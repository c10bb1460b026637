#ifndef SQLFLOW_SQL_DATABASE_H_
#define SQLFLOW_SQL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sql/catalog.h"
#include "sql/eval.h"
#include "sql/mvcc.h"
#include "sql/planner.h"
#include "sql/result_set.h"
#include "sql/transaction.h"
#include "sql/wal.h"

namespace sqlflow::sql {

class FaultInjector;
class Table;

/// Statement-level recovery policy: how often a statement that failed
/// with a *transient* status (see IsTransientCode) is replayed before
/// the fault propagates. This is the connection-layer retry every
/// surveyed product ships below its workflow engine; the wfc layer adds
/// the process-visible retry (backoff, deadlines) on top. Before a
/// replay, the statement's partial writes (if a mid-statement fault
/// interrupted it) are rolled back to the byte-identical pre-statement
/// state; non-replay-safe statements (see IsReplaySafeStatement) that
/// actually wrote refuse the replay in autocommit mode and escalate to
/// the workflow-level retry instead. Backoff at this layer is
/// immediate — the in-memory engine has no network to wait out;
/// wfc::BackoffPolicy owns simulated time.
struct RetryPolicy {
  int max_attempts = 1;  // 1 = retries disabled
};

/// Whether a statement may be transparently re-executed after its
/// partial writes were rolled back in *autocommit* mode, where partial
/// state was externally observable between rows. Safe: statements whose
/// written values are replay-exact — literal VALUES inserts (including
/// NEXTVAL: sequence advances are undo-logged and restored, so the
/// replay draws the same numbers), UPDATE (the executor pre-binds all
/// written values against pre-statement state, so even `x = x + 1`
/// recomputes identically after the rollback), DELETE, DDL, SELECT.
/// Unsafe: statements that derive written values from data they read
/// back row-by-row — INSERT from a subquery or SELECT, CALL (opaque
/// body). Inside an explicit transaction the question is moot (nothing
/// was visible), so the executor replays regardless.
bool IsReplaySafeStatement(const Statement& stmt);

/// Whether `stmt` only reads — eligible for the *shared* side of the
/// statement latch when connections run concurrently. Conservative:
/// SELECT (and plain EXPLAIN) qualifies only when it references no
/// views, no virtual sys.* tables, and calls no state-advancing
/// function (NEXTVAL); everything else serializes exclusively.
bool IsSharedReadStatement(const Statement& stmt, const Catalog& catalog);

/// A native stored procedure: name, expected argument count (-1 = any),
/// and the body. Procedures receive the owning database and may run
/// further statements through it.
struct StoredProcedure {
  std::string name;
  int arity = -1;
  std::function<Result<ResultSet>(class Database&,
                                  const std::vector<Value>&)>
      body;
};

class Database;

/// A parsed statement bound to its database, executable many times with
/// different parameters — parse once, run often (the engines cache
/// these per activity). Move-only; must not outlive the database.
class PreparedStatement {
 public:
  PreparedStatement(PreparedStatement&&) = default;
  PreparedStatement& operator=(PreparedStatement&&) = default;

  Result<ResultSet> Execute(const Params& params = Params()) const;

  /// Number of `?`/`:name` parameters in the statement.
  int parameter_count() const;

 private:
  friend class Database;
  PreparedStatement(Database* db, std::unique_ptr<Statement> statement)
      : db_(db), statement_(std::move(statement)) {}

  Database* db_;
  std::unique_ptr<Statement> statement_;
  /// Memoized access-path plan, rebuilt whenever the database's schema
  /// epoch moves past the one the plan was computed under.
  mutable std::shared_ptr<const StatementPlan> plan_;
};

/// An in-memory relational database: catalog + executor + one transaction
/// slot. Statements run in autocommit mode unless Begin() opened a
/// transaction, in which case all changes are undo-logged until Commit()
/// or Rollback().
///
/// Concurrency model: a Database object is a *connection* — it may only
/// run one statement at a time (successive statements may come from
/// different threads as long as they are externally ordered, which is
/// how the wfc worker pool hands instances between workers). True
/// parallelism comes from CreateConnection(): every connection shares
/// the catalog, statistics, schema epoch, and MVCC state of the
/// database it was opened from, and the shared statement latch lets
/// read-only statements from different connections run concurrently
/// while writers serialize. Each connection carries its own transaction
/// slot, so concurrent transactions see snapshot-isolated data through
/// the version metadata maintained by the table layer (sql/mvcc.h).
class Database {
 public:
  /// Execution counters (monotonic; for tests and benchmarks). Shared
  /// by every connection of the same database and updated lock-free,
  /// so concurrent workers aggregate into one set of totals.
  struct Stats {
    std::atomic<uint64_t> statements_executed{0};
    std::atomic<uint64_t> rows_read{0};
    std::atomic<uint64_t> rows_written{0};
    std::atomic<uint64_t> bytes_materialized{0};
    std::atomic<uint64_t> transactions_committed{0};
    std::atomic<uint64_t> transactions_rolled_back{0};

    Stats() = default;
    Stats(const Stats& other) { CopyFrom(other); }
    Stats& operator=(const Stats& other) {
      CopyFrom(other);
      return *this;
    }

   private:
    void CopyFrom(const Stats& other);
  };

  /// Statement-plan cache counters (monotonic).
  struct PlanCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  explicit Database(std::string name);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return shared_->name; }

  /// Opens an additional connection onto this database: a new Database
  /// object sharing the catalog, stats, MVCC manager, and statement
  /// latch, with its own transaction slot, undo log, and plan cache.
  /// The first connection flips the database into concurrent mode,
  /// which engages the statement latch and snapshot reads (until then
  /// the single-connection fast paths are byte-identical to the
  /// pre-MVCC engine). Connections keep the shared state alive even if
  /// the originating Database is destroyed first.
  std::shared_ptr<Database> CreateConnection();

  /// True once any connection has been created (statement latch and
  /// MVCC visibility checks are engaged).
  bool concurrent_mode() const {
    return shared_->concurrent.load(std::memory_order_acquire);
  }

  // --- MVCC snapshot state (read by the executor) ----------------------------
  /// The snapshot timestamp current statements read at: the open
  /// transaction's begin timestamp, or the current epoch in autocommit.
  uint64_t SnapshotTs() const;
  /// This connection's transaction id (0 when no transaction is open —
  /// autocommit readers are anonymous).
  uint64_t ReaderTxnId() const;
  /// Whether scans of `table` must go through Table::SnapshotRows
  /// instead of the raw row vector: only in concurrent mode, and only
  /// when the table actually carries version state a raw scan would
  /// misread. Index lookups and pushdown stay engaged otherwise.
  bool NeedsSnapshotRead(const Table& table) const;
  MvccManager& mvcc() { return shared_->mvcc; }
  const MvccManager& mvcc() const { return shared_->mvcc; }

  /// Parses and executes one statement (without parameters).
  Result<ResultSet> Execute(std::string_view sql);
  /// Parses and executes one statement with host-variable bindings.
  Result<ResultSet> Execute(std::string_view sql, const Params& params);
  /// Executes an already-parsed statement. `plan` is an optional
  /// memoized access-path plan for `stmt` (from the plan cache or a
  /// PreparedStatement); when null the executor plans inline.
  Result<ResultSet> ExecuteStatement(const Statement& stmt,
                                     const Params& params,
                                     const StatementPlan* plan = nullptr);
  /// Executes a parsed SELECT (used for subquery evaluation).
  Result<ResultSet> ExecuteSelect(const SelectStatement& select,
                                  const Params& params);
  /// Runs a ';'-separated script; stops at the first error.
  Status ExecuteScript(std::string_view sql);

  /// Parses `sql` once for repeated execution.
  Result<PreparedStatement> Prepare(std::string_view sql);

  // --- transactions ---------------------------------------------------------
  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return in_transaction_; }
  /// The live undo log: non-null inside an open transaction *or* while a
  /// statement is executing (statement-scope undo is what makes a
  /// mid-statement fault recoverable in autocommit mode — the log is
  /// unwound to the pre-statement mark on failure and discarded on
  /// success). Null only between autocommit statements.
  UndoLog* active_undo() {
    return (in_transaction_ || statement_depth_ > 0) ? &undo_log_
                                                     : nullptr;
  }

  // --- mid-statement fault sites ---------------------------------------------
  /// Consulted by the executor after each row mutated inside the running
  /// statement (and, via the table-layer IndexMaintenanceHook, between a
  /// row mutation and its index maintenance). Returns the injected fault
  /// to abort the statement with, or OK. No-op unless a fault injector
  /// is armed and a statement is executing.
  Status ConsultMidStatementFault(const std::string& what);

  // --- inverse-SQL effect capture --------------------------------------------
  /// When enabled, successfully finished work (an autocommit statement,
  /// or a committed transaction) deposits its undo entries — with row
  /// post-images — into a capture buffer instead of discarding them, so
  /// sql::BuildInverseStatements can turn them into compensation SQL.
  void set_capture_effects(bool on);
  bool capture_effects() const { return capture_effects_; }
  /// Drains the capture buffer (entries in execution order).
  std::vector<UndoEntry> TakeCapturedEffects();

  // --- stored procedures ------------------------------------------------------
  Status RegisterProcedure(StoredProcedure procedure);
  Result<ResultSet> CallProcedure(const std::string& name,
                                  const std::vector<Value>& args);
  std::vector<std::string> ProcedureNames() const;

  Catalog& catalog() { return shared_->catalog; }
  const Catalog& catalog() const { return shared_->catalog; }

  /// Runs `fn` holding the exclusive statement latch — the hook for
  /// engine-side table maintenance that bypasses the statement path
  /// (e.g. BIS result-set materialization writes through the catalog
  /// directly). Re-entrant from inside a running statement; a no-op
  /// wrapper until concurrent mode engages.
  Status WithExclusiveStatementLatch(const std::function<Status()>& fn);

  const Stats& stats() const { return shared_->stats; }
  Stats* MutableStats() { return &shared_->stats; }

  /// Shared view-expansion depth guard (views may nest, including
  /// through subqueries, which spawn fresh executors).
  int* MutableViewDepth() { return &view_expansion_depth_; }

  // --- query optimization ----------------------------------------------------
  /// When disabled, every predicate scans and every join nested-loops
  /// (the pre-optimizer behavior); used by differential tests and the
  /// scan-baseline benches.
  bool optimizer_enabled() const { return optimizer_enabled_; }
  void set_optimizer_enabled(bool on) { optimizer_enabled_ = on; }

  /// Monotonic counter bumped by any DDL (and by rollback, which can
  /// undo DDL); memoized StatementPlans stamped with an older epoch are
  /// recomputed before use. Shared across connections.
  uint64_t schema_epoch() const {
    return shared_->schema_epoch.load(std::memory_order_acquire);
  }
  void BumpSchemaEpoch() {
    shared_->schema_epoch.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Records which access path the executor took for the statement
  /// currently running (aggregated into the `sql.plan` span attribute
  /// and the sql.plan.* metrics counters).
  void NotePlanChoice(PlanChoice choice);

  /// Drops cached plans that reference `table_name` (DROP TABLE /
  /// TRUNCATE call this so stale statements cannot be replayed).
  void InvalidatePlans(const std::string& table_name);

  /// LRU statement-plan cache configuration; capacity 0 disables caching.
  void set_plan_cache_capacity(size_t capacity);
  size_t plan_cache_size() const {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    return plan_cache_.size();
  }
  PlanCacheStats plan_cache_stats() const {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    return plan_cache_stats_;
  }

  /// One plan-cache entry, as exposed through `sys.plan_cache`.
  struct PlanCacheEntry {
    std::string sql;
    std::string tables;  // comma-joined upper-cased referenced tables
    uint64_t hits = 0;
    uint64_t plan_epoch = 0;
    uint64_t last_used_tick = 0;
    bool has_access_plan = false;
    bool has_range_plan = false;
  };
  /// Snapshot of the cache in key (SQL text) order.
  std::vector<PlanCacheEntry> PlanCacheEntries() const;

  // --- per-operator profiling (EXPLAIN ANALYZE) ------------------------------
  /// While non-null, the executor appends one ExecProfileOp per plan
  /// operator it runs (access paths, joins, filters, sorts, DML loops).
  /// Installed by ExecuteExplain around the target statement only.
  void set_exec_profile(struct ExecProfile* profile) {
    exec_profile_ = profile;
  }
  struct ExecProfile* exec_profile() { return exec_profile_; }

  // --- fault injection & recovery --------------------------------------------
  /// Per-database injector, consulted once per top-level statement.
  /// Overrides the process-wide injector when both are set. Shared by
  /// every connection; install before spawning concurrent work.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    shared_->fault_injector = std::move(injector);
  }
  const std::shared_ptr<FaultInjector>& fault_injector() const {
    return shared_->fault_injector;
  }
  /// Process-wide injector seen by every database without one of its
  /// own — how `pattern_matrix --chaos` reaches the databases each
  /// scenario fixture creates internally. Pass nullptr to uninstall.
  static void SetGlobalFaultInjector(std::shared_ptr<FaultInjector> inj);
  static std::shared_ptr<FaultInjector> GlobalFaultInjector();

  void set_retry_policy(RetryPolicy policy) {
    shared_->retry_policy = policy;
  }
  const RetryPolicy& retry_policy() const { return shared_->retry_policy; }
  /// Default policy stamped onto newly constructed databases (the
  /// chaos harness arms this before fixtures are built).
  static void SetRetryPolicyDefault(RetryPolicy policy);

  // --- durability (WAL + snapshots) ------------------------------------------
  /// Arms write-ahead logging on this database. If `dir` already holds
  /// a snapshot and/or log from a previous incarnation, that state is
  /// recovered *first* — snapshot load, then committed-batch tail
  /// replay — into this (necessarily fresh) database; only then does
  /// logging begin. After this returns OK, every committed effect (an
  /// autocommit statement or an explicit transaction) is appended as
  /// one atomic CRC-checked batch *before* it becomes visible: a WAL
  /// append failure aborts the commit.
  Status EnableDurability(const std::string& dir, WalOptions options = {});
  /// Recovery as a factory: constructs a fresh database named `name`
  /// and rehydrates it from `dir` via EnableDurability.
  static Result<std::unique_ptr<Database>> Recover(const std::string& name,
                                                   const std::string& dir,
                                                   WalOptions options = {});
  /// Writes a snapshot of the committed state at the current LSN (under
  /// the exclusive statement latch); later recoveries load it and
  /// replay only the log tail past it.
  Status Checkpoint();
  /// The WAL manager, or nullptr while durability is off.
  WalManager* wal() const { return shared_->wal.get(); }
  /// Queues an opaque payload (the workflow layer's dehydration
  /// records) onto the commit batch currently forming: inside an open
  /// transaction or statement it rides that scope's atomic batch;
  /// between statements it is appended immediately as its own
  /// committed batch. No-op (OK) while durability is off.
  Status AddWalAttachment(std::string payload);

 private:
  /// Everything one logical database's connections have in common. The
  /// originating Database and every CreateConnection() product hold a
  /// shared_ptr, so lifetime follows the last connection standing.
  struct SharedState {
    explicit SharedState(std::string db_name) : name(std::move(db_name)) {}

    std::string name;
    Catalog catalog;
    std::map<std::string, StoredProcedure> procedures;
    Stats stats;
    MvccManager mvcc;
    /// The statement latch: mutating statements (DML, DDL, transaction
    /// control, CALL) hold it exclusively; pure reads share it. Only
    /// engaged once `concurrent` flips — the single-connection engine
    /// never touches it.
    std::shared_mutex statement_latch;
    std::atomic<bool> concurrent{false};
    std::atomic<uint64_t> schema_epoch{0};
    std::shared_ptr<FaultInjector> fault_injector;
    RetryPolicy retry_policy;
    /// Non-null once EnableDurability has run: the append-only redo log
    /// shared by every connection (appends serialize internally; the
    /// exclusive statement latch already orders mutating commits).
    std::unique_ptr<WalManager> wal;
  };

  /// RAII over the shared statement latch (defined in database.cc;
  /// re-entrant per thread, no-op until concurrent mode).
  class StatementLatch;
  friend class StatementLatch;

  /// One parse+plan cache entry. shared_ptrs keep statements and plans
  /// alive across re-entrant executions (a stored procedure running the
  /// same SQL may evict the entry the outer execution still uses).
  struct CachedStatement {
    std::shared_ptr<const Statement> statement;
    std::shared_ptr<const StatementPlan> plan;
    std::vector<std::string> tables;  // upper-cased referenced tables
    uint64_t last_used_tick = 0;
    uint64_t hits = 0;
  };

  /// Connection constructor: shares `shared`, inherits the creating
  /// connection's optimizer toggle.
  Database(std::shared_ptr<SharedState> shared, bool optimizer_on);

  static RetryPolicy& RetryPolicyDefaultRef();
  static std::shared_ptr<FaultInjector>& GlobalFaultInjectorRef();
  void EvictPlanCacheOverflow();  // caller holds plan_cache_mutex_
  /// Injection + transient-retry wrapper around one executor run.
  Result<ResultSet> RunWithRecovery(const Statement& stmt,
                                    const Params& params,
                                    const StatementPlan* plan);
  /// Executes one attempt inside a statement scope (depth bump, active
  /// injector for mid-statement sites, index-maintenance hook).
  Result<ResultSet> RunOneAttempt(const Statement& stmt,
                                  const Params& params,
                                  const StatementPlan* plan,
                                  FaultInjector* injector,
                                  const std::string& site_description);
  /// On outermost autocommit success: move entries to the capture
  /// buffer (if capturing) and clear the statement-scope undo log.
  void FinishStatementScope();
  /// Moves undo entries into the capture buffer (helper for
  /// FinishStatementScope and Commit).
  void CaptureUndoEntries();
  /// Stamps this connection's open MVCC transaction committed: assigns
  /// the commit timestamp to every touched table's pending rows, ends
  /// the transaction, and GCs versions below the new horizon.
  void CommitMvccTxn();
  /// Ends this connection's open MVCC transaction aborted: sweeps any
  /// stray pending metadata/stash entries off touched tables (the undo
  /// log has already restored row data).
  void AbortMvccTxn();
  /// Builds the redo batch for the finishing commit scope from the live
  /// undo entries plus queued attachments and appends it to the WAL as
  /// one atomic group. Must run while the entries are still in
  /// `undo_log_` (post-images intact) and *before* the effects commit;
  /// on failure the caller rolls the scope back and surfaces the
  /// (non-transient) status.
  Status AppendWalCommitBatch();
  /// Completes this connection's deferred group-commit flush (set by
  /// AppendWalCommitBatch under kEveryCommit). Runs only once the
  /// thread no longer holds the statement latch — nested frames defer
  /// to the outermost one — so concurrent committers overlap in the
  /// WAL's coalescing wait instead of flushing one-per-latch-hold.
  Status WaitPendingWalDurability();
  /// ExecuteStatement's latched body; the public wrapper runs the
  /// deferred durability wait after the latch releases.
  Result<ResultSet> ExecuteStatementLatched(const Statement& stmt,
                                            const Params& params,
                                            const StatementPlan* plan);
  /// Maps undo entries to redo payloads. DDL is re-unparsed from the
  /// live catalog at build time; objects created *and* dropped within
  /// the same scope — and any DML touching them — are elided, since
  /// neither side survives the commit.
  std::vector<std::string> BuildWalPayloadsFromUndo();
  /// Applies one replayed committed batch during recovery (WAL not yet
  /// armed, so nothing re-logs).
  Status ApplyWalBatch(const std::vector<WalRecord>& batch,
                       WalManager* manager);

  static constexpr size_t kDefaultPlanCacheCapacity = 64;

  std::shared_ptr<SharedState> shared_;
  UndoLog undo_log_;
  bool in_transaction_ = false;
  /// This connection's MVCC transaction slot: live (`txn_active_`)
  /// between Begin and Commit/Rollback in concurrent mode, or for the
  /// span of one mutating autocommit statement (`txn_implicit_`).
  MvccTxn txn_;
  bool txn_active_ = false;
  bool txn_implicit_ = false;
  /// Nesting depth of executing statements (CALL bodies re-enter); > 0
  /// means active_undo() is live even in autocommit mode.
  int statement_depth_ = 0;
  /// The injector consulted by mid-statement sites, non-null only while
  /// a statement scope is open; `mid_site_prefix_` is the enclosing
  /// statement's site description ("UPDATE ORDERS"), prefixed onto
  /// mid-site descriptions.
  FaultInjector* mid_injector_ = nullptr;
  std::string mid_site_prefix_;
  bool capture_effects_ = false;
  std::vector<UndoEntry> captured_effects_;
  /// Durable payloads queued by AddWalAttachment to ride the next
  /// commit batch from this connection; cleared on rollback.
  std::vector<std::string> wal_attachments_;
  /// LSN this connection's last appended commit batch must be flushed
  /// to before the commit is acknowledged (kEveryCommit group commit).
  /// Non-zero only between the latched append and the post-latch
  /// WaitPendingWalDurability that discharges it.
  uint64_t pending_wal_sync_lsn_ = 0;
  struct ExecProfile* exec_profile_ = nullptr;
  int view_expansion_depth_ = 0;

  bool optimizer_enabled_ = true;
  unsigned plan_mask_ = 0;  // PlanChoice bits for the running statement
  size_t plan_cache_capacity_ = kDefaultPlanCacheCapacity;
  uint64_t plan_cache_tick_ = 0;
  std::map<std::string, CachedStatement> plan_cache_;  // keyed by SQL text
  PlanCacheStats plan_cache_stats_;
  /// Guards the plan cache and its stats. Uncontended in the
  /// one-thread-per-connection discipline, but keeps the cache safe
  /// when the wfc pool migrates an instance's session across workers.
  mutable std::mutex plan_cache_mutex_;
};

}  // namespace sqlflow::sql

#endif  // SQLFLOW_SQL_DATABASE_H_
