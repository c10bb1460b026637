// Mid-statement partial-write faults and their recovery machinery:
// statement-scope rollback to a byte-identical pre-statement state, the
// replay-safety guard that escalates non-idempotent autocommit
// statements to workflow-level retry, inverse-SQL compensation derived
// from captured effects, and the service/adapter fault layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adapter/data_access_service.h"
#include "bis/compensation.h"
#include "bis/sql_activity.h"
#include "obs/metrics.h"
#include "patterns/fixture.h"
#include "sql/database.h"
#include "sql/fault.h"
#include "sql/inverse.h"
#include "sql/table.h"
#include "sql/transaction.h"
#include "wfc/activities.h"
#include "wfc/engine.h"
#include "wfc/robustness.h"
#include "wfc/service.h"

namespace sqlflow {
namespace {

using sql::FaultInjector;
using sql::FaultLayer;

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// Restores the process-wide chaos configuration even when an ASSERT
// bails out of a test body early.
struct GlobalChaosGuard {
  ~GlobalChaosGuard() {
    sql::Database::SetGlobalFaultInjector(nullptr);
    sql::Database::SetRetryPolicyDefault(sql::RetryPolicy{});
    wfc::SetServiceRetryPolicyDefault(wfc::ServiceRetryPolicy{});
  }
};

std::string RowToString(const sql::Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ',';
    out += row[i].is_null() ? "NULL" : row[i].AsString();
  }
  return out + ")";
}

/// Sorted key rows of each unique index — the uniqueness state a
/// rollback or compensation must restore.
std::string UniqueKeys(const sql::Table& table) {
  std::string out;
  for (const sql::SecondaryIndex& index : table.secondary_indexes()) {
    if (!index.unique) continue;
    out += "  unique " + index.name + ":";
    for (const auto& [key, slots] : index.ordered) {
      out += " " + RowToString(key);
    }
    out += "\n";
  }
  return out;
}

/// Canonical byte image of a table: rows in heap order, unique-index
/// keys, then every index's postings in index order.
std::string TableSnapshot(const sql::Table& table) {
  std::string out = "table " + table.schema().table_name() + "\n";
  for (const sql::Row& row : table.rows()) {
    out += "  row " + RowToString(row) + "\n";
  }
  out += UniqueKeys(table);
  for (const sql::SecondaryIndex& index : table.secondary_indexes()) {
    out += "  index " + index.name + "\n";
    for (const auto& [key, slots] : index.ordered) {
      out += "    ordered " + RowToString(key) + " ->";
      for (size_t slot : slots) out += ' ' + std::to_string(slot);
      out += "\n";
    }
  }
  return out;
}

std::string DatabaseSnapshot(sql::Database& db) {
  std::string out;
  std::vector<std::string> tables = db.catalog().TableNames();
  std::sort(tables.begin(), tables.end());
  for (const std::string& name : tables) {
    out += TableSnapshot(*db.catalog().FindTable(name));
  }
  std::vector<std::string> sequences = db.catalog().SequenceNames();
  std::sort(sequences.begin(), sequences.end());
  for (const std::string& name : sequences) {
    out += "sequence " + name + " = " +
           std::to_string(db.catalog().FindSequence(name)->next_value) +
           "\n";
  }
  return out;
}

/// Logical image: rows sorted per table, unique-index keys, sequence
/// cursors — no heap positions or index postings. Inverse-SQL
/// compensation replays ordinary DML, so a compensating re-INSERT lands
/// at a fresh heap slot; it restores *logical* state, unlike the
/// in-place UndoLog rollback, which is physically byte-identical and is
/// checked with DatabaseSnapshot above.
std::string LogicalSnapshot(sql::Database& db) {
  std::string out;
  std::vector<std::string> tables = db.catalog().TableNames();
  std::sort(tables.begin(), tables.end());
  for (const std::string& name : tables) {
    const sql::Table& table = *db.catalog().FindTable(name);
    out += "table " + name + "\n";
    std::vector<std::string> rows;
    for (const sql::Row& row : table.rows()) {
      rows.push_back("  row " + RowToString(row) + "\n");
    }
    std::sort(rows.begin(), rows.end());
    for (const std::string& row : rows) out += row;
    out += UniqueKeys(table);
  }
  std::vector<std::string> sequences = db.catalog().SequenceNames();
  std::sort(sequences.begin(), sequences.end());
  for (const std::string& name : sequences) {
    out += "sequence " + name + " = " +
           std::to_string(db.catalog().FindSequence(name)->next_value) +
           "\n";
  }
  return out;
}

// --- byte-identical rollback of mid-statement partial writes ---------------

class PartialWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<sql::Database>("orders");
    Exec("CREATE TABLE T (Id INTEGER PRIMARY KEY, Grp VARCHAR(10), N INTEGER)");
    Exec("CREATE INDEX TGrp ON T (Grp)");
    Exec("CREATE SEQUENCE Seq");
    for (int i = 1; i <= 6; ++i) {
      Exec("INSERT INTO T VALUES (" + std::to_string(i) + ", '" +
           (i % 2 == 0 ? "even" : "odd") + "', " + std::to_string(10 * i) +
           ")");
    }
  }

  void Exec(const std::string& sql) {
    auto result = db_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  }

  /// Installs an injector that fires only at mid-statement sites
  /// matching `filter`.
  std::shared_ptr<FaultInjector> ArmMidFault(
      const std::string& filter, StatusCode code,
      uint64_t fault_first_n = 1) {
    FaultInjector::Options options;
    options.fault_first_n = fault_first_n;
    options.statement_sites = false;
    options.mid_statement_sites = true;
    options.site_filter = filter;
    options.kinds = {code};
    auto injector = std::make_shared<FaultInjector>(options);
    db_->set_fault_injector(injector);
    return injector;
  }

  std::unique_ptr<sql::Database> db_;
};

TEST_F(PartialWriteTest, MidRowFaultRollsBackToByteIdenticalState) {
  std::string before = DatabaseSnapshot(*db_);
  // Permanent fault after the third row mutation: three real partial
  // writes exist when the statement dies.
  auto injector = ArmMidFault("row 3", StatusCode::kExecutionError);
  uint64_t rolled_back_before = CounterValue("sql.partial.rolled_back");

  auto result = db_->Execute("UPDATE T SET Grp = 'all'");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(injector->stats().injected_mid_statement, 1u);
  EXPECT_EQ(CounterValue("sql.partial.rolled_back"),
            rolled_back_before + 1);
  EXPECT_EQ(DatabaseSnapshot(*db_), before);
}

TEST_F(PartialWriteTest, MidIndexMaintenanceFaultRollsBack) {
  std::string before = DatabaseSnapshot(*db_);
  // The index hook fires between the undo record and index maintenance,
  // so the faulted row is applied but unindexed — the nastiest
  // intermediate state the undo log must recover from.
  auto injector = ArmMidFault("index T", StatusCode::kExecutionError);

  auto result = db_->Execute("INSERT INTO T VALUES (7, 'odd', 70)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(injector->stats().injected_mid_statement, 1u);
  EXPECT_EQ(DatabaseSnapshot(*db_), before);

  // The rolled-back state is live, not just byte-identical: the freed
  // key is insertable again.
  db_->set_fault_injector(nullptr);
  Exec("INSERT INTO T VALUES (7, 'odd', 70)");
}

TEST_F(PartialWriteTest, MultiRowInsertMidValuesFaultLeavesNoRows) {
  std::string before = DatabaseSnapshot(*db_);
  // Fault between the second and third value-set: rows 7 and 8 were
  // genuinely inserted (and indexed) when the statement dies.
  ArmMidFault("row 2", StatusCode::kExecutionError);

  auto result = db_->Execute(
      "INSERT INTO T VALUES (7, 'odd', 70), (8, 'even', 80), "
      "(9, 'odd', 90)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(DatabaseSnapshot(*db_), before);
  auto count = db_->Execute("SELECT COUNT(*) FROM T WHERE Id >= 7");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows()[0][0], Value::Integer(0));
}

TEST_F(PartialWriteTest, TransientMidFaultAbsorbedByReplay) {
  // Constant-assignment UPDATE is replay-safe: rollback + replay must
  // absorb the fault invisibly even in autocommit.
  auto injector = ArmMidFault("row 4", StatusCode::kDeadlock);
  db_->set_retry_policy(sql::RetryPolicy{/*max_attempts=*/3});
  uint64_t absorbed_before = CounterValue("sql.fault.absorbed");
  uint64_t rolled_back_before = CounterValue("sql.partial.rolled_back");

  auto result = db_->Execute("UPDATE T SET N = 5 WHERE Id <= 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected_rows(), 5);
  EXPECT_EQ(injector->stats().injected_mid_statement, 1u);
  EXPECT_EQ(CounterValue("sql.fault.absorbed"), absorbed_before + 1);
  EXPECT_EQ(CounterValue("sql.partial.rolled_back"),
            rolled_back_before + 1);
  auto sum = db_->Execute("SELECT SUM(N) FROM T WHERE Id <= 5");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->rows()[0][0], Value::Integer(25));
}

TEST_F(PartialWriteTest, FailedNextvalStatementRestoresSequence) {
  ASSERT_EQ(db_->catalog().FindSequence("Seq")->next_value, 1);
  ArmMidFault("index T", StatusCode::kExecutionError);
  auto result =
      db_->Execute("INSERT INTO T VALUES (NEXTVAL('Seq') + 100, 'x', 0)");
  ASSERT_FALSE(result.ok());
  // The burned number was rolled back with the statement, which is what
  // makes NEXTVAL inserts replay-safe.
  EXPECT_EQ(db_->catalog().FindSequence("Seq")->next_value, 1);
}

// --- the idempotence guard --------------------------------------------------

TEST_F(PartialWriteTest, SelfReadingUpdateReplayAbsorbed) {
  // N = N + 1 reads state it also writes, but the executor pre-binds
  // every written value against pre-statement state before the first
  // mutation — so after the mid-statement rollback a replay recomputes
  // identical values and the transient fault is absorbed invisibly,
  // exactly like the constant-assignment case.
  auto injector = ArmMidFault("row 2", StatusCode::kDeadlock);
  db_->set_retry_policy(sql::RetryPolicy{/*max_attempts=*/5});
  uint64_t refused_before = CounterValue("sql.retry.refused");
  uint64_t absorbed_before = CounterValue("sql.fault.absorbed");

  auto result = db_->Execute("UPDATE T SET N = N + 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected_rows(), 6);
  EXPECT_EQ(injector->stats().injected_mid_statement, 1u);
  EXPECT_EQ(CounterValue("sql.retry.refused"), refused_before);
  EXPECT_EQ(CounterValue("sql.fault.absorbed"), absorbed_before + 1);
  auto sum = db_->Execute("SELECT SUM(N) FROM T");
  ASSERT_TRUE(sum.ok());
  // 10+..+60 = 210, +1 per row exactly once — no double increment.
  EXPECT_EQ(sum->rows()[0][0], Value::Integer(216));
}

TEST_F(PartialWriteTest, GuardRefusesReplayOfCallWithPartialWrites) {
  std::string before = DatabaseSnapshot(*db_);
  // A procedure that writes and then dies transiently: the CALL's
  // partial writes were observable in autocommit and its body is
  // opaque, so statement-level replay is refused.
  auto failures = std::make_shared<int>(1);
  sql::StoredProcedure proc;
  proc.name = "BumpThenFlake";
  proc.arity = 0;
  proc.body = [failures](sql::Database& db,
                         const std::vector<Value>&)
      -> Result<sql::ResultSet> {
    SQLFLOW_RETURN_IF_ERROR(
        db.Execute("INSERT INTO T VALUES (7, 'odd', 70)").status());
    if (*failures > 0) {
      --*failures;
      return Status::Unavailable("supplier briefly down");
    }
    return sql::ResultSet();
  };
  ASSERT_TRUE(db_->RegisterProcedure(std::move(proc)).ok());
  db_->set_retry_policy(sql::RetryPolicy{/*max_attempts=*/5});
  uint64_t refused_before = CounterValue("sql.retry.refused");

  auto result = db_->Execute("CALL BumpThenFlake()");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTransient());
  // Only one attempt ran — no silent replay.
  EXPECT_EQ(CounterValue("sql.retry.refused"), refused_before + 1);
  // And the partial writes are gone.
  EXPECT_EQ(DatabaseSnapshot(*db_), before);
}

TEST_F(PartialWriteTest, GuardAllowsReplayInsideTransaction) {
  auto injector = ArmMidFault("row 2", StatusCode::kDeadlock);
  db_->set_retry_policy(sql::RetryPolicy{/*max_attempts=*/5});
  uint64_t refused_before = CounterValue("sql.retry.refused");

  // Inside a transaction the partial writes were never observable, so
  // the same statement replays transparently.
  Exec("BEGIN");
  auto result = db_->Execute("UPDATE T SET N = N + 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Exec("COMMIT");
  EXPECT_EQ(CounterValue("sql.retry.refused"), refused_before);
  EXPECT_EQ(injector->stats().faults_injected, 1u);
  auto sum = db_->Execute("SELECT SUM(N) FROM T");
  ASSERT_TRUE(sum.ok());
  // 10+..+60 = 210, +1 per row exactly once.
  EXPECT_EQ(sum->rows()[0][0], Value::Integer(216));
}

TEST_F(PartialWriteTest, RefusedReplayEscalatesToWorkflowRetry) {
  // The refused CALL from above, wrapped in the workflow-level retry:
  // the statement layer rolls back and escalates, the activity re-runs
  // against fresh reads and succeeds — effects land exactly once.
  auto failures = std::make_shared<int>(1);
  sql::StoredProcedure proc;
  proc.name = "BumpThenFlake";
  proc.arity = 0;
  proc.body = [failures](sql::Database& db,
                         const std::vector<Value>&)
      -> Result<sql::ResultSet> {
    SQLFLOW_RETURN_IF_ERROR(
        db.Execute("UPDATE T SET N = N + 1").status());
    if (*failures > 0) {
      --*failures;
      return Status::Unavailable("supplier briefly down");
    }
    return sql::ResultSet();
  };
  ASSERT_TRUE(db_->RegisterProcedure(std::move(proc)).ok());
  db_->set_retry_policy(sql::RetryPolicy{/*max_attempts=*/5});

  wfc::WorkflowEngine engine("chaos");
  auto body = std::make_shared<wfc::SnippetActivity>(
      "bump", [this](wfc::ProcessContext&) -> Status {
        return db_->Execute("CALL BumpThenFlake()").status();
      });
  wfc::BackoffPolicy policy;
  policy.max_attempts = 3;
  engine.DeployOrReplace(std::make_shared<wfc::ProcessDefinition>(
      "p", std::make_shared<wfc::RetryActivity>("r", body, policy)));

  uint64_t refused_before = CounterValue("sql.retry.refused");
  uint64_t absorbed_before = CounterValue("wfc.retry.absorbed");
  auto result = engine.RunProcess("p");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  // Statement replay was refused once; the workflow retry re-ran the
  // activity against fresh reads and succeeded — increments exactly once.
  EXPECT_EQ(CounterValue("sql.retry.refused"), refused_before + 1);
  EXPECT_EQ(CounterValue("wfc.retry.absorbed"), absorbed_before + 1);
  auto sum = db_->Execute("SELECT SUM(N) FROM T");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->rows()[0][0], Value::Integer(216));
}

// --- differential test: random DML under chaos vs. fault-free --------------

TEST(PartialWriteDifferentialTest, RandomDmlMatchesFaultFreeRun) {
  auto setup = [](sql::Database* db) {
    ASSERT_TRUE(
        db->Execute("CREATE TABLE D (Id INTEGER PRIMARY KEY, Grp VARCHAR(10), "
                    "N INTEGER)")
            .ok());
    ASSERT_TRUE(db->Execute("CREATE INDEX DGrp ON D (Grp)").ok());
  };
  sql::Database plain("plain");
  sql::Database chaotic("chaotic");
  setup(&plain);
  setup(&chaotic);

  FaultInjector::Options options;
  options.seed = 42;
  // Mid-statement sites fire once per mutated row, so a group UPDATE
  // over ~60 rows makes ~60 draws per attempt; at p=0.01 an attempt
  // survives with probability ~0.5 and 32 attempts make exhaustion
  // unreachable. Higher probabilities starve wide statements.
  options.probability = 0.01;
  options.statement_sites = true;
  options.mid_statement_sites = true;
  auto injector = std::make_shared<FaultInjector>(options);
  chaotic.set_fault_injector(injector);
  chaotic.set_retry_policy(sql::RetryPolicy{/*max_attempts=*/32});

  // Every generated statement is replay-safe (constant assignments,
  // literal values), so the chaotic run must absorb everything and stay
  // byte-identical to the fault-free run after every single statement.
  std::mt19937_64 rng(7);
  int next_id = 0;
  for (int step = 0; step < 400; ++step) {
    std::string sql;
    switch (rng() % 4) {
      case 0: {
        int count = 1 + static_cast<int>(rng() % 3);
        sql = "INSERT INTO D VALUES ";
        for (int i = 0; i < count; ++i) {
          int id = next_id++;
          if (i > 0) sql += ", ";
          sql += "(" + std::to_string(id) + ", 'g" +
                 std::to_string(id % 5) + "', " + std::to_string(id * 3) +
                 ")";
        }
        break;
      }
      case 1:
        sql = "UPDATE D SET N = " + std::to_string(rng() % 100) +
              " WHERE Grp = 'g" + std::to_string(rng() % 5) + "'";
        break;
      case 2:
        sql = "DELETE FROM D WHERE Id = " +
              std::to_string(rng() % (next_id + 1));
        break;
      default:
        sql = "UPDATE D SET Grp = 'g" + std::to_string(rng() % 5) +
              "' WHERE Id = " + std::to_string(rng() % (next_id + 1));
        break;
    }
    auto expected = plain.Execute(sql);
    auto actual = chaotic.Execute(sql);
    ASSERT_TRUE(expected.ok())
        << sql << ": " << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << sql << ": " << actual.status().ToString();
    EXPECT_EQ(expected->affected_rows(), actual->affected_rows()) << sql;
    ASSERT_EQ(DatabaseSnapshot(plain), DatabaseSnapshot(chaotic))
        << "diverged after: " << sql;
  }
  // The sweep must have exercised both fault layers.
  EXPECT_GT(injector->stats().injected_statement, 0u);
  EXPECT_GT(injector->stats().injected_mid_statement, 0u);
}

// --- layer gating keeps old schedules reproducible --------------------------

TEST(FaultLayerTest, DisabledLayerConsumesNothingFromTheSchedule) {
  FaultInjector::Options options;
  options.seed = 5;
  options.probability = 0.5;  // statement sites only (defaults)
  FaultInjector reference(options);
  FaultInjector mixed(options);

  std::vector<bool> reference_schedule;
  for (int i = 0; i < 64; ++i) {
    reference_schedule.push_back(
        reference.MaybeFault({"d", "insert T", FaultLayer::kStatement})
            .has_value());
  }
  // Interleaving disabled-layer sites must not perturb the statement
  // schedule: they draw nothing from the stream and count nothing.
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(mixed.MaybeFault(
        {"d", "mid insert T row 1", FaultLayer::kMidStatement}));
    EXPECT_FALSE(
        mixed.MaybeFault({"service", "invoke S", FaultLayer::kService}));
    EXPECT_EQ(mixed.MaybeFault({"d", "insert T", FaultLayer::kStatement})
                  .has_value(),
              reference_schedule[i])
        << "draw " << i;
  }
  EXPECT_EQ(mixed.stats().statements_seen,
            reference.stats().statements_seen);
  EXPECT_EQ(mixed.stats().injected_mid_statement, 0u);
  EXPECT_EQ(mixed.stats().injected_service, 0u);
}

// --- inverse-SQL compensation -----------------------------------------------

class InverseTest : public PartialWriteTest {};

TEST_F(InverseTest, InverseProgramRestoresPreStatementState) {
  std::string before = LogicalSnapshot(*db_);
  db_->set_capture_effects(true);
  Exec("INSERT INTO T VALUES (7, 'odd', 70), (8, 'even', 80)");
  Exec("UPDATE T SET N = 0 WHERE Grp = 'even'");
  Exec("DELETE FROM T WHERE Id = 1");
  std::vector<sql::UndoEntry> effects = db_->TakeCapturedEffects();
  db_->set_capture_effects(false);
  ASSERT_FALSE(effects.empty());

  auto program = sql::BuildInverseStatements(*db_, effects);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_TRUE(sql::ApplyInverseStatements(*db_, *program).ok());
  EXPECT_EQ(LogicalSnapshot(*db_), before);
}

TEST_F(InverseTest, TruncateInverseReinsertsAllRows) {
  std::string before = LogicalSnapshot(*db_);
  db_->set_capture_effects(true);
  Exec("TRUNCATE TABLE T");
  std::vector<sql::UndoEntry> effects = db_->TakeCapturedEffects();
  db_->set_capture_effects(false);

  auto program = sql::BuildInverseStatements(*db_, effects);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_TRUE(sql::ApplyInverseStatements(*db_, *program).ok());
  EXPECT_EQ(LogicalSnapshot(*db_), before);
}

TEST_F(InverseTest, DropEffectsAreRefusedNotGuessed) {
  db_->set_capture_effects(true);
  Exec("DROP INDEX TGrp");
  std::vector<sql::UndoEntry> effects = db_->TakeCapturedEffects();
  db_->set_capture_effects(false);

  auto program = sql::BuildInverseStatements(*db_, effects);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(InverseTest, DropTableInverseRebuildsSchemaIndexesAndRows) {
  std::string before = LogicalSnapshot(*db_);
  db_->set_capture_effects(true);
  Exec("DROP TABLE T");
  std::vector<sql::UndoEntry> effects = db_->TakeCapturedEffects();
  db_->set_capture_effects(false);
  ASSERT_FALSE(effects.empty());
  ASSERT_EQ(db_->catalog().FindTable("T"), nullptr);

  auto program = sql::BuildInverseStatements(*db_, effects);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  // DDL first (CREATE TABLE, then the secondary index), rows after.
  ASSERT_GE(program->size(), 3u);
  EXPECT_EQ(program->front().sql.rfind("CREATE TABLE T", 0), 0u);
  ASSERT_TRUE(sql::ApplyInverseStatements(*db_, *program).ok());
  EXPECT_EQ(LogicalSnapshot(*db_), before);
}

TEST_F(InverseTest, CapturedTransactionCommitYieldsInverse) {
  std::string before = LogicalSnapshot(*db_);
  db_->set_capture_effects(true);
  Exec("BEGIN");
  Exec("INSERT INTO T VALUES (7, 'odd', 70)");
  Exec("UPDATE T SET N = 1 WHERE Id = 7");
  Exec("COMMIT");
  std::vector<sql::UndoEntry> effects = db_->TakeCapturedEffects();
  db_->set_capture_effects(false);
  ASSERT_FALSE(effects.empty());

  auto program = sql::BuildInverseStatements(*db_, effects);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_TRUE(sql::ApplyInverseStatements(*db_, *program).ok());
  EXPECT_EQ(LogicalSnapshot(*db_), before);
}

// --- auto-generated compensation in a workflow scope ------------------------

class CompensableStepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fixture = patterns::MakeFixture("chaos-comp");
    ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
    fixture_ = std::move(*fixture);
  }

  Result<wfc::InstanceResult> Run(wfc::ActivityPtr root) {
    auto definition =
        std::make_shared<wfc::ProcessDefinition>("p", std::move(root));
    definition->DeclareVariable(
        "DS", wfc::VarValue(wfc::ObjectPtr(
                  std::make_shared<bis::DataSourceVariable>(
                      patterns::Fixture::kConnection))));
    fixture_.engine->DeployOrReplace(definition);
    return fixture_.engine->RunProcess("p");
  }

  int64_t CountRows(const std::string& sql) {
    auto result = fixture_.db->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1;
    auto count = result->rows()[0][0].AsInteger();
    return count.ok() ? *count : -1;
  }

  bis::CompensableStep InsertConfirmation() {
    bis::SqlActivity::Config config;
    config.data_source_variable = "DS";
    config.statement =
        "INSERT INTO OrderConfirmations VALUES (900, 1, 1, 'auto')";
    return bis::MakeCompensableSqlStep("record", config);
  }

  patterns::Fixture fixture_;
};

TEST_F(CompensableStepTest, LaterFaultTriggersDerivedInverse) {
  auto scope = std::make_shared<wfc::CompensationScope>("scope");
  bis::CompensableStep step = InsertConfirmation();
  scope->AddStep(step.action, step.compensation);
  scope->AddStep(std::make_shared<wfc::SnippetActivity>(
      "boom",
      [](wfc::ProcessContext&) { return Status::ExecutionError("x"); }));

  uint64_t inverse_before = CounterValue("wfc.compensation.inverse");
  auto result = Run(scope);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kExecutionError);
  // The committed INSERT was undone by its auto-generated DELETE.
  EXPECT_EQ(CountRows("SELECT COUNT(*) FROM OrderConfirmations "
                      "WHERE ConfirmationID = 900"),
            0);
  EXPECT_EQ(CounterValue("wfc.compensation.inverse"), inverse_before + 1);
  EXPECT_GE(result->audit.CountKind(wfc::AuditEventKind::kCompensation),
            1u);
}

TEST_F(CompensableStepTest, NoFaultLeavesTheStepCommitted) {
  auto scope = std::make_shared<wfc::CompensationScope>("scope");
  bis::CompensableStep step = InsertConfirmation();
  scope->AddStep(step.action, step.compensation);

  auto result = Run(scope);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_EQ(CountRows("SELECT COUNT(*) FROM OrderConfirmations "
                      "WHERE ConfirmationID = 900"),
            1);
}

TEST_F(CompensableStepTest, InverseSurvivesChaosDuringCompensation) {
  GlobalChaosGuard guard;
  auto scope = std::make_shared<wfc::CompensationScope>("scope");
  bis::CompensableStep step = InsertConfirmation();
  scope->AddStep(step.action, step.compensation);
  scope->AddStep(std::make_shared<wfc::SnippetActivity>(
      "boom",
      [](wfc::ProcessContext&) { return Status::ExecutionError("x"); }));

  // Transient statement faults keep firing while the inverse program
  // replays; statement-level retry must absorb them.
  FaultInjector::Options options;
  options.seed = 3;
  options.probability = 0.2;
  sql::Database::SetGlobalFaultInjector(
      std::make_shared<FaultInjector>(options));
  // The fixture database predates this arming, so the process-wide
  // default (stamped at construction) would not reach it — set the
  // policy directly on the instance.
  fixture_.db->set_retry_policy(sql::RetryPolicy{/*max_attempts=*/16});

  auto result = Run(scope);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kExecutionError);
  sql::Database::SetGlobalFaultInjector(nullptr);
  EXPECT_EQ(CountRows("SELECT COUNT(*) FROM OrderConfirmations "
                      "WHERE ConfirmationID = 900"),
            0);
}

// --- service/adapter fault layer --------------------------------------------

class ServiceChaosTest : public ::testing::Test {
 protected:
  std::shared_ptr<wfc::SimpleWebService> Echo() {
    return std::make_shared<wfc::SimpleWebService>(
        "Echo", std::vector<std::string>{"x"},
        [](const std::vector<Value>& args) -> Result<Value> {
          return args[0];
        });
  }

  static std::shared_ptr<FaultInjector> ArmServiceFaults(
      uint64_t fault_first_n, const std::string& database_filter = "") {
    FaultInjector::Options options;
    options.fault_first_n = fault_first_n;
    options.statement_sites = false;
    options.service_sites = true;
    options.database_filter = database_filter;
    auto injector = std::make_shared<FaultInjector>(options);
    sql::Database::SetGlobalFaultInjector(injector);
    return injector;
  }
};

TEST_F(ServiceChaosTest, InvokeWithRecoveryAbsorbsTransportFaults) {
  GlobalChaosGuard guard;
  auto injector = ArmServiceFaults(2);
  auto service = Echo();
  xml::NodePtr request = wfc::MakeRequest({{"x", Value::Integer(7)}});

  uint64_t absorbed_before = CounterValue("svc.fault.absorbed");
  uint64_t attempts_before = CounterValue("svc.retry.attempts");
  auto response =
      wfc::InvokeWithRecovery(*service, request, /*max_attempts=*/4);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto value = wfc::GetResponseValue(*response);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, Value::Integer(7));
  // The fault fires before the call reaches the service: two faulted
  // attempts never invoked it, the third did — exactly once.
  EXPECT_EQ(service->invocation_count(), 1u);
  EXPECT_EQ(injector->stats().injected_service, 2u);
  EXPECT_EQ(CounterValue("svc.fault.absorbed"), absorbed_before + 1);
  EXPECT_EQ(CounterValue("svc.retry.attempts"), attempts_before + 2);
}

TEST_F(ServiceChaosTest, ExhaustionPropagatesTransientFault) {
  GlobalChaosGuard guard;
  ArmServiceFaults(10);
  auto service = Echo();
  xml::NodePtr request = wfc::MakeRequest({{"x", Value::Integer(1)}});
  auto response =
      wfc::InvokeWithRecovery(*service, request, /*max_attempts=*/3);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsTransient());
  EXPECT_EQ(service->invocation_count(), 0u);
}

TEST_F(ServiceChaosTest, ProcessDefaultPolicyAppliesWhenNoOverride) {
  GlobalChaosGuard guard;
  ArmServiceFaults(1);
  wfc::ServiceRetryPolicy policy;
  policy.max_attempts = 4;
  wfc::SetServiceRetryPolicyDefault(policy);
  auto service = Echo();
  xml::NodePtr request = wfc::MakeRequest({{"x", Value::Integer(1)}});
  EXPECT_TRUE(wfc::InvokeWithRecovery(*service, request).ok());
  EXPECT_EQ(service->invocation_count(), 1u);
}

TEST_F(ServiceChaosTest, AdapterBridgeFaultRetriedWithoutDoubleExecute) {
  GlobalChaosGuard guard;
  sql::Database db("orders");
  ASSERT_TRUE(db.Execute("CREATE TABLE T (a INTEGER)").ok());
  // The adapter site fires *inside* DataAccessService::Invoke before any
  // SQL runs; database_filter="adapter" keeps the statement layer clean.
  auto injector = ArmServiceFaults(1, "adapter");
  wfc::ServiceRetryPolicy policy;
  policy.max_attempts = 4;
  wfc::SetServiceRetryPolicyDefault(policy);

  adapter::DataAccessService service(
      "dal", std::shared_ptr<sql::Database>(&db, [](sql::Database*) {}));
  auto result =
      adapter::CallDataAccessService(&service, "INSERT INTO T VALUES (1)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector->stats().injected_service, 1u);
  auto count = db.Execute("SELECT COUNT(*) FROM T");
  ASSERT_TRUE(count.ok());
  // Replayed after the bridge fault, executed exactly once.
  EXPECT_EQ(count->rows()[0][0], Value::Integer(1));
}

// --- TimeoutScope × RetryActivity: deadline expires mid-backoff -------------

TEST(TimeoutRetryTest, DeadlineMidBackoffStopsWithoutOvershoot) {
  wfc::WorkflowEngine engine("chaos");
  int runs = 0;
  int64_t last_observed_now = -1;
  auto body = std::make_shared<wfc::SnippetActivity>(
      "body", [&](wfc::ProcessContext& ctx) -> Status {
        ++runs;
        last_observed_now = ctx.virtual_now_ns();
        return Status::Unavailable("down");
      });
  wfc::BackoffPolicy policy;
  policy.max_attempts = 100;
  policy.initial_delay_ns = 10'000'000;  // 10ms, doubling, no jitter
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  constexpr int64_t kBudget = 25'000'000;
  engine.DeployOrReplace(std::make_shared<wfc::ProcessDefinition>(
      "p", std::make_shared<wfc::TimeoutScope>(
               "ts",
               std::make_shared<wfc::RetryActivity>("r", body, policy),
               kBudget)));

  auto result = engine.RunProcess("p");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kTimeout);
  // t=0 attempt 1, backoff 10ms; t=10ms attempt 2; the next 20ms backoff
  // would land at 30ms > 25ms, so the retry stops *during* the backoff
  // decision: exactly two attempts, and the virtual clock never passed
  // the deadline.
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(last_observed_now, 10'000'000);
  EXPECT_LE(last_observed_now, kBudget);
  bool recorded = false;
  for (const auto& event :
       result->audit.FilterKind(wfc::AuditEventKind::kRetry)) {
    recorded = recorded ||
               event.detail.find("would overshoot") != std::string::npos;
  }
  EXPECT_TRUE(recorded);
}

}  // namespace
}  // namespace sqlflow
