// MVCC snapshot-isolation semantics, exercised through real connections
// (sql::Database::CreateConnection): readers never observe uncommitted
// or later-committed writes, write-write conflicts abort with a
// *transient* status (so the retry layers above can absorb them), and
// version garbage collection leaves the visible state byte-identical.
//
// Everything here is single-threaded on purpose: a Database connection
// runs one statement at a time, and interleaving statements across
// connections from one thread is a legal schedule — the deterministic
// one. The concurrency_test and the TSan sweep cover the multi-threaded
// schedules.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sql/database.h"
#include "sql/introspect.h"
#include "sql/table.h"
#include "sql/transaction.h"

namespace sqlflow::sql {
namespace {

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner VARCHAR(16),
                             balance INTEGER);
      INSERT INTO accounts VALUES (1, 'alice', 100), (2, 'bob', 200),
                                  (3, 'carol', 300);
    )sql")
                    .ok());
    ASSERT_TRUE(RegisterSysTables(&db_).ok());
    conn1_ = db_.CreateConnection();
    conn2_ = db_.CreateConnection();
  }

  static std::string Snapshot(Database& db) {
    auto rs = db.Execute("SELECT * FROM accounts ORDER BY id");
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() ? rs->ToAsciiTable(1000) : "<error>";
  }

  Table* table() { return db_.catalog().FindTable("accounts"); }

  Database db_{"mvccdb"};
  std::shared_ptr<Database> conn1_;
  std::shared_ptr<Database> conn2_;
};

TEST_F(MvccTest, CreateConnectionFlipsConcurrentMode) {
  EXPECT_TRUE(db_.concurrent_mode());
  EXPECT_TRUE(conn1_->concurrent_mode());
  auto rs = db_.Execute(
      "SELECT CONCURRENT_MODE, ACTIVE_TXNS FROM sys.transactions");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->row_count(), 1u);
  EXPECT_EQ(rs->rows()[0][0], Value::Boolean(true));
}

TEST_F(MvccTest, ReadersNeverSeeUncommittedWrites) {
  std::string before = Snapshot(*conn2_);
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 999 WHERE id = 1")
          .ok());
  ASSERT_TRUE(conn1_->Execute("INSERT INTO accounts VALUES (4, 'dan', 0)")
                  .ok());
  ASSERT_TRUE(
      conn1_->Execute("DELETE FROM accounts WHERE id = 3").ok());

  // The writer reads its own changes...
  auto own = conn1_->Execute(
      "SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->rows()[0][0], Value::Integer(999));

  // ...while every other connection still sees the pre-transaction
  // state, byte for byte.
  EXPECT_EQ(Snapshot(*conn2_), before);
  EXPECT_EQ(Snapshot(db_), before);

  ASSERT_TRUE(conn1_->Commit().ok());
  EXPECT_NE(Snapshot(*conn2_), before);
  auto after = conn2_->Execute(
      "SELECT COUNT(*), SUM(balance) FROM accounts");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows()[0][0], Value::Integer(3));  // 4 added, 3 gone
  EXPECT_EQ(after->rows()[0][1], Value::Integer(999 + 200 + 0));
}

TEST_F(MvccTest, TransactionsReadTheirBeginSnapshot) {
  ASSERT_TRUE(conn2_->Begin().ok());
  auto first = conn2_->Execute(
      "SELECT balance FROM accounts WHERE id = 2");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows()[0][0], Value::Integer(200));

  // Another connection commits an update and an insert *after* conn2's
  // snapshot was taken.
  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 201 WHERE id = 2")
          .ok());
  ASSERT_TRUE(
      conn1_->Execute("INSERT INTO accounts VALUES (4, 'dan', 400)").ok());

  // Repeatable read: conn2 keeps seeing its begin-time state.
  auto again = conn2_->Execute(
      "SELECT balance FROM accounts WHERE id = 2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows()[0][0], Value::Integer(200));
  auto count = conn2_->Execute("SELECT COUNT(*) FROM accounts");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows()[0][0], Value::Integer(3));

  // After its transaction ends, the world moves forward.
  ASSERT_TRUE(conn2_->Commit().ok());
  auto fresh = conn2_->Execute(
      "SELECT balance FROM accounts WHERE id = 2");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows()[0][0], Value::Integer(201));
  count = conn2_->Execute("SELECT COUNT(*) FROM accounts");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows()[0][0], Value::Integer(4));
}

TEST_F(MvccTest, PendingWriteAbortsConcurrentWriterWithDeadlock) {
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 111 WHERE id = 1")
          .ok());

  // conn2's write sees in-flight changes from conn1 and must abort with
  // a *transient* status — the one RetryActivity absorbs.
  auto blocked = conn2_->Execute(
      "UPDATE accounts SET balance = 222 WHERE id = 2");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kDeadlock)
      << blocked.status().ToString();
  EXPECT_TRUE(blocked.status().IsTransient());

  // Once conn1 resolves, the same statement succeeds.
  ASSERT_TRUE(conn1_->Commit().ok());
  EXPECT_TRUE(conn2_->Execute(
                        "UPDATE accounts SET balance = 222 WHERE id = 2")
                  .ok());
}

TEST_F(MvccTest, FirstCommitterWinsOnWriteWriteConflict) {
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(conn2_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 111 WHERE id = 1")
          .ok());
  ASSERT_TRUE(conn1_->Commit().ok());

  // conn2's snapshot predates conn1's commit; its write to the same
  // table must lose (first committer wins) with a transient status.
  auto lost = conn2_->Execute(
      "UPDATE accounts SET balance = 112 WHERE id = 1");
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(lost.status().IsTransient()) << lost.status().ToString();
  ASSERT_TRUE(conn2_->Rollback().ok());

  auto rs = conn2_->Execute("SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows()[0][0], Value::Integer(111));
}

TEST_F(MvccTest, RollbackLeavesNoTraceForAnyReader) {
  std::string before = Snapshot(*conn2_);
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 0").ok());
  ASSERT_TRUE(
      conn1_->Execute("INSERT INTO accounts VALUES (9, 'eve', 900)").ok());
  ASSERT_TRUE(conn1_->Execute("DELETE FROM accounts WHERE id = 2").ok());
  ASSERT_TRUE(conn1_->Rollback().ok());

  EXPECT_EQ(Snapshot(*conn1_), before);
  EXPECT_EQ(Snapshot(*conn2_), before);
  // No pending metadata survives the abort.
  EXPECT_FALSE(table()->HasPendingWriterOther(0));
}

TEST_F(MvccTest, VersionGcLeavesVisibleStateByteIdentical) {
  // Churn versions: five transactional rewrites of the same rows.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(conn1_->Begin().ok());
    ASSERT_TRUE(conn1_
                    ->Execute("UPDATE accounts SET balance = balance + 1 "
                              "WHERE id <= 2")
                    .ok());
    ASSERT_TRUE(conn1_->Commit().ok());
  }
  std::string visible = Snapshot(*conn2_);

  // No transaction is active, so the GC horizon is the current epoch and
  // the commit-path GC has emptied the stash.
  EXPECT_EQ(table()->StashDepthForTest(), 0u);
  EXPECT_EQ(table()->GcVersions(db_.mvcc().Horizon()), 0u);
  EXPECT_EQ(Snapshot(*conn2_), visible);
  auto rs = conn2_->Execute(
      "SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows()[0][0], Value::Integer(105));
}

TEST_F(MvccTest, GcKeepsVersionsAnOpenSnapshotStillNeeds) {
  ASSERT_TRUE(conn2_->Begin().ok());  // pins the horizon
  auto pinned = conn2_->Execute(
      "SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(pinned.ok());

  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 777 WHERE id = 1")
          .ok());
  // The stashed pre-image must survive the commit-path GC: conn2's
  // snapshot still reads it.
  EXPECT_GE(table()->StashDepthForTest(), 1u);
  auto still = conn2_->Execute(
      "SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->rows()[0][0], Value::Integer(100));

  ASSERT_TRUE(conn2_->Commit().ok());
  // With the horizon released, the next GC drops the stale version and
  // the latest committed value is what everyone reads.
  table()->GcVersions(db_.mvcc().Horizon());
  EXPECT_EQ(table()->StashDepthForTest(), 0u);
  auto latest = conn2_->Execute(
      "SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->rows()[0][0], Value::Integer(777));
}

TEST_F(MvccTest, EpochAndCountersAdvanceThroughSysTransactions) {
  auto before = db_.Execute("SELECT EPOCH, COMMITTED FROM sys.transactions");
  ASSERT_TRUE(before.ok());
  int64_t epoch_before = before->rows()[0][0].integer();

  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 1 WHERE id = 1").ok());
  ASSERT_TRUE(conn1_->Commit().ok());

  auto after = db_.Execute("SELECT EPOCH, COMMITTED FROM sys.transactions");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->rows()[0][0].integer(), epoch_before);
  EXPECT_GT(after->rows()[0][1].integer(),
            before->rows()[0][1].integer());
}

TEST_F(MvccTest, AutocommitStatementsConflictAndRecoverLikeTransactions) {
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(conn1_->Execute("DELETE FROM accounts WHERE id = 3").ok());

  // Autocommit DML from another connection is wrapped in an implicit
  // transaction and hits the same conflict detection.
  auto blocked = conn2_->Execute("INSERT INTO accounts VALUES (3, 'x', 1)");
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsTransient())
      << blocked.status().ToString();

  ASSERT_TRUE(conn1_->Rollback().ok());
  // Rollback restored row 3, so the insert now fails *permanently* on
  // the duplicate key — proof the abort cleaned up the pending state.
  auto dup = conn2_->Execute("INSERT INTO accounts VALUES (3, 'x', 1)");
  ASSERT_FALSE(dup.ok());
  EXPECT_FALSE(dup.status().IsTransient()) << dup.status().ToString();
}

// --- unique-key collisions under MVCC -----------------------------------------
// A duplicate key is classified by the row holding it: pending under
// another transaction ⇒ transient kDeadlock, committed after the
// writer's snapshot ⇒ transient kUnavailable, otherwise a permanent
// ConstraintError.

TEST_F(MvccTest, InsertOntoKeyPendingUnderAnotherInsertIsTransient) {
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("INSERT INTO accounts VALUES (4, 'dan', 0)").ok());
  auto blocked = conn2_->Execute("INSERT INTO accounts VALUES (4, 'x', 1)");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kDeadlock)
      << blocked.status().ToString();
  EXPECT_NE(blocked.status().ToString().find("contended by in-flight"),
            std::string::npos)
      << blocked.status().ToString();
  ASSERT_TRUE(conn1_->Rollback().ok());
  // The key was never committed: the retried insert now succeeds.
  EXPECT_TRUE(
      conn2_->Execute("INSERT INTO accounts VALUES (4, 'x', 1)").ok());
}

TEST_F(MvccTest, InsertOntoKeyCommittedAfterSnapshotIsTransient) {
  ASSERT_TRUE(conn2_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("INSERT INTO accounts VALUES (4, 'dan', 0)").ok());
  auto lost = conn2_->Execute("INSERT INTO accounts VALUES (4, 'x', 1)");
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kUnavailable)
      << lost.status().ToString();
  EXPECT_TRUE(lost.status().IsTransient());
  ASSERT_TRUE(conn2_->Rollback().ok());

  // From a fresh snapshot the committed key is a plain duplicate.
  auto dup = conn2_->Execute("INSERT INTO accounts VALUES (4, 'x', 1)");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintError)
      << dup.status().ToString();
  EXPECT_FALSE(dup.status().IsTransient());
}

TEST_F(MvccTest, UpdateOntoKeyPendingUnderAnotherInsertIsTransient) {
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("INSERT INTO accounts VALUES (4, 'dan', 0)").ok());
  // A SQL UPDATE is refused earlier, by the whole-statement gate on
  // another transaction's pending rows; drive Table::Update directly so
  // the re-key reaches the unique-key classification.
  // The writer's id is one no real transaction holds; its snapshot is
  // later than every committed row, so only the pending key can refuse.
  MvccTxn writer;
  writer.id = uint64_t{1} << 40;
  writer.begin_ts = kPendingTs - 1;
  UndoLog undo;
  undo.txn = &writer;
  std::string before = Snapshot(*conn1_);
  ASSERT_EQ(table()->rows()[0][0], Value::Integer(1));
  Status st = table()->Update(
      0, {Value::Integer(4), Value::String("alice"), Value::Integer(100)},
      &undo);
  EXPECT_EQ(st.code(), StatusCode::kDeadlock) << st.ToString();
  EXPECT_NE(st.ToString().find("contended by in-flight"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(undo.empty());
  EXPECT_EQ(Snapshot(*conn1_), before);
  ASSERT_TRUE(conn1_->Rollback().ok());
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// While another connection holds a pending UPDATE, INSERT and DELETE,
// every SELECT shape reads the committed state through the one SELECT
// pipeline, over the snapshot copy of the table.
TEST_F(MvccTest, PipelineServesSnapshotReads) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE owners (owner VARCHAR(16) PRIMARY KEY, region VARCHAR(8));
    INSERT INTO owners VALUES ('alice', 'east'), ('bob', 'west'),
                              ('carol', 'east'), ('dan', 'west');
  )sql")
                  .ok());
  ASSERT_TRUE(conn1_->Begin().ok());
  ASSERT_TRUE(
      conn1_->Execute("UPDATE accounts SET balance = 999 WHERE id = 1").ok());
  ASSERT_TRUE(
      conn1_->Execute("INSERT INTO accounts VALUES (4, 'dan', 0)").ok());
  ASSERT_TRUE(conn1_->Execute("DELETE FROM accounts WHERE id = 3").ok());

  auto query = [&](const std::string& sql) -> std::vector<Row> {
    const uint64_t batches = CounterValue("sql.plan.batch");
    const uint64_t snapshots = CounterValue("sql.mvcc.snapshot_scan");
    auto rs = conn2_->Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    EXPECT_GT(CounterValue("sql.plan.batch"), batches) << sql;
    EXPECT_GT(CounterValue("sql.mvcc.snapshot_scan"), snapshots) << sql;
    return rs.ok() ? rs->rows() : std::vector<Row>{};
  };
  auto i = [](int64_t v) { return Value::Integer(v); };
  auto str = [](const char* v) { return Value::String(v); };

  EXPECT_EQ(query("SELECT owner, balance FROM accounts WHERE id = 1"),
            (std::vector<Row>{{str("alice"), i(100)}}));
  EXPECT_EQ(query("SELECT owner FROM accounts WHERE id = 3"),
            (std::vector<Row>{{str("carol")}}));
  EXPECT_TRUE(query("SELECT owner FROM accounts WHERE id = 4").empty());
  EXPECT_EQ(query("SELECT o.region, SUM(a.balance), COUNT(*) "
                  "FROM accounts a JOIN owners o ON a.owner = o.owner "
                  "GROUP BY o.region ORDER BY o.region"),
            (std::vector<Row>{{str("east"), i(400), i(2)},
                              {str("west"), i(200), i(1)}}));
  EXPECT_EQ(query("SELECT DISTINCT balance >= 200 AS rich FROM accounts "
                  "ORDER BY rich"),
            (std::vector<Row>{{Value::Boolean(false)},
                              {Value::Boolean(true)}}));
  EXPECT_EQ(query("SELECT id, balance FROM accounts "
                  "ORDER BY balance DESC LIMIT 2"),
            (std::vector<Row>{{i(3), i(300)}, {i(2), i(200)}}));
  ASSERT_TRUE(conn1_->Rollback().ok());
}

TEST_F(MvccTest, PipelineServesSelectsWithoutFrom) {
  ASSERT_TRUE(db_.Execute("CREATE SEQUENCE s START WITH 7").ok());
  for (const auto& [sql, expected] :
       std::vector<std::pair<std::string, Value>>{
           {"SELECT 1 + 1", Value::Integer(2)},
           {"SELECT NEXTVAL('s')", Value::Integer(7)}}) {
    const uint64_t batches = CounterValue("sql.plan.batch");
    auto rs = conn1_->Execute(sql);
    ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    ASSERT_EQ(rs->row_count(), 1u) << sql;
    EXPECT_EQ(rs->rows()[0][0], expected) << sql;
    EXPECT_GT(CounterValue("sql.plan.batch"), batches) << sql;
  }
}

}  // namespace
}  // namespace sqlflow::sql
