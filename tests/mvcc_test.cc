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

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <random>
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

// --- seeded bookkeeping property ----------------------------------------------
// Three connections run explicit transactions and autocommit writes
// (UPDATE, INSERT, DELETE) over a 200-row table with a PRIMARY KEY and a
// secondary index. Keys are drawn from the whole key range, so writes
// land at the head, middle and tail of the table and deletes shift the
// slots of other transactions' pending rows. After every step each
// connection's view must equal a model of its snapshot (the committed
// state at its BEGIN plus its own writes), and every write's status must
// be the one the model predicts — in particular kDeadlock exactly when
// another transaction holds pending rows or a contended key.

/// Snapshot isolation as this engine implements it: conflicts are
/// detected at write time (first-committer-wins), UPDATE/DELETE refuse
/// while another transaction has pending live rows in the table, and a
/// key freed by a displaced version stays contended while its displacer
/// is in flight or committed after the writer's snapshot.
class SiModel {
 public:
  static constexpr int kConns = 3;

  struct Expect {
    std::vector<StatusCode> codes;  // any of these; first is the usual
    int64_t affected = 0;
  };

  explicit SiModel(std::map<int64_t, int64_t> rows)
      : committed_(std::move(rows)) {
    for (const auto& [k, v] : committed_) changed_at_[k] = 0;
  }

  bool open(int c) const { return txns_[c].has_value(); }

  void Begin(int c) {
    txns_[c] = Txn{commits_, committed_, {}};
  }

  void Commit(int c) {
    ++commits_;
    for (const auto& [k, w] : txns_[c]->writes) {
      if (w.has_value()) {
        committed_[k] = *w;
        changed_at_[k] = commits_;
      } else {
        committed_.erase(k);
        changed_at_.erase(k);
      }
    }
    for (Displaced& d : displaced_) {
      if (d.conn == c && d.committed == 0) d.committed = commits_;
    }
    txns_[c].reset();
  }

  void Abort(int c) {
    std::erase_if(displaced_, [c](const Displaced& d) {
      return d.conn == c && d.committed == 0;
    });
    txns_[c].reset();
  }

  /// Rows connection `c` reads: its snapshot plus its own writes, or the
  /// latest committed state outside a transaction.
  std::vector<Row> View(int c) const {
    std::map<int64_t, int64_t> view = committed_;
    if (open(c)) {
      view = txns_[c]->snapshot;
      for (const auto& [k, w] : txns_[c]->writes) {
        if (w.has_value()) {
          view[k] = *w;
        } else {
          view.erase(k);
        }
      }
    }
    std::vector<Row> rows;
    for (const auto& [k, v] : view) {
      rows.push_back({Value::Integer(k), Value::Integer(v)});
    }
    return rows;
  }

  std::vector<Row> Committed() const {
    std::vector<Row> rows;
    for (const auto& [k, v] : committed_) {
      rows.push_back({Value::Integer(k), Value::Integer(v)});
    }
    return rows;
  }

  // Each write is applied to the model only when it succeeds; `c` has an
  // open transaction (autocommit runs Begin/op/Commit-or-Abort).

  Expect Update(int c, int64_t k, int64_t v) {
    if (PendingOther(c)) return {{StatusCode::kDeadlock}};
    std::optional<Live> live = LiveRow(k);
    if (!live.has_value()) return {{StatusCode::kOk}, 0};
    if (live->writer < 0 && live->changed_at > txns_[c]->begin) {
      return {{StatusCode::kUnavailable}};
    }
    if (std::optional<Expect> e = StashConflict(c, k)) return *e;
    if (live->writer < 0) displaced_.push_back({k, c, 0});
    txns_[c]->writes[k] = v;
    return {{StatusCode::kOk}, 1};
  }

  Expect Delete(int c, int64_t k) {
    if (PendingOther(c)) return {{StatusCode::kDeadlock}};
    std::optional<Live> live = LiveRow(k);
    if (!live.has_value()) return {{StatusCode::kOk}, 0};
    if (live->writer < 0) {
      if (live->changed_at > txns_[c]->begin) {
        return {{StatusCode::kUnavailable}};
      }
      displaced_.push_back({k, c, 0});
    }
    txns_[c]->writes[k] = std::nullopt;
    return {{StatusCode::kOk}, 1};
  }

  Expect Insert(int c, int64_t k, int64_t v) {
    if (std::optional<Live> live = LiveRow(k)) {
      if (live->writer >= 0 && live->writer != c) {
        return {{StatusCode::kDeadlock}};
      }
      if (live->writer < 0 && live->changed_at > txns_[c]->begin) {
        return {{StatusCode::kUnavailable}};
      }
      return {{StatusCode::kConstraintError}};
    }
    if (std::optional<Expect> e = StashConflict(c, k)) return *e;
    txns_[c]->writes[k] = v;
    return {{StatusCode::kOk}, 1};
  }

 private:
  struct Txn {
    uint64_t begin = 0;  // commits seen at BEGIN
    std::map<int64_t, int64_t> snapshot;
    std::map<int64_t, std::optional<int64_t>> writes;  // nullopt: deleted
  };
  /// A committed row version some transaction displaced (UPDATE or
  /// DELETE): the engine's stashed pre-image.
  struct Displaced {
    int64_t key = 0;
    int conn = 0;
    uint64_t committed = 0;  // 0 while the displacer is in flight
  };
  struct Live {
    int writer = -1;  // connection with the row pending; -1 committed
    uint64_t changed_at = 0;
  };

  /// The live table row holding `k`: at most one transaction has a
  /// pending write on a key, and its write decides.
  std::optional<Live> LiveRow(int64_t k) const {
    for (int c = 0; c < kConns; ++c) {
      if (!open(c)) continue;
      auto it = txns_[c]->writes.find(k);
      if (it == txns_[c]->writes.end()) continue;
      if (!it->second.has_value()) return std::nullopt;
      return Live{c, 0};
    }
    auto it = changed_at_.find(k);
    if (it == changed_at_.end()) return std::nullopt;
    return Live{-1, it->second};
  }

  /// Another open transaction has a pending live row in the table — the
  /// UPDATE/DELETE gate.
  bool PendingOther(int c) const {
    for (int o = 0; o < kConns; ++o) {
      if (o == c || !open(o)) continue;
      for (const auto& [k, w] : txns_[o]->writes) {
        if (w.has_value()) return true;
      }
    }
    return false;
  }

  /// A displaced version of `k` whose displacer is in flight elsewhere
  /// (kDeadlock) or committed after `c`'s snapshot (kUnavailable). When
  /// both exist the engine reports whichever its stash lists first.
  std::optional<Expect> StashConflict(int c, int64_t k) const {
    bool pending_other = false;
    bool committed_after = false;
    for (const Displaced& d : displaced_) {
      if (d.key != k) continue;
      pending_other |= d.committed == 0 && d.conn != c;
      committed_after |= d.committed > txns_[c]->begin;
    }
    if (pending_other && committed_after) {
      return Expect{{StatusCode::kDeadlock, StatusCode::kUnavailable}};
    }
    if (pending_other) return Expect{{StatusCode::kDeadlock}};
    if (committed_after) return Expect{{StatusCode::kUnavailable}};
    return std::nullopt;
  }

  std::map<int64_t, int64_t> committed_;
  std::map<int64_t, uint64_t> changed_at_;  // commit count of last write
  uint64_t commits_ = 0;
  std::array<std::optional<Txn>, kConns> txns_;
  std::vector<Displaced> displaced_;
};

void RunBookkeepingProperty(uint64_t seed) {
  Database db("mvccprop");
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (k INTEGER PRIMARY KEY, "
                               "v INTEGER); CREATE INDEX t_v ON t (v);")
                  .ok());
  std::map<int64_t, int64_t> initial;
  for (int64_t k = 1; k <= 200; ++k) {
    initial[k] = (k * 37) % 1000;
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (?, ?)",
                           Params().Add(Value::Integer(k)).Add(
                               Value::Integer(initial[k])))
                    .ok());
  }
  std::array<std::shared_ptr<Database>, SiModel::kConns> conns;
  for (auto& conn : conns) conn = db.CreateConnection();
  SiModel model(initial);
  Table* table = db.catalog().FindTable("t");
  std::mt19937_64 rng(seed);
  auto pick = [&](int64_t n) {
    return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
  };
  int64_t next_key = 201;
  int64_t last_deleted = 0;

  auto check_views = [&](const std::string& where) {
    for (int c = 0; c < SiModel::kConns; ++c) {
      auto rs = conns[c]->Execute("SELECT * FROM t ORDER BY k");
      ASSERT_TRUE(rs.ok()) << where << ": " << rs.status().ToString();
      ASSERT_EQ(rs->rows(), model.View(c)) << where << ", conn " << c;
    }
    // The pending-slot list commit, abort and the writer gate walk must
    // name exactly the slots a full scan finds pending.
    std::vector<size_t> pending;
    for (size_t i = 0; i < table->row_count(); ++i) {
      if (table->MetaAt(i).writer != 0) pending.push_back(i);
    }
    ASSERT_EQ(table->PendingSlotsForTest(), pending) << where;
  };

  for (int step = 0; step < 300; ++step) {
    const int c = static_cast<int>(pick(SiModel::kConns));
    Database& conn = *conns[c];
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const bool explicit_txn = model.open(c);
    if (explicit_txn && pick(4) == 0) {
      if (pick(2) == 0) {
        ASSERT_TRUE(conn.Commit().ok()) << where;
        model.Commit(c);
      } else {
        ASSERT_TRUE(conn.Rollback().ok()) << where;
        model.Abort(c);
      }
    } else if (!explicit_txn && pick(3) == 0) {
      ASSERT_TRUE(conn.Begin().ok()) << where;
      model.Begin(c);
    } else {
      if (!explicit_txn) model.Begin(c);
      const int64_t value = pick(1000);
      const int64_t kind = pick(20);
      std::string sql;
      Params params;
      SiModel::Expect expect;
      if (kind < 9) {
        const int64_t k = 1 + pick(next_key - 1);
        sql = "UPDATE t SET v = ? WHERE k = ?";
        params = Params().Add(Value::Integer(value)).Add(Value::Integer(k));
        expect = model.Update(c, k, value);
      } else if (kind < 15) {
        const int64_t k = 1 + pick(next_key - 1);
        sql = "DELETE FROM t WHERE k = ?";
        params = Params().Add(Value::Integer(k));
        expect = model.Delete(c, k);
        if (expect.affected == 1) last_deleted = k;
      } else {
        // Fresh keys (appended at the tail), keys anywhere in the range
        // (mostly duplicates), and the last deleted key, whose deleter
        // may still be in flight or committed after this snapshot.
        const int64_t choice = pick(3);
        const int64_t k = choice == 0   ? next_key++
                          : choice == 1 || last_deleted == 0
                              ? 1 + pick(next_key - 1)
                              : last_deleted;
        sql = "INSERT INTO t VALUES (?, ?)";
        params = Params().Add(Value::Integer(k)).Add(Value::Integer(value));
        expect = model.Insert(c, k, value);
      }
      auto rs = conn.Execute(sql, params);
      const StatusCode code = rs.ok() ? StatusCode::kOk : rs.status().code();
      ASSERT_NE(std::find(expect.codes.begin(), expect.codes.end(), code),
                expect.codes.end())
          << where << ", conn " << c << ": " << sql << " with "
          << ::testing::PrintToString(params.positional) << " returned "
          << (rs.ok() ? "OK" : rs.status().ToString()) << ", model expects "
          << StatusCodeName(expect.codes.front());
      if (rs.ok()) {
        ASSERT_EQ(rs->affected_rows(), expect.affected) << where << ": " << sql;
      }
      if (!explicit_txn) {
        if (rs.ok()) {
          model.Commit(c);
        } else {
          model.Abort(c);
        }
      }
    }
    check_views(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int c = 0; c < SiModel::kConns; ++c) {
    if (!model.open(c)) continue;
    ASSERT_TRUE(conns[c]->Commit().ok());
    model.Commit(c);
  }
  auto final_rows = db.Execute("SELECT * FROM t ORDER BY k");
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(final_rows->rows(), model.Committed()) << "seed " << seed;
  EXPECT_FALSE(table->HasPendingWriterOther(0)) << "seed " << seed;
}

TEST(MvccPropertyTest, BookkeepingMatchesSnapshotModel) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunBookkeepingProperty(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sqlflow::sql
