// Coverage for the access-path optimizer: secondary hash indexes,
// index-backed point lookups, hash equi-joins, and the statement-plan
// cache. The battery is differential — every query runs once with the
// optimizer on and once with it off, and the two result sets (or the
// two errors) must be identical.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sql/batch.h"
#include "sql/database.h"
#include "sql/key_hash.h"
#include "sql/planner.h"
#include "sql/table.h"

#include "reference_select.h"

namespace sqlflow::sql {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// Executes `sql` with the optimizer on, then off, and expects the same
// outcome both ways. Leaves the optimizer enabled.
void ExpectDifferentialMatch(Database& db, const std::string& sql) {
  db.set_optimizer_enabled(true);
  auto on = db.Execute(sql);
  db.set_optimizer_enabled(false);
  auto off = db.Execute(sql);
  db.set_optimizer_enabled(true);
  ASSERT_EQ(on.ok(), off.ok())
      << sql << "\n  optimized: "
      << (on.ok() ? "ok" : on.status().ToString()) << "\n  scan: "
      << (off.ok() ? "ok" : off.status().ToString());
  if (on.ok()) {
    EXPECT_EQ(on->ToAsciiTable(100000), off->ToAsciiTable(100000)) << sql;
  } else {
    EXPECT_EQ(on.status().ToString(), off.status().ToString()) << sql;
  }
}

class PlansTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE emp (id INTEGER PRIMARY KEY, dept INTEGER,
                        name VARCHAR(20), salary DOUBLE);
      CREATE TABLE dept (id INTEGER PRIMARY KEY, title VARCHAR(20));
      CREATE INDEX idx_emp_dept ON emp (dept);
      INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty');
      INSERT INTO emp VALUES (1, 1, 'ada', 100.5), (2, 1, 'bob', 90.0),
                             (3, 2, 'cyd', 80.25), (4, NULL, 'dan', 70.0),
                             (5, 2, 'eve', 60.5), (6, NULL, 'fay', 50.0);
    )sql")
                    .ok());
  }

  Database db_{"plans"};
};

// --- join-key hash normalization -------------------------------------------

TEST(LookupKeyTest, ValuesEqualUnderSqlComparisonHashIdentically) {
  // nullopt: a NULL key part never matches anything.
  auto key = [](const Value& v) -> std::optional<uint64_t> {
    uint64_t hash = 0;
    unsigned classes = 0;
    if (!HashJoinKeyPart(v, &hash, &classes)) return std::nullopt;
    return hash;
  };
  // 1 = 1.0 = '1' = '1.0' under the engine's coercing comparison.
  EXPECT_EQ(key(Value::Integer(1)), key(Value::Double(1.0)));
  EXPECT_EQ(key(Value::Integer(1)), key(Value::String("1")));
  EXPECT_EQ(key(Value::Integer(1)), key(Value::String("1.0")));
  // -0.0 and +0.0 compare equal, so they must collide.
  EXPECT_EQ(key(Value::Double(0.0)), key(Value::Double(-0.0)));
  EXPECT_EQ(key(Value::Double(0.0)), key(Value::String("-0")));
  // Every NaN hashes alike, whatever its payload or sign.
  EXPECT_EQ(key(Value::Double(std::nan(""))),
            key(Value::Double(-std::nan("7"))));
  EXPECT_EQ(key(Value::Double(std::nan(""))), key(Value::String("nan")));
  // Distinct values must not collide.
  EXPECT_NE(key(Value::Integer(1)), key(Value::Integer(2)));
  EXPECT_NE(key(Value::String("abc")), key(Value::String("abd")));
  EXPECT_NE(key(Value::Boolean(true)), key(Value::Integer(1)));
  EXPECT_NE(key(Value::Null()), key(Value::String("")));
}

TEST(GroupKeyHashTest, IdentityIsSameTypeAndEqual) {
  const Value nan = Value::Double(std::nan(""));
  const Value other_nan = Value::Double(-std::nan("7"));
  EXPECT_TRUE(GroupValueEqual(nan, other_nan));
  EXPECT_EQ(GroupValueHash(nan), GroupValueHash(other_nan));
  EXPECT_TRUE(GroupValueEqual(Value::Double(0.0), Value::Double(-0.0)));
  EXPECT_EQ(GroupValueHash(Value::Double(0.0)),
            GroupValueHash(Value::Double(-0.0)));
  EXPECT_TRUE(GroupValueEqual(Value::Null(), Value::Null()));
  EXPECT_FALSE(GroupValueEqual(Value::Integer(1), Value::Double(1.0)));
  EXPECT_FALSE(GroupValueEqual(Value::String("1"), Value::Integer(1)));
  EXPECT_FALSE(
      GroupValueEqual(Value::Double(1.0000001), Value::Double(1.0000002)));
  EXPECT_FALSE(GroupValueEqual(Value::Null(), Value::String("")));
  // A batch column element hashes and compares like its Value.
  VecCol col;
  const std::vector<Value> values = {Value::Double(-0.0), Value::Null(),
                                     Value::Double(2.5), nan};
  ASSERT_TRUE(LoadVecCol(
      values.size(), [&](size_t i) -> const Value& { return values[i]; },
      &col));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(GroupValueHash(col, i), GroupValueHash(values[i])) << i;
    EXPECT_TRUE(GroupValueEqual(col, i, values[i])) << i;
  }
  EXPECT_TRUE(GroupValueEqual(col, 0, Value::Double(0.0)));
  EXPECT_FALSE(GroupValueEqual(col, 0, Value::Integer(0)));
}

TEST(GroupKeyHashTest, TableChainsKeepInsertionOrder) {
  KeyHashTable table;
  // Ids under one hash come back in the order they were added, also
  // across the table's growth (100 hashes outgrow the first 16 buckets).
  for (uint32_t id = 0; id < 300; ++id) table.Add(id % 100 + 7, id);
  for (uint64_t hash = 7; hash < 107; ++hash) {
    uint32_t expect = static_cast<uint32_t>(hash - 7);
    for (uint32_t id = table.First(hash); id != KeyHashTable::kEnd;
         id = table.Next(id)) {
      EXPECT_EQ(id, expect);
      expect += 100;
    }
    EXPECT_EQ(expect, hash - 7 + 300);
  }
  EXPECT_EQ(table.First(1000), KeyHashTable::kEnd);
}

// --- secondary index maintenance -------------------------------------------

TEST_F(PlansTest, PrimaryKeyGetsAutomaticIndex) {
  Table* emp = db_.catalog().FindTable("emp");
  ASSERT_NE(emp, nullptr);
  ASSERT_FALSE(emp->secondary_indexes().empty());
  EXPECT_TRUE(emp->secondary_indexes()[0].unique);
}

TEST_F(PlansTest, IndexStaysConsistentAcrossDml) {
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (7, 3, 'gil', 40)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE emp SET dept = 1 WHERE id = 5").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE id = 2").ok());
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = 1");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = 2");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = 3");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = 7");
}

TEST_F(PlansTest, IndexSurvivesTruncate) {
  ASSERT_TRUE(db_.Execute("TRUNCATE TABLE emp").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (9, 2, 'zoe', 10)").ok());
  uint64_t before = CounterValue("sql.plan.index_lookup");
  auto rs = db_.Execute("SELECT name FROM emp WHERE dept = 2");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 1u);
  EXPECT_EQ(rs->rows()[0][0], Value::String("zoe"));
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), before);
}

// --- point lookups ----------------------------------------------------------

TEST_F(PlansTest, PointLookupUsesIndexAndReadsFewerRows) {
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  uint64_t rows_before = db_.stats().rows_read;
  auto rs = db_.Execute("SELECT name FROM emp WHERE id = 3");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 1u);
  EXPECT_EQ(rs->rows()[0][0], Value::String("cyd"));
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), lookups);
  // The unique index narrows the read set to the single matching slot.
  EXPECT_EQ(db_.stats().rows_read - rows_before, 1u);
}

TEST_F(PlansTest, UnindexedPredicateFallsBackToScan) {
  uint64_t scans = CounterValue("sql.plan.scan");
  auto rs = db_.Execute("SELECT id FROM emp WHERE name = 'eve'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 1u);
  EXPECT_GT(CounterValue("sql.plan.scan"), scans);
}

TEST_F(PlansTest, InListUsesIndex) {
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept IN (1, 3)");
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), lookups);
}

TEST_F(PlansTest, ParameterizedLookupUsesIndex) {
  auto prepared = db_.Prepare("SELECT name FROM emp WHERE id = ?");
  ASSERT_TRUE(prepared.ok());
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  Params params;
  params.Add(Value::Integer(5));
  auto rs = prepared->Execute(params);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 1u);
  EXPECT_EQ(rs->rows()[0][0], Value::String("eve"));
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), lookups);
}

TEST_F(PlansTest, DifferentialPointAndRangePredicates) {
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = 4");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = 99");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = NULL");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept IS NULL");
  ExpectDifferentialMatch(
      db_, "SELECT * FROM emp WHERE dept = 2 AND salary > 70");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept IN (2)");
  ExpectDifferentialMatch(db_,
                          "SELECT * FROM emp WHERE dept IN (NULL, 1)");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id > 3");
}

TEST_F(PlansTest, DifferentialCrossTypeProbes) {
  // The coercing comparison treats '2' = 2; indexed lookups must too.
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = '3'");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = 3.0");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = '3.0'");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = '2'");
  // Unparseable strings against numeric columns raise the same
  // TypeError either way (the planner refuses the index probe).
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = 'oops'");
}

// --- hash joins -------------------------------------------------------------

TEST_F(PlansTest, EquiJoinUsesHashJoin) {
  uint64_t hash = CounterValue("sql.plan.hash_join");
  ExpectDifferentialMatch(
      db_,
      "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept = d.id");
  EXPECT_GT(CounterValue("sql.plan.hash_join"), hash);
}

TEST_F(PlansTest, LeftJoinKeepsUnmatchedAndNullKeys) {
  // dept NULL rows (dan, fay) must pad; dept 'empty' must not appear.
  ExpectDifferentialMatch(
      db_,
      "SELECT e.name, d.title FROM emp e LEFT JOIN dept d "
      "ON e.dept = d.id ORDER BY e.id");
  auto rs = db_.Execute(
      "SELECT COUNT(*) FROM emp e LEFT JOIN dept d ON e.dept = d.id "
      "WHERE d.title IS NULL");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows()[0][0], Value::Integer(2));
}

TEST_F(PlansTest, JoinWithResidualConjunct) {
  ExpectDifferentialMatch(
      db_,
      "SELECT e.name FROM emp e JOIN dept d "
      "ON e.dept = d.id AND e.salary > 70 ORDER BY e.id");
}

// Runs `sql` through ExpectDifferentialMatch and expects the optimized
// run to take the hash join. No ORDER BY: the hash join must emit the
// reference nested loop's pair order by itself.
void ExpectHashJoinMatchesNestedLoop(Database& db, const std::string& sql) {
  uint64_t hash = CounterValue("sql.plan.hash_join");
  ExpectDifferentialMatch(db, sql);
  EXPECT_GT(CounterValue("sql.plan.hash_join"), hash) << sql;
  auto expected = ReferenceSelect(&db, sql);
  auto got = db.Execute(sql);
  ASSERT_TRUE(expected.ok() && got.ok()) << sql;
  EXPECT_EQ(got->ToAsciiTable(100000), expected->ToAsciiTable(100000)) << sql;
}

class JoinOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Duplicate keys on both sides, so the candidates of one left row
    // come from several right rows and their order is visible. `few`
    // has 3 rows and `many` 8: either may be the build side.
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE few (id INTEGER PRIMARY KEY, k INTEGER, j INTEGER);
      CREATE TABLE many (id INTEGER PRIMARY KEY, k INTEGER, j INTEGER);
      INSERT INTO few VALUES (1, 2, 1), (2, 1, NULL), (3, 2, 2);
      INSERT INTO many VALUES (1, 1, 1), (2, 2, 2), (3, 1, NULL),
                              (4, 2, 1), (5, NULL, 1), (6, 2, 2),
                              (7, 3, 3), (8, 1, 1);
      CREATE TABLE ki (id INTEGER PRIMARY KEY, k INTEGER);
      CREATE TABLE kd (id INTEGER PRIMARY KEY, k DOUBLE);
      CREATE TABLE ks (id INTEGER PRIMARY KEY, k VARCHAR(10));
      INSERT INTO ki VALUES (1, 1), (2, 0), (3, 2), (4, 1);
      INSERT INTO kd VALUES (1, 1.0), (2, -0.0), (3, 2.5), (4, 1.0);
      INSERT INTO ks VALUES (1, '1'), (2, '1.0'), (3, '-0'), (4, '2.50'),
                            (5, ' 2'), (6, '0');
    )sql")
                    .ok());
  }

  Database db_{"join_order"};
};

TEST_F(JoinOrderTest, InnerJoinBuildLeftAndBuildRight) {
  ExpectHashJoinMatchesNestedLoop(
      db_, "SELECT f.id, m.id FROM few f JOIN many m ON f.k = m.k");
  ExpectHashJoinMatchesNestedLoop(
      db_, "SELECT m.id, f.id FROM many m JOIN few f ON m.k = f.k");
}

TEST_F(JoinOrderTest, LeftOuterJoinBuildLeftAndBuildRight) {
  ExpectHashJoinMatchesNestedLoop(
      db_, "SELECT f.id, m.id FROM few f LEFT JOIN many m ON f.j = m.j");
  ExpectHashJoinMatchesNestedLoop(
      db_, "SELECT m.id, f.id FROM many m LEFT JOIN few f ON m.k = f.k");
}

TEST_F(JoinOrderTest, TwoColumnKeysWithNullParts) {
  for (const char* join : {"JOIN", "LEFT JOIN"}) {
    ExpectHashJoinMatchesNestedLoop(
        db_, std::string("SELECT f.id, m.id FROM few f ") + join +
                 " many m ON f.k = m.k AND f.j = m.j");
    ExpectHashJoinMatchesNestedLoop(
        db_, std::string("SELECT m.id, f.id FROM many m ") + join +
                 " few f ON m.j = f.j AND m.k = f.k");
  }
}

TEST_F(JoinOrderTest, IntegerDoubleAndNumericStringKeys) {
  const char* tables[] = {"ki", "kd", "ks"};
  for (const char* a : tables) {
    for (const char* b : tables) {
      for (const char* join : {"JOIN", "LEFT JOIN"}) {
        ExpectHashJoinMatchesNestedLoop(
            db_, std::string("SELECT a.id, b.id FROM ") + a + " a " + join +
                     " " + b + " b ON a.k = b.k");
      }
    }
  }
}

TEST_F(JoinOrderTest, KeysEqualAsDoublesOnlyMatchThemselves) {
  // 2^53 and 2^53+1 are one double, so their join hashes collide; only
  // the ON re-check, which compares INTEGERs exactly, tells them apart.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER);
    INSERT INTO big VALUES (1, 9007199254740992), (2, 9007199254740993);
  )sql")
                  .ok());
  ExpectHashJoinMatchesNestedLoop(
      db_, "SELECT a.id, b.id FROM big a JOIN big b ON a.k = b.k");
  auto rs = db_.Execute("SELECT a.id, b.id FROM big a JOIN big b "
                        "ON a.k = b.k");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 2u);
  EXPECT_EQ(rs->rows()[0][1], Value::Integer(1));
  EXPECT_EQ(rs->rows()[1][1], Value::Integer(2));
}

TEST_F(PlansTest, NonEquiJoinFallsBackToNestedLoop) {
  uint64_t hash = CounterValue("sql.plan.hash_join");
  ExpectDifferentialMatch(
      db_,
      "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept < d.id "
      "ORDER BY e.id, d.id");
  EXPECT_EQ(CounterValue("sql.plan.hash_join"), hash);
}

// --- transactions -----------------------------------------------------------

TEST_F(PlansTest, RollbackOfDmlRestoresIndexedLookups) {
  std::string before = db_.Execute("SELECT * FROM emp ORDER BY id")
                           ->ToAsciiTable(1000);
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (7, 1, 'gil', 5)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE emp SET dept = 3 WHERE dept = 1").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE id = 1").ok());
  ASSERT_TRUE(db_.Execute("TRUNCATE TABLE emp").ok());
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_EQ(db_.Execute("SELECT * FROM emp ORDER BY id")
                ->ToAsciiTable(1000),
            before);
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = 1");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = 3");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id = 1");
}

TEST_F(PlansTest, RollbackUndoesCreateIndexStructures) {
  Table* emp = db_.catalog().FindTable("emp");
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_emp_name ON emp (name)").ok());
  EXPECT_NE(emp->FindSecondaryIndex("idx_emp_name"), nullptr);
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_EQ(emp->FindSecondaryIndex("idx_emp_name"), nullptr);
  EXPECT_EQ(db_.catalog().FindIndex("idx_emp_name"), nullptr);
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE name = 'ada'");
}

TEST_F(PlansTest, RollbackOfDropTableRestoresIndexes) {
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_TRUE(db_.Execute("DROP TABLE emp").ok());
  ASSERT_TRUE(db_.Rollback().ok());
  Table* emp = db_.catalog().FindTable("emp");
  ASSERT_NE(emp, nullptr);
  EXPECT_NE(emp->FindSecondaryIndex("idx_emp_dept"), nullptr);
  ASSERT_NE(db_.catalog().FindIndex("idx_emp_dept"), nullptr);
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = 2");
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), lookups);
}

// --- plan cache -------------------------------------------------------------

TEST_F(PlansTest, RepeatedStatementHitsPlanCache) {
  uint64_t hits = db_.plan_cache_stats().hits;
  ASSERT_TRUE(db_.Execute("SELECT * FROM emp WHERE id = 1").ok());
  ASSERT_TRUE(db_.Execute("SELECT * FROM emp WHERE id = 1").ok());
  ASSERT_TRUE(db_.Execute("SELECT * FROM emp WHERE id = 1").ok());
  EXPECT_EQ(db_.plan_cache_stats().hits, hits + 2);
}

TEST_F(PlansTest, DropTableInvalidatesCachedPlans) {
  const std::string q = "SELECT * FROM emp WHERE id = 2";
  ASSERT_TRUE(db_.Execute(q).ok());
  uint64_t invalidations = db_.plan_cache_stats().invalidations;
  ASSERT_TRUE(db_.Execute("DROP TABLE emp").ok());
  EXPECT_GT(db_.plan_cache_stats().invalidations, invalidations);
  // Re-create with a different shape: the cached statement must not be
  // replayed against the old schema.
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE emp (id INTEGER PRIMARY KEY)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (2)").ok());
  auto rs = db_.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 1u);
  EXPECT_EQ(rs->column_count(), 1u);
}

TEST_F(PlansTest, TruncateInvalidatesCachedPlans) {
  ASSERT_TRUE(db_.Execute("SELECT * FROM emp WHERE dept = 1").ok());
  uint64_t invalidations = db_.plan_cache_stats().invalidations;
  ASSERT_TRUE(db_.Execute("TRUNCATE TABLE emp").ok());
  EXPECT_GT(db_.plan_cache_stats().invalidations, invalidations);
  auto rs = db_.Execute("SELECT * FROM emp WHERE dept = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 0u);
}

TEST_F(PlansTest, LruEvictsLeastRecentlyUsed) {
  db_.set_plan_cache_capacity(2);
  ASSERT_TRUE(db_.Execute("SELECT 1").ok());
  ASSERT_TRUE(db_.Execute("SELECT 2").ok());
  ASSERT_TRUE(db_.Execute("SELECT 1").ok());  // refresh "SELECT 1"
  ASSERT_TRUE(db_.Execute("SELECT 3").ok());  // evicts "SELECT 2"
  EXPECT_EQ(db_.plan_cache_size(), 2u);
  EXPECT_GE(db_.plan_cache_stats().evictions, 1u);
  uint64_t hits = db_.plan_cache_stats().hits;
  ASSERT_TRUE(db_.Execute("SELECT 1").ok());
  EXPECT_EQ(db_.plan_cache_stats().hits, hits + 1);
}

TEST_F(PlansTest, ZeroCapacityDisablesCache) {
  db_.set_plan_cache_capacity(0);
  uint64_t misses = db_.plan_cache_stats().misses;
  ASSERT_TRUE(db_.Execute("SELECT * FROM emp WHERE id = 1").ok());
  ASSERT_TRUE(db_.Execute("SELECT * FROM emp WHERE id = 1").ok());
  EXPECT_EQ(db_.plan_cache_size(), 0u);
  EXPECT_EQ(db_.plan_cache_stats().misses, misses);
}

TEST_F(PlansTest, PreparedStatementReplansAfterDdl) {
  auto prepared = db_.Prepare("SELECT id FROM emp WHERE name = :n");
  ASSERT_TRUE(prepared.ok());
  Params params;
  params.Set("n", Value::String("bob"));
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  uint64_t scans = CounterValue("sql.plan.scan");
  ASSERT_TRUE(prepared->Execute(params).ok());
  EXPECT_GT(CounterValue("sql.plan.scan"), scans);
  EXPECT_EQ(CounterValue("sql.plan.index_lookup"), lookups);
  // New index → schema epoch moves → the prepared statement replans.
  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_emp_name ON emp (name)").ok());
  auto rs = prepared->Execute(params);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 1u);
  EXPECT_EQ(rs->rows()[0][0], Value::Integer(2));
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), lookups);
}

TEST_F(PlansTest, OptimizerOffForcesScans) {
  db_.set_optimizer_enabled(false);
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  uint64_t hash = CounterValue("sql.plan.hash_join");
  ASSERT_TRUE(db_.Execute("SELECT * FROM emp WHERE id = 1").ok());
  ASSERT_TRUE(
      db_.Execute("SELECT * FROM emp e JOIN dept d ON e.dept = d.id")
          .ok());
  EXPECT_EQ(CounterValue("sql.plan.index_lookup"), lookups);
  EXPECT_EQ(CounterValue("sql.plan.hash_join"), hash);
}

// --- indexed DML ------------------------------------------------------------

TEST_F(PlansTest, IndexedUpdateAndDeleteMatchScanSemantics) {
  uint64_t rows_before = db_.stats().rows_read;
  auto upd = db_.Execute("UPDATE emp SET salary = 0 WHERE id = 2");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->affected_rows(), 1);
  EXPECT_EQ(db_.stats().rows_read - rows_before, 1u);
  auto del = db_.Execute("DELETE FROM emp WHERE dept = 2");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->affected_rows(), 2);
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE dept = 2");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp ORDER BY id");
}

// --- randomized differential sweep -----------------------------------------

TEST_F(PlansTest, RandomizedDifferentialSweep) {
  // Deterministic mixed workload: grow the table, mutate it, and check
  // a battery of indexed shapes after every step.
  const std::vector<std::string> probes = {
      "SELECT * FROM emp WHERE dept = 1",
      "SELECT * FROM emp WHERE dept = 2 OR dept = 3",
      "SELECT * FROM emp WHERE id IN (1, 3, 5, 7, 9, 11)",
      "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept = d.id",
      "SELECT e.name, d.title FROM emp e LEFT JOIN dept d "
      "ON e.dept = d.id ORDER BY e.id",
      "SELECT COUNT(*), dept FROM emp GROUP BY dept ORDER BY dept",
  };
  for (int i = 7; i < 40; ++i) {
    int dept = i % 5;  // includes dept 0 and 4 with no dept row
    std::string insert = "INSERT INTO emp VALUES (" + std::to_string(i) +
                         ", " + (dept == 0 ? "NULL" : std::to_string(dept)) +
                         ", 'w" + std::to_string(i) + "', " +
                         std::to_string(10 * i) + ")";
    ASSERT_TRUE(db_.Execute(insert).ok()) << insert;
    if (i % 3 == 0) {
      ASSERT_TRUE(db_.Execute("DELETE FROM emp WHERE id = " +
                              std::to_string(i - 4))
                      .ok());
    }
    if (i % 4 == 0) {
      ASSERT_TRUE(db_.Execute("UPDATE emp SET dept = 2 WHERE id = " +
                              std::to_string(i - 2))
                      .ok());
    }
    for (const std::string& q : probes) ExpectDifferentialMatch(db_, q);
  }
}

}  // namespace
}  // namespace sqlflow::sql
