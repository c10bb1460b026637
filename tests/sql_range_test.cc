// Coverage for range-sargable ordered indexes: boundary semantics
// (BETWEEN inclusivity, NULL/3VL, cross-type probes, LIKE wildcards),
// ORDER BY satisfaction through index order, the row-count cost model,
// plan-cache revalidation across CREATE/DROP INDEX, unique keys decided
// by SQL equality, and a property battery asserting every index's
// ordered map stays exactly consistent with a full scan under random DML
// and rollbacks.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sql/database.h"
#include "sql/planner.h"
#include "sql/table.h"

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

class RangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE emp (id INTEGER PRIMARY KEY, dept INTEGER,
                        name VARCHAR(20), salary DOUBLE);
      CREATE INDEX idx_emp_salary ON emp (salary);
      CREATE INDEX idx_emp_name ON emp (name);
      INSERT INTO emp VALUES (1, 1, 'ada', 100.5), (2, 1, 'bob', 90.0),
                             (3, 2, 'cyd', 80.25), (4, NULL, 'dan', 70.0),
                             (5, 2, 'eve', 60.5), (6, NULL, 'fay', NULL),
                             (7, 3, 'ann', 90.0), (8, 3, NULL, 75.0);
    )sql")
                    .ok());
  }

  Database db_{"range"};
};

// --- boundary semantics -----------------------------------------------------

TEST_F(RangeTest, ComparisonBoundsMatchScanAtEveryInclusivity) {
  for (const char* where :
       {"salary < 80.25", "salary <= 80.25", "salary > 80.25",
        "salary >= 80.25", "salary < 60.5", "salary > 100.5",
        "salary >= 200", "salary <= 0", "80.25 > salary",
        "80.25 >= salary", "90.0 = salary", "salary > 60.5 AND salary < 90",
        "salary >= 60.5 AND salary <= 90"}) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM emp WHERE ") + where);
  }
}

TEST_F(RangeTest, RangeScanUsesIndexAndReadsFewerRows) {
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  uint64_t rows_before = db_.stats().rows_read;
  auto rs = db_.Execute("SELECT id FROM emp WHERE salary > 90.0");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 1u);  // only ada (NaN-free data)
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  // Half-open interval (90.0, +inf) holds exactly one slot.
  EXPECT_EQ(db_.stats().rows_read - rows_before, 1u);
}

TEST_F(RangeTest, BetweenIsInclusiveOnBothEnds) {
  auto rs = db_.Execute(
      "SELECT id FROM emp WHERE salary BETWEEN 60.5 AND 90.0 ORDER BY id");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 6u);  // 2,3,4,5,7,8 — both endpoints included
  EXPECT_EQ(rs->rows()[0][0], Value::Integer(2));
  EXPECT_EQ(rs->rows()[5][0], Value::Integer(8));
  for (const char* where :
       {"salary BETWEEN 60.5 AND 90.0", "salary BETWEEN 60.6 AND 89.9",
        "salary NOT BETWEEN 60.5 AND 90.0", "id BETWEEN 3 AND 3",
        "salary BETWEEN 90.0 AND 90.0"}) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM emp WHERE ") + where);
  }
}

TEST_F(RangeTest, ReversedBetweenIsEmptyNotUndefined) {
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  auto rs = db_.Execute("SELECT id FROM emp WHERE salary BETWEEN 90 AND 60");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 0u);
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  ExpectDifferentialMatch(db_,
                          "SELECT * FROM emp WHERE salary BETWEEN 90 AND 60");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE id BETWEEN 5 AND 1");
}

TEST_F(RangeTest, NullsNeverSatisfyRangePredicates) {
  // fay's NULL salary must not appear in any bounded interval, and NULL
  // bounds make the whole predicate UNKNOWN.
  for (const char* where :
       {"salary < 1000", "salary >= 0", "salary BETWEEN 0 AND 1000",
        "salary < NULL", "salary > NULL", "salary BETWEEN NULL AND 90",
        "salary BETWEEN 60 AND NULL", "NULL < salary"}) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM emp WHERE ") + where);
  }
  auto rs = db_.Execute("SELECT id FROM emp WHERE salary < NULL");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 0u);
}

TEST_F(RangeTest, CrossTypeProbesMatchScanSemantics) {
  for (const char* where : {
           // Numeric strings coerce against numeric columns under </>.
           "salary > '70'", "salary <= '80.25'", "id < '4'",
           // BETWEEN compares raw: an INTEGER is below every string, so
           // these are empty — but must agree with the scan.
           "id BETWEEN '0' AND '9'", "salary BETWEEN '0' AND 1000",
           // Raw strings against a string column.
           "name > 'c'", "name BETWEEN 'ada' AND 'dan'",
           "name >= 'eve'",
           // 1 vs '1' vs 1.0 on both column flavors.
           "id > 1", "id > 1.0", "id >= '1'",
       }) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM emp WHERE ") + where);
  }
}

TEST_F(RangeTest, PointProbesReachEveryKeyTheyEqual) {
  // Past 2^53 distinct INTEGER keys can equal one DOUBLE probe (the
  // comparison goes through double); the probe must return all of them.
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (9007199254740992, 4, "
                          "'big', 1.0), (9007199254740993, 4, 'bog', 2.0)")
                  .ok());
  for (const char* where : {
           "id = 9007199254740992.0", "id = '9007199254740993'",
           "id IN (9007199254740992.0, 3)", "id = 9007199254740993",
           "id = '2'", "id IN ('2', 2.0, 7)", "name = '2'",
           "salary = 90", "salary = '90.0'", "salary = 'nan'",
       }) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM emp WHERE ") + where);
  }
  auto both = db_.Execute("SELECT name FROM emp WHERE id = 9007199254740992.0");
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->row_count(), 2u);
}

TEST_F(RangeTest, NanProbesAndStoredNansMatchScanSemantics) {
  // 'nan' coerces to a NaN double; the asymmetric comparison semantics
  // (NaN compares greater both ways) cannot be reproduced by map bounds,
  // so the planner must fall back to a scan — results must still agree.
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE salary > 'nan'");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE salary < 'nan'");
  // A stored NaN sits at the top of the numeric order in the ordered
  // index, matching the scan-visible behavior of Value::Compare.
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (9, 4, 'nat', 'nan')").ok());
  ExpectDifferentialMatch(db_, "SELECT id FROM emp WHERE salary > 90");
  ExpectDifferentialMatch(db_, "SELECT id FROM emp WHERE salary < 90");
  ExpectDifferentialMatch(db_, "SELECT id FROM emp WHERE salary >= 0");
  ExpectDifferentialMatch(db_,
                          "SELECT id FROM emp WHERE salary BETWEEN 0 AND 99");
}

TEST_F(RangeTest, LikePrefixScansMatchScanSemantics) {
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (10, 4, 'a%c', 1.0),"
                          " (11, 4, 'a_d', 2.0), (12, 4, 'abx', 3.0)")
                  .ok());
  for (const char* where : {
           "name LIKE 'a%'", "name LIKE 'ad%'", "name LIKE 'ada'",
           "name LIKE 'a_a'", "name LIKE '%da'", "name LIKE '_da'",
           "name LIKE 'a%c'", "name LIKE 'a\x25_'", "name LIKE ''",
           "name LIKE 'ab%x'", "name LIKE 'zz%'",
       }) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM emp WHERE ") + where);
  }
  // Prefix patterns actually use the index.
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  auto rs = db_.Execute("SELECT id FROM emp WHERE name LIKE 'ad%'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 1u);
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
}

// --- multi-column prefixes ---------------------------------------------------

class PrefixRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE ev (id INTEGER PRIMARY KEY, grp INTEGER,
                       seq INTEGER, tag VARCHAR(20));
      CREATE INDEX idx_grp_seq ON ev (grp, seq);
      CREATE INDEX idx_grp_tag ON ev (grp, tag);
    )sql")
                    .ok());
    // 4 groups × 25 sequence steps; every 10th row gets a NULL seq so
    // prefix probes must still cover NULL trailing keys.
    for (int i = 0; i < 100; ++i) {
      std::string seq =
          i % 10 == 9 ? "NULL" : std::to_string(i / 4);
      std::string sql = "INSERT INTO ev VALUES (" + std::to_string(i) +
                        ", " + std::to_string(i % 4) + ", " + seq +
                        ", 'tag" + std::to_string(i % 7) + "')";
      ASSERT_TRUE(db_.Execute(sql).ok()) << sql;
    }
  }

  Database db_{"prefix_range"};
};

TEST_F(PrefixRangeTest, EqualityPrefixBoundsTrailingColumn) {
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  uint64_t rows_before = db_.stats().rows_read;
  auto rs = db_.Execute(
      "SELECT id FROM ev WHERE grp = 2 AND seq >= 5 AND seq < 10");
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  // Candidates come from the (grp = 2) run bounded on seq, far fewer
  // than the 25-row group or the 100-row table.
  EXPECT_LE(db_.stats().rows_read - rows_before, 25u);
  EXPECT_GE(rs->row_count(), 1u);
  for (const char* where : {
           "grp = 2 AND seq >= 5 AND seq < 10",
           "grp = 2 AND seq > 5", "grp = 2 AND seq <= 0",
           "grp = 2 AND seq BETWEEN 3 AND 7",
           "grp = 2 AND seq BETWEEN 7 AND 3",
           "grp = 0 AND seq >= 24", "grp = 9 AND seq > 0",
           "3 = grp AND 5 <= seq",
           // NULL pieces: NULL probe empties, NULL stored seq excluded.
           "grp = NULL AND seq > 2", "grp = 1 AND seq > NULL",
           // Coerced probes position correctly in the ordered map.
           "grp = '2' AND seq > '5'", "grp = 2.0 AND seq >= 5.0",
           // Residual conjuncts still apply after the index narrows.
           "grp = 2 AND seq > 5 AND tag = 'tag3'",
       }) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM ev WHERE ") + where);
  }
}

TEST_F(PrefixRangeTest, PurePrefixProbeScansOneGroupRun) {
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  uint64_t rows_before = db_.stats().rows_read;
  auto rs = db_.Execute("SELECT id FROM ev WHERE grp = 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 25u);  // NULL seq rows included
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  EXPECT_EQ(db_.stats().rows_read - rows_before, 25u)
      << "pure prefix probe should touch only the grp = 1 run";
  ExpectDifferentialMatch(db_, "SELECT * FROM ev WHERE grp = 1");
  ExpectDifferentialMatch(db_, "SELECT * FROM ev WHERE grp = 7");
  ExpectDifferentialMatch(db_, "SELECT * FROM ev WHERE grp = '1'");
}

TEST_F(PrefixRangeTest, PrefixPlusLikeUsesStringSecondColumn) {
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  auto rs = db_.Execute(
      "SELECT id FROM ev WHERE grp = 3 AND tag LIKE 'tag1%'");
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  for (const char* where : {
           "grp = 3 AND tag LIKE 'tag1%'", "grp = 3 AND tag LIKE 'tag%'",
           "grp = 3 AND tag LIKE '%1'", "grp = 0 AND tag LIKE 'zz%'",
           "grp = 0 AND tag BETWEEN 'tag1' AND 'tag4'",
       }) {
    ExpectDifferentialMatch(db_,
                            std::string("SELECT * FROM ev WHERE ") + where);
  }
}

TEST_F(PrefixRangeTest, CostModelPrefersLongerPrefix) {
  // grp alone quarters the table; (grp, seq) with a bound quarters the
  // run again — the prefix plan must win and touch only its interval.
  uint64_t rows_before = db_.stats().rows_read;
  auto rs = db_.Execute("SELECT id FROM ev WHERE grp = 2 AND seq < 3");
  ASSERT_TRUE(rs.ok());
  EXPECT_LE(db_.stats().rows_read - rows_before, 15u)
      << "prefix-bounded scan should not fall back to a whole-group or "
         "whole-table read";
  ExpectDifferentialMatch(db_, "SELECT * FROM ev WHERE grp = 2 AND seq < 3");
}

TEST_F(PrefixRangeTest, PreparedPrefixPlanSurvivesIndexChurn) {
  auto prep = db_.Prepare("SELECT id FROM ev WHERE grp = 2 AND seq > 20");
  ASSERT_TRUE(prep.ok());
  auto first = prep->Execute(Params::None());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(db_.Execute("DROP INDEX idx_grp_seq").ok());
  auto second = prep->Execute(Params::None());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->ToAsciiTable(100000), second->ToAsciiTable(100000));
  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_grp_seq ON ev (grp, seq)").ok());
  auto third = prep->Execute(Params::None());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(first->ToAsciiTable(100000), third->ToAsciiTable(100000));
}

// --- ORDER BY through index order -------------------------------------------

TEST_F(RangeTest, OrderBySatisfiedByIndexSkipsNothingAndStaysCorrect) {
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  auto rs = db_.Execute("SELECT id, salary FROM emp ORDER BY salary");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 8u);
  // NULL sorts first (lowest type rank), then ascending doubles.
  EXPECT_EQ(rs->rows()[0][0], Value::Integer(6));
  EXPECT_EQ(rs->rows()[1][1], Value::Double(60.5));
  EXPECT_EQ(rs->rows()[7][1], Value::Double(100.5));
  // The ordered traversal is surfaced as a range-scan plan choice.
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  for (const char* sql : {
           "SELECT * FROM emp ORDER BY salary",
           "SELECT salary FROM emp ORDER BY salary",
           "SELECT salary AS s FROM emp ORDER BY s",
           "SELECT id, salary FROM emp ORDER BY 2",
           "SELECT * FROM emp WHERE salary > 60 ORDER BY salary",
           "SELECT * FROM emp WHERE salary > 60 ORDER BY salary LIMIT 3",
           "SELECT * FROM emp ORDER BY salary DESC",  // not elided: sorts
           "SELECT * FROM emp ORDER BY name",
           "SELECT DISTINCT salary FROM emp ORDER BY salary",
       }) {
    ExpectDifferentialMatch(db_, sql);
  }
  // Ties must keep table order exactly like the stable sort: bob (2) and
  // ann (7) share salary 90.0.
  auto ties = db_.Execute("SELECT id FROM emp WHERE salary = 90 "
                          "ORDER BY salary");
  ASSERT_TRUE(ties.ok());
  ASSERT_EQ(ties->row_count(), 2u);
  EXPECT_EQ(ties->rows()[0][0], Value::Integer(2));
  EXPECT_EQ(ties->rows()[1][0], Value::Integer(7));
}

TEST_F(RangeTest, DescendingOrderBySatisfiedByReverseTraversal) {
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  auto rs = db_.Execute("SELECT id, salary FROM emp ORDER BY salary DESC");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 8u);
  // Descending doubles first, NULL (lowest type rank) last.
  EXPECT_EQ(rs->rows()[0][1], Value::Double(100.5));
  EXPECT_EQ(rs->rows()[7][0], Value::Integer(6));
  // The reversed traversal is surfaced as a range-scan plan choice.
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  // Ties keep table order, exactly like the descending stable sort: bob
  // (2) before ann (7) at salary 90.0.
  auto ties =
      db_.Execute("SELECT id FROM emp ORDER BY salary DESC LIMIT 3");
  ASSERT_TRUE(ties.ok());
  ASSERT_EQ(ties->row_count(), 3u);
  EXPECT_EQ(ties->rows()[0][0], Value::Integer(1));
  EXPECT_EQ(ties->rows()[1][0], Value::Integer(2));
  EXPECT_EQ(ties->rows()[2][0], Value::Integer(7));
  for (const char* sql : {
           "SELECT * FROM emp ORDER BY salary DESC",
           "SELECT salary AS s FROM emp ORDER BY s DESC",
           "SELECT id, salary FROM emp ORDER BY 2 DESC",
           "SELECT * FROM emp WHERE salary > 60 ORDER BY salary DESC",
           "SELECT * FROM emp WHERE salary BETWEEN 60 AND 95 "
           "ORDER BY salary DESC LIMIT 3",
           "SELECT * FROM emp ORDER BY name DESC",
           // Mixed directions must sort, never half-reverse.
           "SELECT * FROM emp ORDER BY salary DESC, id",
           "SELECT * FROM emp ORDER BY salary, id DESC",
       }) {
    ExpectDifferentialMatch(db_, sql);
  }
}

TEST_F(RangeTest, MultiKeyDescendingOrderUsesCompositeIndexReversed) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_ds ON emp (dept, salary)").ok());
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  auto rs =
      db_.Execute("SELECT id FROM emp ORDER BY dept DESC, salary DESC");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 8u);
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  ExpectDifferentialMatch(db_,
                          "SELECT * FROM emp ORDER BY dept DESC, "
                          "salary DESC");
  ExpectDifferentialMatch(db_,
                          "SELECT * FROM emp ORDER BY dept, salary");
  // Uniformity is per-statement: ASC+DESC over the same index sorts.
  ExpectDifferentialMatch(db_,
                          "SELECT * FROM emp ORDER BY dept, salary DESC");
}

TEST_F(RangeTest, DescendingBoundedRangeStaysReversedAndBounded) {
  uint64_t rows_before = db_.stats().rows_read;
  auto rs = db_.Execute(
      "SELECT id, salary FROM emp WHERE salary >= 75 ORDER BY salary DESC");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 5u);  // 100.5, 90, 90, 80.25, 75
  EXPECT_EQ(rs->rows()[0][1], Value::Double(100.5));
  EXPECT_EQ(rs->rows()[4][1], Value::Double(75.0));
  // Bounded interval: candidates only, not the whole table.
  EXPECT_EQ(db_.stats().rows_read - rows_before, 5u);
}

// --- cost model -------------------------------------------------------------

TEST_F(RangeTest, CostModelPrefersSelectiveIndexOverFirstMatch) {
  Database db("cost");
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (k INTEGER, grp INTEGER, tag VARCHAR(10));
    CREATE INDEX idx_grp ON t (grp);
    CREATE INDEX idx_k ON t (k);
  )sql")
                  .ok());
  // 200 rows: grp has 2 distinct values (100 rows per key), k is
  // distinct per row.
  for (int i = 0; i < 200; ++i) {
    auto rs = db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                         std::to_string(i % 2) + ", 'x')");
    ASSERT_TRUE(rs.ok());
  }
  uint64_t rows_before = db.stats().rows_read;
  auto rs = db.Execute("SELECT tag FROM t WHERE grp = 1 AND k = 93");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->row_count(), 1u);
  // The cost model must pick idx_k (1 candidate), not idx_grp (100).
  EXPECT_EQ(db.stats().rows_read - rows_before, 1u);
  // And a selective range must beat a fat equality bucket.
  rows_before = db.stats().rows_read;
  auto range = db.Execute("SELECT tag FROM t WHERE grp = 1 AND k < 4");
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range->row_count(), 2u);  // k in {1, 3}
  EXPECT_LE(db.stats().rows_read - rows_before, 60u)
      << "range scan on k should bound candidates well below idx_grp's "
         "100-row bucket";
}

// --- pushdown below joins ---------------------------------------------------

TEST_F(RangeTest, PushdownShrinksJoinInputAndPreservesSemantics) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE dept (id INTEGER PRIMARY KEY, title VARCHAR(20));
    INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'qa');
  )sql")
                  .ok());
  uint64_t pushdowns = CounterValue("sql.plan.pushdown");
  uint64_t rows_before = db_.stats().rows_read;
  auto rs = db_.Execute(
      "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept = d.id "
      "WHERE e.salary > 85 AND e.salary < 95");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->row_count(), 2u);  // bob(90)->eng, ann(90)->qa
  EXPECT_GT(CounterValue("sql.plan.pushdown"), pushdowns);
  // emp contributes only the 2 rows in (85, 95) instead of all 8.
  EXPECT_EQ(db_.stats().rows_read - rows_before, 2u + 3u);
  for (const char* sql : {
           "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept = d.id "
           "WHERE e.salary > 85 AND e.salary < 95",
           "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept = d.id "
           "WHERE e.salary BETWEEN 60 AND 90 AND d.title = 'ops'",
           "SELECT e.name, d.title FROM emp e LEFT JOIN dept d "
           "ON e.dept = d.id WHERE e.salary >= 60",
           // Right side of LEFT JOIN must NOT be pre-filtered: d.id IS
           // NULL keeps only the pad rows.
           "SELECT e.name FROM emp e LEFT JOIN dept d ON e.dept = d.id "
           "WHERE d.id IS NULL",
           "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id "
           "WHERE e.name LIKE 'a%' AND d.id IN (1, 3)",
           "SELECT e1.name, e2.name FROM emp e1 JOIN emp e2 "
           "ON e1.dept = e2.dept WHERE e1.salary > 80 AND e2.salary < 95",
       }) {
    ExpectDifferentialMatch(db_, sql);
  }
}

// --- plan revalidation across CREATE/DROP INDEX -----------------------------

TEST_F(RangeTest, PreparedStatementPicksUpIndexCreatedAfterFirstExecution) {
  Database db("prep");
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (k INTEGER, v VARCHAR(10));
    INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');
  )sql")
                  .ok());
  auto prep = db.Prepare("SELECT v FROM t WHERE k = 3");
  ASSERT_TRUE(prep.ok());

  uint64_t scans = CounterValue("sql.plan.scan");
  auto first = prep->Execute(Params::None());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->row_count(), 1u);
  EXPECT_GT(CounterValue("sql.plan.scan"), scans);  // no index yet

  ASSERT_TRUE(db.Execute("CREATE INDEX idx_k ON t (k)").ok());

  // CREATE INDEX bumps the schema epoch, so the memoized plan must be
  // recomputed and route through the new index.
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  auto second = prep->Execute(Params::None());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->row_count(), 1u);
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), lookups);

  // DROP INDEX must do the same in reverse: back to a scan, not a stale
  // plan naming a dead index.
  ASSERT_TRUE(db.Execute("DROP INDEX idx_k").ok());
  scans = CounterValue("sql.plan.scan");
  auto third = prep->Execute(Params::None());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->row_count(), 1u);
  EXPECT_GT(CounterValue("sql.plan.scan"), scans);
}

TEST_F(RangeTest, DropIndexStatementSemantics) {
  EXPECT_FALSE(db_.Execute("DROP INDEX no_such_index").ok());
  EXPECT_TRUE(db_.Execute("DROP INDEX IF EXISTS no_such_index").ok());
  ASSERT_TRUE(db_.Execute("DROP INDEX idx_emp_salary").ok());
  Table* emp = db_.catalog().FindTable("emp");
  ASSERT_NE(emp, nullptr);
  EXPECT_EQ(emp->FindSecondaryIndex("idx_emp_salary"), nullptr);
  EXPECT_EQ(db_.catalog().FindIndex("idx_emp_salary"), nullptr);
  // Queries keep working (scan path) and match the unoptimized run.
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE salary > 70");
}

TEST_F(RangeTest, RollbackRestoresDroppedIndex) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(db_.Execute("DROP INDEX idx_emp_salary").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO emp VALUES (20, 5, 'gil', 55.0)").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());

  Table* emp = db_.catalog().FindTable("emp");
  ASSERT_NE(emp, nullptr);
  const SecondaryIndex* idx = emp->FindSecondaryIndex("idx_emp_salary");
  ASSERT_NE(idx, nullptr);
  EXPECT_NE(db_.catalog().FindIndex("idx_emp_salary"), nullptr);
  // The restored index is structurally complete: every row enumerated.
  size_t total = 0;
  for (const auto& [key, slots] : idx->ordered) total += slots.size();
  EXPECT_EQ(total, emp->row_count());

  uint64_t ranges = CounterValue("sql.plan.range_scan");
  ExpectDifferentialMatch(db_, "SELECT * FROM emp WHERE salary > 70");
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
}

TEST_F(RangeTest, RollbackRemovesIndexCreatedInTransaction) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_tmp ON emp (dept)").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());
  Table* emp = db_.catalog().FindTable("emp");
  ASSERT_NE(emp, nullptr);
  EXPECT_EQ(emp->FindSecondaryIndex("idx_tmp"), nullptr);
  EXPECT_EQ(db_.catalog().FindIndex("idx_tmp"), nullptr);
}

// --- unique keys --------------------------------------------------------------

// Inserts one row of bound values into `table` and returns the outcome.
Status InsertValues(Database& db, const std::string& table,
                    std::vector<Value> values) {
  Params params;
  std::string sql = "INSERT INTO " + table + " VALUES (";
  for (size_t i = 0; i < values.size(); ++i) {
    sql += i == 0 ? "?" : ", ?";
    params.Add(std::move(values[i]));
  }
  return db.Execute(sql + ")", params).status();
}

TEST(UniqueKeyTest, DoubleKeysCollideOnlyWhenEqual) {
  Database db("uk");
  ASSERT_TRUE(db.Execute("CREATE TABLE d (k DOUBLE PRIMARY KEY)").ok());
  // Distinct beyond the sixth decimal: still distinct keys.
  ASSERT_TRUE(InsertValues(db, "d", {Value::Double(1e-7)}).ok());
  EXPECT_TRUE(InsertValues(db, "d", {Value::Double(2e-7)}).ok());
  ASSERT_TRUE(InsertValues(db, "d", {Value::Double(1.0000001)}).ok());
  EXPECT_TRUE(InsertValues(db, "d", {Value::Double(1.0000002)}).ok());
  EXPECT_EQ(InsertValues(db, "d", {Value::Double(2e-7)}).code(),
            StatusCode::kConstraintError);
  auto n = db.Execute("SELECT COUNT(*) FROM d");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows()[0][0].integer(), 4);
}

TEST(UniqueKeyTest, MultiColumnStringKeysDoNotAlias) {
  Database db("uk");
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE p (a VARCHAR(10), b VARCHAR(10));
    CREATE UNIQUE INDEX ux_ab ON p (a, b);
  )sql")
                  .ok());
  // Column text that contains a separator byte is still its own key.
  ASSERT_TRUE(InsertValues(db, "p", {Value::String("a"),
                                     Value::String("b\x1fSc")})
                  .ok());
  EXPECT_TRUE(InsertValues(db, "p", {Value::String("a\x1fSb"),
                                     Value::String("c")})
                  .ok());
  EXPECT_EQ(InsertValues(db, "p", {Value::String("a"),
                                   Value::String("b\x1fSc")})
                .code(),
            StatusCode::kConstraintError);
}

TEST(UniqueKeyTest, NegativeZeroDuplicatesZero) {
  Database db("uk");
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE z (id INTEGER PRIMARY KEY, d DOUBLE);
    CREATE UNIQUE INDEX ux_d ON z (d);
  )sql")
                  .ok());
  ASSERT_TRUE(
      InsertValues(db, "z", {Value::Integer(1), Value::Double(0.0)}).ok());
  // -0.0 = 0 under SQL equality, so it is the same key.
  EXPECT_EQ(
      InsertValues(db, "z", {Value::Integer(2), Value::Double(-0.0)}).code(),
      StatusCode::kConstraintError);
  ExpectDifferentialMatch(db, "SELECT * FROM z WHERE d = 0");
  auto hits = db.Execute("SELECT id FROM z WHERE d = 0");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->row_count(), 1u);
  // Re-keying another row onto -0.0 is refused the same way.
  ASSERT_TRUE(
      InsertValues(db, "z", {Value::Integer(3), Value::Double(1.0)}).ok());
  Params params;
  params.Add(Value::Double(-0.0));
  EXPECT_EQ(db.Execute("UPDATE z SET d = ? WHERE id = 3", params)
                .status()
                .code(),
            StatusCode::kConstraintError);
}

TEST(UniqueKeyTest, SecondNullOrNanIsStillADuplicate) {
  Database db("uk");
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE n (id INTEGER PRIMARY KEY, d DOUBLE);
    CREATE UNIQUE INDEX ux_d ON n (d);
  )sql")
                  .ok());
  ASSERT_TRUE(
      InsertValues(db, "n", {Value::Integer(1), Value::Null()}).ok());
  EXPECT_EQ(InsertValues(db, "n", {Value::Integer(2), Value::Null()}).code(),
            StatusCode::kConstraintError);
  ASSERT_TRUE(
      InsertValues(db, "n", {Value::Integer(3), Value::Double(NAN)}).ok());
  EXPECT_EQ(
      InsertValues(db, "n", {Value::Integer(4), Value::Double(NAN)}).code(),
      StatusCode::kConstraintError);
}

// --- index-consistency property battery -------------------------------------

// Checks every index's ordered map against the heap: keys ascend
// strictly, each slot's projection is order-equal to its key row,
// postings ascend and cover each row exactly once, and a unique index
// never holds two slots under one key.
void VerifyIndexesAgainstScan(const Table& table) {
  const std::vector<Row>& rows = table.rows();
  for (const SecondaryIndex& index : table.secondary_indexes()) {
    std::vector<int> seen_ordered(rows.size(), 0);
    const Row* prev_key = nullptr;
    for (const auto& [key, slots] : index.ordered) {
      ASSERT_FALSE(slots.empty()) << index.name << ": empty ordered entry";
      ASSERT_EQ(key.size(), index.column_indexes.size()) << index.name;
      if (index.unique) {
        EXPECT_EQ(slots.size(), 1u)
            << index.name << ": unique index holds " << slots.size()
            << " slots under one key";
      }
      if (prev_key != nullptr) {
        bool less = false;
        for (size_t i = 0; i < key.size(); ++i) {
          int cmp = OrderedValueCompare((*prev_key)[i], key[i]);
          if (cmp != 0) {
            less = cmp < 0;
            break;
          }
        }
        EXPECT_TRUE(less) << index.name << ": ordered keys not ascending";
      }
      prev_key = &key;
      for (size_t i = 0; i < slots.size(); ++i) {
        ASSERT_LT(slots[i], rows.size()) << index.name;
        if (i > 0) {
          EXPECT_LT(slots[i - 1], slots[i])
              << index.name << ": ordered slots not ascending";
        }
        for (size_t c = 0; c < index.column_indexes.size(); ++c) {
          EXPECT_EQ(OrderedValueCompare(
                        rows[slots[i]][index.column_indexes[c]], key[c]),
                    0)
              << index.name << ": slot " << slots[i]
              << " projection differs from its ordered key";
        }
        seen_ordered[slots[i]]++;
      }
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(seen_ordered[i], 1)
          << index.name << ": row " << i << " posted " << seen_ordered[i]
          << " times in the ordered map";
    }
  }
}

TEST(RangePropertyTest, IndexesEnumerateExactlyWhatAScanFinds) {
  std::mt19937 rng(20260805u);
  auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };

  Database db("prop");
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b DOUBLE,
                    s VARCHAR(10));
    CREATE INDEX idx_a ON t (a);
    CREATE INDEX idx_s ON t (s);
    CREATE INDEX idx_ab ON t (a, b);
  )sql")
                  .ok());

  int next_id = 0;
  const char* strings[] = {"aa", "ab", "b%", "c_d", "", "zz"};
  auto random_dml = [&]() {
    int roll = pick(100);
    if (roll < 45 || next_id == 0) {
      int id = next_id++;
      std::string s = std::string("INSERT INTO t VALUES (") +
                      std::to_string(id) + ", " + std::to_string(pick(5)) +
                      ", " + std::to_string(pick(4)) + ".5, '" +
                      strings[pick(6)] + "')";
      if (pick(10) == 0) {
        s = "INSERT INTO t VALUES (" + std::to_string(id) +
            ", NULL, NULL, NULL)";
      }
      ASSERT_TRUE(db.Execute(s).ok()) << s;
    } else if (roll < 70) {
      std::string s = "UPDATE t SET a = " + std::to_string(pick(5)) +
                      ", s = '" + strings[pick(6)] + "' WHERE id = " +
                      std::to_string(pick(next_id));
      ASSERT_TRUE(db.Execute(s).ok()) << s;
    } else if (roll < 95) {
      std::string s =
          "DELETE FROM t WHERE id = " + std::to_string(pick(next_id));
      ASSERT_TRUE(db.Execute(s).ok()) << s;
    } else {
      ASSERT_TRUE(db.Execute("TRUNCATE TABLE t").ok());
    }
  };

  for (int round = 0; round < 60; ++round) {
    // A burst of autocommit DML...
    int burst = 1 + pick(6);
    for (int i = 0; i < burst; ++i) random_dml();
    // ...then a transaction that randomly commits or rolls back, at
    // times dropping and re-creating an index inside it.
    ASSERT_TRUE(db.Execute("BEGIN").ok());
    if (pick(4) == 0) {
      ASSERT_TRUE(db.Execute("DROP INDEX idx_a").ok());
      ASSERT_TRUE(db.Execute("CREATE INDEX idx_a ON t (a)").ok());
    }
    burst = 1 + pick(6);
    for (int i = 0; i < burst; ++i) random_dml();
    if (pick(2) == 0) {
      ASSERT_TRUE(db.Execute("ROLLBACK").ok());
    } else {
      ASSERT_TRUE(db.Execute("COMMIT").ok());
    }

    const Table* t = db.catalog().FindTable("t");
    ASSERT_NE(t, nullptr);
    ASSERT_NO_FATAL_FAILURE(VerifyIndexesAgainstScan(*t))
        << "round " << round;
    // The structures must also agree with scan results end-to-end.
    ExpectDifferentialMatch(db, "SELECT * FROM t WHERE a = 2");
    ExpectDifferentialMatch(db, "SELECT * FROM t WHERE a BETWEEN 1 AND 3");
    ExpectDifferentialMatch(db, "SELECT * FROM t WHERE s LIKE 'a%'");
    ExpectDifferentialMatch(db, "SELECT * FROM t WHERE b < 2.0");
    ExpectDifferentialMatch(db, "SELECT * FROM t ORDER BY s");
  }
}

}  // namespace
}  // namespace sqlflow::sql
