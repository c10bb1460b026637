#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sql/database.h"
#include "sql/eval.h"
#include "sql/table.h"

namespace sqlflow::sql {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Orders (
        OrderID INTEGER PRIMARY KEY,
        ItemID INTEGER,
        Quantity INTEGER,
        Approved BOOLEAN
      );
      INSERT INTO Orders VALUES
        (1, 10, 5, TRUE), (2, 10, 3, TRUE), (3, 20, 7, FALSE),
        (4, 20, 2, TRUE), (5, 30, 1, TRUE), (6, 30, 4, FALSE);
      CREATE TABLE Items (ItemID INTEGER PRIMARY KEY, Name VARCHAR(20));
      INSERT INTO Items VALUES (10, 'bolt'), (20, 'nut');
    )sql")
                    .ok());
  }

  ResultSet Query(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " → "
                             << result.status().ToString();
    return std::move(result).value_or(ResultSet());
  }

  Database db_{"test"};
};

TEST_F(ExecutorTest, SelectAll) {
  ResultSet rs = Query("SELECT * FROM Orders");
  EXPECT_EQ(rs.row_count(), 6u);
  EXPECT_EQ(rs.column_count(), 4u);
  EXPECT_EQ(rs.column_names()[0], "OrderID");
}

TEST_F(ExecutorTest, WhereFilter) {
  EXPECT_EQ(Query("SELECT * FROM Orders WHERE Approved = TRUE").row_count(),
            4u);
  EXPECT_EQ(Query("SELECT * FROM Orders WHERE Quantity > 4").row_count(),
            2u);
  EXPECT_EQ(
      Query("SELECT * FROM Orders WHERE Quantity BETWEEN 2 AND 4")
          .row_count(),
      3u);
  EXPECT_EQ(Query("SELECT * FROM Orders WHERE ItemID IN (10, 30)")
                .row_count(),
            4u);
}

TEST_F(ExecutorTest, Projection) {
  ResultSet rs = Query("SELECT Quantity * 2 AS dbl FROM Orders WHERE "
                       "OrderID = 1");
  EXPECT_EQ(rs.column_names()[0], "dbl");
  EXPECT_EQ(*rs.Get(0, "dbl"), Value::Integer(10));
}

TEST_F(ExecutorTest, OrderByAscDesc) {
  ResultSet asc = Query("SELECT OrderID FROM Orders ORDER BY Quantity");
  EXPECT_EQ(asc.rows().front()[0], Value::Integer(5));
  ResultSet desc =
      Query("SELECT OrderID FROM Orders ORDER BY Quantity DESC");
  EXPECT_EQ(desc.rows().front()[0], Value::Integer(3));
}

TEST_F(ExecutorTest, OrderByAliasAndOrdinal) {
  ResultSet by_alias = Query(
      "SELECT OrderID, Quantity AS q FROM Orders ORDER BY q DESC");
  EXPECT_EQ(by_alias.rows().front()[0], Value::Integer(3));
  ResultSet by_ordinal =
      Query("SELECT OrderID, Quantity FROM Orders ORDER BY 2 DESC");
  EXPECT_EQ(by_ordinal.rows().front()[0], Value::Integer(3));
}

TEST_F(ExecutorTest, OrderByIsStableForEqualKeys) {
  ResultSet rs = Query("SELECT OrderID FROM Orders ORDER BY ItemID");
  // Items 10,10,20,20,30,30 → ties keep OrderID order.
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(1));
  EXPECT_EQ(rs.rows()[1][0], Value::Integer(2));
}

TEST_F(ExecutorTest, LimitOffset) {
  ResultSet rs =
      Query("SELECT OrderID FROM Orders ORDER BY OrderID LIMIT 2 OFFSET "
            "3");
  ASSERT_EQ(rs.row_count(), 2u);
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(4));
}

TEST_F(ExecutorTest, Distinct) {
  EXPECT_EQ(Query("SELECT DISTINCT ItemID FROM Orders").row_count(), 3u);
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  ResultSet rs = Query(
      "SELECT ItemID, SUM(Quantity) AS total, COUNT(*) AS n, "
      "MIN(Quantity) AS lo, MAX(Quantity) AS hi, AVG(Quantity) AS avg "
      "FROM Orders GROUP BY ItemID ORDER BY ItemID");
  ASSERT_EQ(rs.row_count(), 3u);
  EXPECT_EQ(*rs.Get(0, "total"), Value::Integer(8));
  EXPECT_EQ(*rs.Get(0, "n"), Value::Integer(2));
  EXPECT_EQ(*rs.Get(1, "lo"), Value::Integer(2));
  EXPECT_EQ(*rs.Get(1, "hi"), Value::Integer(7));
  EXPECT_EQ(*rs.Get(2, "avg"), Value::Double(2.5));
}

TEST_F(ExecutorTest, Having) {
  ResultSet rs = Query(
      "SELECT ItemID FROM Orders GROUP BY ItemID HAVING SUM(Quantity) > "
      "5 ORDER BY ItemID");
  ASSERT_EQ(rs.row_count(), 2u);
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(10));
}

TEST_F(ExecutorTest, OrderByAggregate) {
  ResultSet rs = Query(
      "SELECT ItemID FROM Orders GROUP BY ItemID "
      "ORDER BY SUM(Quantity) DESC");
  ASSERT_EQ(rs.row_count(), 3u);
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(20));  // total 9
  EXPECT_EQ(rs.rows()[1][0], Value::Integer(10));  // total 8
  EXPECT_EQ(rs.rows()[2][0], Value::Integer(30));  // total 5
}

TEST_F(ExecutorTest, OrderByScopeExpressionNotInOutput) {
  // Sort key computed from input columns that are not projected.
  ResultSet rs = Query(
      "SELECT OrderID FROM Orders ORDER BY Quantity * -1");
  EXPECT_EQ(rs.rows().front()[0], Value::Integer(3));  // max quantity
}

TEST_F(ExecutorTest, OrderByMultipleKeys) {
  ResultSet rs = Query(
      "SELECT OrderID FROM Orders ORDER BY Approved DESC, Quantity");
  // Approved first (false < true ⇒ DESC puts TRUE rows first), then by
  // quantity ascending within each group.
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(5));  // approved, qty 1
  EXPECT_EQ(rs.rows().back()[0], Value::Integer(3));  // unapproved max
}

TEST_F(ExecutorTest, HavingOnGroupColumn) {
  ResultSet rs = Query(
      "SELECT ItemID FROM Orders GROUP BY ItemID HAVING ItemID > 15 "
      "ORDER BY ItemID");
  ASSERT_EQ(rs.row_count(), 2u);
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(20));
}

TEST_F(ExecutorTest, ImplicitSingleGroup) {
  ResultSet rs = Query("SELECT COUNT(*), SUM(Quantity) FROM Orders");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(6));
  EXPECT_EQ(rs.rows()[0][1], Value::Integer(22));
}

TEST_F(ExecutorTest, AggregatesOverEmptySetAreNullButCountIsZero) {
  ResultSet rs =
      Query("SELECT COUNT(*), SUM(Quantity) FROM Orders WHERE OrderID > "
            "100");
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(0));
  EXPECT_TRUE(rs.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, CountDistinct) {
  ResultSet rs = Query("SELECT COUNT(DISTINCT ItemID) FROM Orders");
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(3));
}

TEST_F(ExecutorTest, InnerJoin) {
  ResultSet rs = Query(
      "SELECT o.OrderID, i.Name FROM Orders o INNER JOIN Items i ON "
      "o.ItemID = i.ItemID ORDER BY o.OrderID");
  EXPECT_EQ(rs.row_count(), 4u);  // item 30 has no Items row
  EXPECT_EQ(*rs.Get(0, "Name"), Value::String("bolt"));
}

TEST_F(ExecutorTest, LeftJoinPadsWithNulls) {
  ResultSet rs = Query(
      "SELECT o.OrderID, i.Name FROM Orders o LEFT JOIN Items i ON "
      "o.ItemID = i.ItemID ORDER BY o.OrderID");
  EXPECT_EQ(rs.row_count(), 6u);
  EXPECT_TRUE(rs.rows()[4][1].is_null());  // order 5, item 30
}

TEST_F(ExecutorTest, CrossJoinCardinality) {
  EXPECT_EQ(Query("SELECT * FROM Orders, Items").row_count(), 12u);
}

TEST_F(ExecutorTest, JoinWithAggregation) {
  ResultSet rs = Query(
      "SELECT i.Name, SUM(o.Quantity) AS total FROM Orders o "
      "INNER JOIN Items i ON o.ItemID = i.ItemID "
      "GROUP BY i.Name ORDER BY i.Name");
  ASSERT_EQ(rs.row_count(), 2u);
  EXPECT_EQ(*rs.Get(0, "total"), Value::Integer(8));   // bolt
  EXPECT_EQ(*rs.Get(1, "total"), Value::Integer(9));   // nut
}

TEST_F(ExecutorTest, AmbiguousColumnIsError) {
  auto result = db_.Execute(
      "SELECT ItemID FROM Orders o INNER JOIN Items i ON o.ItemID = "
      "i.ItemID");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, UnknownColumnIsError) {
  EXPECT_FALSE(db_.Execute("SELECT nosuch FROM Orders").ok());
}

TEST_F(ExecutorTest, UnknownTableIsError) {
  auto result = db_.Execute("SELECT * FROM NoSuch");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, InsertReportsAffectedRows) {
  auto result =
      db_.Execute("INSERT INTO Items VALUES (30, 'washer'), (40, 'pin')");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected_rows(), 2);
}

TEST_F(ExecutorTest, InsertWithColumnListFillsNulls) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INTEGER, b VARCHAR(5))").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t (a) VALUES (1)").ok());
  ResultSet rs = Query("SELECT * FROM t");
  EXPECT_TRUE(rs.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, InsertSelect) {
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE Approved (OrderID INTEGER, Quantity "
                  "INTEGER)")
          .ok());
  auto result = db_.Execute(
      "INSERT INTO Approved SELECT OrderID, Quantity FROM Orders WHERE "
      "Approved = TRUE");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected_rows(), 4);
}

TEST_F(ExecutorTest, InsertTypeCoercion) {
  // Strings coerce into typed columns.
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Orders VALUES ('7', '10', '2', 'true')")
          .ok());
  ResultSet rs = Query("SELECT Quantity FROM Orders WHERE OrderID = 7");
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(2));
}

TEST_F(ExecutorTest, PrimaryKeyViolation) {
  auto result = db_.Execute("INSERT INTO Orders VALUES (1, 1, 1, TRUE)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConstraintError);
}

TEST_F(ExecutorTest, UpdateWithExpression) {
  auto result = db_.Execute(
      "UPDATE Orders SET Quantity = Quantity + 10 WHERE ItemID = 10");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected_rows(), 2);
  ResultSet rs = Query(
      "SELECT SUM(Quantity) FROM Orders WHERE ItemID = 10");
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(28));
}

TEST_F(ExecutorTest, UpdatePrimaryKeySwapFailsOnCollision) {
  auto result = db_.Execute("UPDATE Orders SET OrderID = 2 WHERE OrderID "
                            "= 1");
  EXPECT_FALSE(result.ok());
}

TEST_F(ExecutorTest, UpdateRowToItselfKeepsUniqueness) {
  // Re-assigning the same PK value must not trip the unique check.
  EXPECT_TRUE(db_.Execute("UPDATE Orders SET OrderID = 1 WHERE OrderID = "
                          "1")
                  .ok());
}

TEST_F(ExecutorTest, DeleteAffectedRows) {
  auto result = db_.Execute("DELETE FROM Orders WHERE Approved = FALSE");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected_rows(), 2);
  EXPECT_EQ(Query("SELECT * FROM Orders").row_count(), 4u);
}

TEST_F(ExecutorTest, TruncateClearsAllRows) {
  auto result = db_.Execute("TRUNCATE TABLE Orders");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->affected_rows(), 6);
  EXPECT_EQ(Query("SELECT * FROM Orders").row_count(), 0u);
}

TEST_F(ExecutorTest, DropTableRemovesIt) {
  ASSERT_TRUE(db_.Execute("DROP TABLE Items").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM Items").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS Items").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE Items").ok());
}

TEST_F(ExecutorTest, CreateUniqueIndexEnforces) {
  ASSERT_TRUE(
      db_.Execute("CREATE UNIQUE INDEX uq_item ON Items (Name)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO Items VALUES (50, 'bolt')").ok());
  EXPECT_TRUE(db_.Execute("INSERT INTO Items VALUES (50, 'rivet')").ok());
}

TEST_F(ExecutorTest, CreateUniqueIndexRejectsExistingDuplicates) {
  ASSERT_TRUE(db_.Execute("INSERT INTO Items VALUES (60, 'bolt')").ok());
  auto refused = db_.Execute("CREATE UNIQUE INDEX uq2 ON Items (Name)");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kConstraintError);
  EXPECT_NE(refused.status().ToString().find(
                "existing data violates unique constraint 'uq2'"),
            std::string::npos)
      << refused.status().ToString();
  // Nothing of the refused index is left behind.
  EXPECT_EQ(db_.catalog().FindTable("Items")->FindSecondaryIndex("uq2"),
            nullptr);
  EXPECT_EQ(db_.catalog().FindIndex("uq2"), nullptr);
  EXPECT_TRUE(db_.Execute("INSERT INTO Items VALUES (61, 'bolt')").ok());
}

TEST_F(ExecutorTest, NullSemanticsInWhere) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE n (a INTEGER)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO n VALUES (1), (NULL)").ok());
  // NULL = NULL is unknown → filtered out.
  EXPECT_EQ(Query("SELECT * FROM n WHERE a = NULL").row_count(), 0u);
  EXPECT_EQ(Query("SELECT * FROM n WHERE a IS NULL").row_count(), 1u);
  EXPECT_EQ(Query("SELECT * FROM n WHERE a IS NOT NULL").row_count(), 1u);
}

TEST_F(ExecutorTest, ThreeValuedLogic) {
  ResultSet rs = Query("SELECT NULL AND FALSE, NULL OR TRUE");
  EXPECT_EQ(rs.rows()[0][0], Value::Boolean(false));
  EXPECT_EQ(rs.rows()[0][1], Value::Boolean(true));
  ResultSet rs2 = Query("SELECT NULL AND TRUE, NULL OR FALSE");
  EXPECT_TRUE(rs2.rows()[0][0].is_null());
  EXPECT_TRUE(rs2.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, ScalarFunctions) {
  ResultSet rs = Query(
      "SELECT UPPER('ab'), LOWER('AB'), LENGTH('abc'), ABS(-4), "
      "COALESCE(NULL, 7), SUBSTR('hello', 2, 3), ROUND(2.567, 1)");
  EXPECT_EQ(rs.rows()[0][0], Value::String("AB"));
  EXPECT_EQ(rs.rows()[0][1], Value::String("ab"));
  EXPECT_EQ(rs.rows()[0][2], Value::Integer(3));
  EXPECT_EQ(rs.rows()[0][3], Value::Integer(4));
  EXPECT_EQ(rs.rows()[0][4], Value::Integer(7));
  EXPECT_EQ(rs.rows()[0][5], Value::String("ell"));
  EXPECT_EQ(rs.rows()[0][6], Value::Double(2.6));
}

TEST_F(ExecutorTest, StringConcat) {
  ResultSet rs = Query("SELECT 'a' || 'b' || 'c'");
  EXPECT_EQ(rs.rows()[0][0], Value::String("abc"));
}

TEST_F(ExecutorTest, LikePatterns) {
  EXPECT_EQ(Query("SELECT * FROM Items WHERE Name LIKE 'b%'").row_count(),
            1u);
  EXPECT_EQ(Query("SELECT * FROM Items WHERE Name LIKE '%t'").row_count(),
            2u);
  EXPECT_EQ(Query("SELECT * FROM Items WHERE Name LIKE '_ut'").row_count(),
            1u);
  EXPECT_EQ(
      Query("SELECT * FROM Items WHERE Name NOT LIKE 'b%'").row_count(),
      1u);
}

TEST_F(ExecutorTest, DivisionByZeroIsError) {
  EXPECT_FALSE(db_.Execute("SELECT 1 / 0").ok());
  EXPECT_FALSE(db_.Execute("SELECT 1 % 0").ok());
}

TEST_F(ExecutorTest, IntegerAndDoubleArithmetic) {
  ResultSet rs = Query("SELECT 7 / 2, 7.0 / 2, 7 % 3, -(3 + 1)");
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(3));  // integer division
  EXPECT_EQ(rs.rows()[0][1], Value::Double(3.5));
  EXPECT_EQ(rs.rows()[0][2], Value::Integer(1));
  EXPECT_EQ(rs.rows()[0][3], Value::Integer(-4));
}

TEST_F(ExecutorTest, StringNumberComparisonCoerces) {
  // Host variables from XML-typed spaces arrive as strings.
  Params params;
  params.Set("id", Value::String("1"));
  auto result =
      db_.Execute("SELECT * FROM Orders WHERE OrderID = :id", params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count(), 1u);
}

TEST_F(ExecutorTest, NamedParameters) {
  Params params;
  params.Set("q", Value::Integer(4));
  auto result = db_.Execute(
      "SELECT COUNT(*) FROM Orders WHERE Quantity >= :q", params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows()[0][0], Value::Integer(3));
}

TEST_F(ExecutorTest, PositionalParameters) {
  Params params;
  params.Add(Value::Integer(10)).Add(Value::Boolean(true));
  auto result = db_.Execute(
      "SELECT COUNT(*) FROM Orders WHERE ItemID = ? AND Approved = ?",
      params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows()[0][0], Value::Integer(2));
}

TEST_F(ExecutorTest, UnboundParameterIsError) {
  auto result = db_.Execute("SELECT * FROM Orders WHERE OrderID = :nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, ResultSetHelpers) {
  ResultSet rs = Query("SELECT OrderID, Quantity FROM Orders ORDER BY "
                       "OrderID");
  EXPECT_EQ(rs.FindColumn("quantity"), 1);  // case-insensitive
  EXPECT_EQ(rs.FindColumn("nope"), -1);
  EXPECT_FALSE(rs.Get(99, "OrderID").ok());
  EXPECT_FALSE(rs.Get(0, "nope").ok());
  EXPECT_GT(rs.ApproxByteSize(), 0u);
  EXPECT_NE(rs.ToAsciiTable().find("OrderID"), std::string::npos);
}

TEST_F(ExecutorTest, StatsCountStatements) {
  uint64_t before = db_.stats().statements_executed;
  Query("SELECT 1");
  EXPECT_EQ(db_.stats().statements_executed, before + 1);
}

TEST_F(ExecutorTest, ScalarFunctionEdgeCases) {
  ResultSet rs = Query(
      "SELECT SUBSTR('abc', 0, 2), SUBSTR('abc', 2), SUBSTR('abc', 9), "
      "NULLIF(1, 1), NULLIF(1, 2), CONCAT('a', NULL, 'b'), "
      "COALESCE(NULL, NULL), ROUND(2.5), UPPER(NULL)");
  EXPECT_EQ(rs.rows()[0][0], Value::String("ab"));   // start clamps to 1
  EXPECT_EQ(rs.rows()[0][1], Value::String("bc"));   // to end
  EXPECT_EQ(rs.rows()[0][2], Value::String(""));     // past end
  EXPECT_TRUE(rs.rows()[0][3].is_null());
  EXPECT_EQ(rs.rows()[0][4], Value::Integer(1));
  EXPECT_EQ(rs.rows()[0][5], Value::String("ab"));   // CONCAT skips NULL
  EXPECT_TRUE(rs.rows()[0][6].is_null());
  EXPECT_EQ(rs.rows()[0][7], Value::Double(3.0));
  EXPECT_TRUE(rs.rows()[0][8].is_null());
}

TEST_F(ExecutorTest, UnknownFunctionIsNotFound) {
  auto result = db_.Execute("SELECT NOSUCHFN(1)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, AggregateOutsideGroupScopeIsError) {
  // Aggregates are invalid inside WHERE.
  EXPECT_FALSE(
      db_.Execute("SELECT * FROM Orders WHERE SUM(Quantity) > 1").ok());
}

// Group identity: two keys are one group when both are NULL, or when
// they have the same type and are equal (DOUBLE: -0.0 = 0.0). GROUP BY,
// DISTINCT, UNION and COUNT(DISTINCT) agree on it with the optimizer on
// and off.
class GroupKeyTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    db_.set_optimizer_enabled(GetParam());
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (id INTEGER PRIMARY KEY, d DOUBLE);
      INSERT INTO t VALUES (1, 1.0000001), (2, 1.0000002), (3, 0.0),
                           (4, -0.0), (5, NULL), (6, NULL);
    )sql")
                    .ok());
  }

  ResultSet Query(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " → " << result.status().ToString();
    return std::move(result).value_or(ResultSet());
  }

  Database db_{"group_keys"};
};

TEST_P(GroupKeyTest, GroupByKeepsNearEqualDoublesApart) {
  ResultSet rs = Query("SELECT d, COUNT(*) FROM t GROUP BY d ORDER BY d");
  ASSERT_EQ(rs.row_count(), 4u);
  EXPECT_TRUE(rs.rows()[0][0].is_null());  // NULLs form one group
  EXPECT_EQ(rs.rows()[0][1], Value::Integer(2));
  EXPECT_EQ(rs.rows()[1][0], Value::Double(0.0));  // 0.0 and -0.0 merge
  EXPECT_EQ(rs.rows()[1][1], Value::Integer(2));
  EXPECT_EQ(rs.rows()[2][0], Value::Double(1.0000001));
  EXPECT_EQ(rs.rows()[2][1], Value::Integer(1));
  EXPECT_EQ(rs.rows()[3][0], Value::Double(1.0000002));
  EXPECT_EQ(rs.rows()[3][1], Value::Integer(1));
  // The same identity WHERE uses.
  EXPECT_EQ(Query("SELECT id FROM t WHERE d = 1.0000001").row_count(), 1u);
}

TEST_P(GroupKeyTest, DistinctUnionAndCountDistinctAgree) {
  EXPECT_EQ(Query("SELECT DISTINCT d FROM t").row_count(), 4u);
  EXPECT_EQ(Query("SELECT d FROM t UNION SELECT d FROM t").row_count(), 4u);
  ResultSet rs = Query("SELECT COUNT(DISTINCT d) FROM t");  // NULL skipped
  EXPECT_EQ(rs.rows()[0][0], Value::Integer(3));
}

TEST_P(GroupKeyTest, IntegerAndDoubleStaySeparate) {
  EXPECT_EQ(Query("SELECT 1 UNION SELECT 1.0").row_count(), 2u);
  ResultSet rs = Query(
      "SELECT k, COUNT(*) FROM (SELECT 1 AS k UNION ALL SELECT 1.0 AS k "
      "UNION ALL SELECT 1) AS u GROUP BY k");
  ASSERT_EQ(rs.row_count(), 2u);
  EXPECT_EQ(rs.rows()[0][0].type(), ValueType::kInteger);
  EXPECT_EQ(rs.rows()[0][1], Value::Integer(2));
  EXPECT_EQ(rs.rows()[1][0].type(), ValueType::kDouble);
  EXPECT_EQ(rs.rows()[1][1], Value::Integer(1));
  EXPECT_EQ(Query("SELECT DISTINCT k FROM (SELECT 1 AS k UNION ALL "
                  "SELECT 1.0 AS k) AS u")
                .row_count(),
            2u);
}

// Instance names: "Batch" runs with the optimizer on, "Row" with it off;
// the names stay as they are so the suite's test ids stay stable.
INSTANTIATE_TEST_SUITE_P(BothExecutors, GroupKeyTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Batch" : "Row";
                         });

// Aggregate arguments whose evaluation is observable (NEXTVAL, scalar
// subqueries) evaluate group by group in first-seen group order, each
// group's rows in input order, and stop at the first error. The groups
// interleave in input order, so evaluating in input order instead would
// hand out different sequence values and run more subqueries.
class ObservableAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Input order: g = 1, 2, 1, 2, 3. v = 0 only in the second g = 2 row.
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE ev (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER);
      INSERT INTO ev VALUES (1, 1, 10), (2, 2, 20), (3, 1, 30), (4, 2, 0),
                            (5, 3, 5);
      CREATE SEQUENCE s START WITH 1;
    )sql")
                    .ok());
  }

  static uint64_t Scans() {
    return obs::MetricsRegistry::Global().GetCounter("sql.plan.scan").value();
  }

  Database db_{"observable_aggs"};
};

TEST_F(ObservableAggregateTest, NextvalArgumentsNumberRowsGroupByGroup) {
  auto rs = db_.Execute("SELECT g, SUM(NEXTVAL('s')), COUNT(*) FROM ev "
                        "GROUP BY g");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // g = 1 draws 1 and 2, g = 2 draws 3 and 4, g = 3 draws 5.
  ASSERT_EQ(rs->row_count(), 3u);
  EXPECT_EQ(rs->rows()[0], (Row{Value::Integer(1), Value::Integer(3),
                                Value::Integer(2)}));
  EXPECT_EQ(rs->rows()[1], (Row{Value::Integer(2), Value::Integer(7),
                                Value::Integer(2)}));
  EXPECT_EQ(rs->rows()[2], (Row{Value::Integer(3), Value::Integer(5),
                                Value::Integer(1)}));
  auto next = db_.Execute("SELECT NEXTVAL('s')");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->rows()[0][0], Value::Integer(6));
}

TEST_F(ObservableAggregateTest, SubqueryArgumentRunsOncePerRow) {
  const uint64_t before = Scans();
  auto rs = db_.Execute("SELECT g, SUM((SELECT MAX(v) FROM ev) + v) FROM ev "
                        "GROUP BY g");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->row_count(), 3u);
  EXPECT_EQ(rs->rows()[0], (Row{Value::Integer(1), Value::Integer(100)}));
  EXPECT_EQ(rs->rows()[1], (Row{Value::Integer(2), Value::Integer(80)}));
  EXPECT_EQ(rs->rows()[2], (Row{Value::Integer(3), Value::Integer(35)}));
  // One scan for the outer SELECT, one per row for the subquery.
  EXPECT_EQ(Scans() - before, 6u);
}

TEST_F(ObservableAggregateTest, ArgumentFailingInALaterGroupStopsThere) {
  const uint64_t before = Scans();
  // g = 1 evaluates 30/10 and 30/30; g = 2 evaluates 30/20, then 30/0
  // fails. The g = 3 row is never evaluated.
  auto rs = db_.Execute("SELECT g, SUM((SELECT MAX(v) FROM ev) / v) FROM ev "
                        "GROUP BY g");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(rs.status().message(), "division by zero");
  // One scan for the outer SELECT, one per evaluated row (4 of 5).
  EXPECT_EQ(Scans() - before, 5u);
}

// LIKE semantics, exercised pairwise.
struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

// Names each case by its strings, so the discovered test names stay the same
// from build to build (the default prints the raw bytes of the two pointers).
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, MatchesSqlSemantics) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.expected)
      << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LikeMatchTest,
    ::testing::Values(LikeCase{"", "", true}, LikeCase{"", "%", true},
                      LikeCase{"", "_", false},
                      LikeCase{"abc", "abc", true},
                      LikeCase{"abc", "a%", true},
                      LikeCase{"abc", "%c", true},
                      LikeCase{"abc", "%b%", true},
                      LikeCase{"abc", "a_c", true},
                      LikeCase{"abc", "a_d", false},
                      LikeCase{"abc", "%%", true},
                      LikeCase{"abc", "____", false},
                      LikeCase{"abc", "___", true},
                      LikeCase{"aXbXc", "a%b%c", true},
                      LikeCase{"mississippi", "%ss%ss%", true},
                      LikeCase{"mississippi", "%ss%ss%ss%", false},
                      LikeCase{"abc", "ABC", false}));  // case-sensitive

// Parameterized sweep: WHERE Quantity >= k row counts are monotone.
class QuantityThresholdTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantityThresholdTest, FilterMonotonicity) {
  Database db("sweep");
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER);
    INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8);
  )sql")
                  .ok());
  int k = GetParam();
  Params p1;
  p1.Set("k", Value::Integer(k));
  auto r1 = db.Execute("SELECT COUNT(*) FROM t WHERE a >= :k", p1);
  Params p2;
  p2.Set("k", Value::Integer(k + 1));
  auto r2 = db.Execute("SELECT COUNT(*) FROM t WHERE a >= :k", p2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GE(r1->rows()[0][0].integer(), r2->rows()[0][0].integer());
  EXPECT_EQ(r1->rows()[0][0].integer(), std::max(0, 8 - k + 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantityThresholdTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace sqlflow::sql
