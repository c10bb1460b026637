// Columnar batch pipeline tests: the batch.h primitives (NullBitmap
// word boundaries, LoadVecCol type unification, selection compaction),
// the VecRelation slot model (kNullSlot LEFT OUTER padding), and
// differentials against the reference evaluator pinned to the spots
// where the vectorized executor has real seams — the kBatchCapacity
// window boundary, GROUP BY state carried across windows, and LEFT JOIN
// NULL padding.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sql/batch.h"
#include "sql/database.h"
#include "sql/vec_exec.h"

#include "reference_select.h"

namespace sqlflow::sql {
namespace {

uint64_t BatchCounter() {
  return obs::MetricsRegistry::Global().GetCounter("sql.plan.batch").value();
}

// ---------------------------------------------------------------------------
// NullBitmap
// ---------------------------------------------------------------------------

TEST(NullBitmapTest, TracksBitsAcrossWordBoundaries) {
  NullBitmap bm;
  bm.Reset(130);  // spans three 64-bit words
  EXPECT_FALSE(bm.AnyNull());
  EXPECT_EQ(bm.null_count(), 0u);

  const size_t nulls[] = {0, 63, 64, 127, 128, 129};
  for (size_t i : nulls) bm.SetNull(i);

  EXPECT_TRUE(bm.AnyNull());
  EXPECT_FALSE(bm.AllNull());
  EXPECT_EQ(bm.null_count(), 6u);
  for (size_t i : nulls) EXPECT_TRUE(bm.IsNull(i)) << "bit " << i;
  for (size_t i : {size_t{1}, size_t{62}, size_t{65}, size_t{126}}) {
    EXPECT_FALSE(bm.IsNull(i)) << "bit " << i;
  }

  // Setting the same bit twice must not double-count.
  bm.SetNull(64);
  EXPECT_EQ(bm.null_count(), 6u);

  // Reset clears both the bits and the count.
  bm.Reset(130);
  EXPECT_FALSE(bm.AnyNull());
  for (size_t i : nulls) EXPECT_FALSE(bm.IsNull(i));
}

TEST(NullBitmapTest, AllNullDetection) {
  NullBitmap bm;
  bm.Reset(65);
  for (size_t i = 0; i < 65; ++i) bm.SetNull(i);
  EXPECT_TRUE(bm.AllNull());
  EXPECT_EQ(bm.null_count(), 65u);
}

// ---------------------------------------------------------------------------
// LoadVecCol
// ---------------------------------------------------------------------------

TEST(LoadVecColTest, BackfillsLeadingNullsOnFirstTypedValue) {
  // NULL, NULL, 7, NULL, 9 — the tag is unknown until position 2, at
  // which point the leading placeholders must be backfilled so vector
  // positions stay aligned with window positions.
  std::vector<Value> vals = {Value::Null(), Value::Null(), Value::Integer(7),
                             Value::Null(), Value::Integer(9)};
  VecCol col;
  ASSERT_TRUE(LoadVecCol(
      vals.size(), [&](size_t i) -> const Value& { return vals[i]; }, &col));
  EXPECT_EQ(col.tag, VecCol::Tag::kInt);
  ASSERT_EQ(col.ints.size(), 5u);
  EXPECT_EQ(col.nulls.null_count(), 3u);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_TRUE(col.IsNull(3));
  EXPECT_EQ(col.ints[2], 7);
  EXPECT_EQ(col.ints[4], 9);
  // At() reconstructs the exact scalar values.
  EXPECT_TRUE(col.At(0).is_null());
  EXPECT_EQ(col.At(2).integer(), 7);
}

TEST(LoadVecColTest, MixedIntAndDoubleBails) {
  std::vector<Value> vals = {Value::Integer(1), Value::Double(2.5)};
  VecCol col;
  EXPECT_FALSE(LoadVecCol(
      vals.size(), [&](size_t i) -> const Value& { return vals[i]; }, &col));
  EXPECT_EQ(col.tag, VecCol::Tag::kBail);
}

TEST(LoadVecColTest, AllNullWindowStaysNullTagged) {
  std::vector<Value> vals(4, Value::Null());
  VecCol col;
  ASSERT_TRUE(LoadVecCol(
      vals.size(), [&](size_t i) -> const Value& { return vals[i]; }, &col));
  EXPECT_EQ(col.tag, VecCol::Tag::kNull);
  EXPECT_TRUE(col.nulls.AllNull());
  EXPECT_TRUE(col.At(3).is_null());
}

TEST(LoadVecColTest, StringAndBoolColumns) {
  std::vector<Value> svals = {Value::String("a"), Value::Null(),
                              Value::String("b")};
  VecCol scol;
  ASSERT_TRUE(LoadVecCol(
      svals.size(), [&](size_t i) -> const Value& { return svals[i]; },
      &scol));
  EXPECT_EQ(scol.tag, VecCol::Tag::kString);
  EXPECT_EQ(*scol.strs[0], "a");
  EXPECT_EQ(scol.strs[1], nullptr);  // NULL placeholder
  EXPECT_EQ(scol.At(2).str(), "b");

  std::vector<Value> bvals = {Value::Boolean(true), Value::Boolean(false)};
  VecCol bcol;
  ASSERT_TRUE(LoadVecCol(
      bvals.size(), [&](size_t i) -> const Value& { return bvals[i]; },
      &bcol));
  EXPECT_EQ(bcol.tag, VecCol::Tag::kBool);
  EXPECT_TRUE(bcol.At(0).boolean());
  EXPECT_FALSE(bcol.At(1).boolean());
}

// ---------------------------------------------------------------------------
// CompactSelection
// ---------------------------------------------------------------------------

TEST(CompactSelectionTest, FiltersByPositionNotOrdinal) {
  Batch batch;
  batch.ResetIdentity(8);
  // keep is indexed by *position*: keep even positions.
  std::vector<uint8_t> keep = {1, 0, 1, 0, 1, 0, 1, 0};
  EXPECT_EQ(CompactSelection(&batch, keep), 4u);
  EXPECT_EQ(batch.selection, (std::vector<uint32_t>{0, 2, 4, 6}));

  // Second compaction over an already-sparse selection: keep positions
  // {2, 6}. Survivors must come from the current selection only.
  std::vector<uint8_t> keep2 = {0, 0, 1, 1, 0, 0, 1, 0};
  EXPECT_EQ(CompactSelection(&batch, keep2), 2u);
  EXPECT_EQ(batch.selection, (std::vector<uint32_t>{2, 6}));
}

TEST(CompactSelectionTest, KeepNoneAndKeepAll) {
  Batch batch;
  batch.ResetIdentity(4);
  std::vector<uint8_t> all(4, 1);
  EXPECT_EQ(CompactSelection(&batch, all), 4u);
  EXPECT_EQ(batch.selection.size(), 4u);

  std::vector<uint8_t> none(4, 0);
  EXPECT_EQ(CompactSelection(&batch, none), 0u);
  EXPECT_TRUE(batch.selection.empty());
}

// ---------------------------------------------------------------------------
// VecRelation slot model
// ---------------------------------------------------------------------------

TEST(VecRelationTest, NullSlotReadsAsNullInEveryColumn) {
  VecSide left;
  left.OwnRows({{Value::Integer(1), Value::String("x")},
                {Value::Integer(2), Value::String("y")}},
               2);
  VecSide right;
  right.OwnRows({{Value::Integer(10)}}, 1);

  VecRelation rel;
  rel.AddSide(&left, "l", {{"l", "id"}, {"l", "name"}});
  rel.AddSide(&right, "r", {{"r", "v"}});
  rel.slots[0] = {0, 1};
  rel.slots[1] = {0, kNullSlot};  // row 1 is LEFT OUTER padded

  ASSERT_EQ(rel.row_count(), 2u);
  EXPECT_EQ(rel.AtRef(0, 0).integer(), 1);
  EXPECT_EQ(rel.AtRef(0, 2).integer(), 10);
  EXPECT_EQ(rel.AtRef(1, 1).str(), "y");
  EXPECT_TRUE(rel.AtRef(1, 2).is_null());

  Row padded = rel.MaterializeRow(1);
  ASSERT_EQ(padded.size(), 3u);
  EXPECT_EQ(padded[0].integer(), 2);
  EXPECT_TRUE(padded[2].is_null());
}

TEST(VecRelationTest, FindVecColumnResolution) {
  VecSide side;
  side.OwnRows({{Value::Integer(1), Value::Integer(2)}}, 2);
  VecRelation rel;
  rel.AddSide(&side, "a", {{"a", "id"}, {"a", "v"}});
  VecSide side2;
  side2.OwnRows({{Value::Integer(3)}}, 1);
  rel.AddSide(&side2, "b", {{"b", "v"}});

  EXPECT_EQ(FindVecColumn(rel, "a", "id"), 0);
  EXPECT_EQ(FindVecColumn(rel, "", "id"), 0);
  EXPECT_EQ(FindVecColumn(rel, "b", "v"), 2);
  EXPECT_EQ(FindVecColumn(rel, "", "v"), -2);       // ambiguous
  EXPECT_EQ(FindVecColumn(rel, "", "missing"), -1);  // not found
}

// ---------------------------------------------------------------------------
// Pipeline-vs-reference differentials at the window seams
// ---------------------------------------------------------------------------

std::string Canon(const Result<ResultSet>& r, bool ordered) {
  if (!r.ok()) return "ERROR " + r.status().ToString();
  std::vector<std::string> lines;
  lines.reserve(r->row_count());
  for (const Row& row : r->rows()) {
    std::string line;
    for (const Value& v : row) {
      line += (v.is_null() ? "N" : v.AsString()) + "|";
    }
    lines.push_back(std::move(line));
  }
  if (!ordered) std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

// Runs `sql` through the executor, which must take the columnar
// pipeline (counter grows), and through the reference evaluator; the two
// must agree byte for byte.
void ExpectMatchesReference(Database& db, const std::string& sql,
                            bool ordered = false) {
  const std::string expected = Canon(ReferenceSelect(&db, sql), ordered);
  uint64_t before = BatchCounter();
  std::string got = Canon(db.Execute(sql), ordered);
  EXPECT_GT(BatchCounter(), before) << "batch path not taken: " << sql;
  EXPECT_EQ(got, expected) << "pipeline/reference divergence: " << sql;
}

class VecExecSqlTest : public ::testing::Test {
 protected:
  // 2600 rows: spans two full kBatchCapacity (1024) windows plus a
  // partial third, so per-group aggregate state must survive window
  // hand-off and finalize after a short tail. Groups interleave (g =
  // i % 7) so every group spans every window; grp 99 exists only in the
  // final partial window. ~1 in 13 v values is NULL.
  void SetUp() override {
    db_ = std::make_unique<Database>("vec_sql");
    ASSERT_TRUE(db_->ExecuteScript(R"sql(
      CREATE TABLE ev (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER,
                       tag VARCHAR(8));
      CREATE TABLE ref (id INTEGER PRIMARY KEY, g INTEGER,
                        label VARCHAR(8));
    )sql")
                    .ok());
    ASSERT_TRUE(db_->Execute("BEGIN").ok());
    for (int i = 0; i < 2600; ++i) {
      int g = (i >= 2560) ? 99 : (i % 7);
      std::string v = (i % 13 == 6) ? "NULL" : std::to_string(i % 17);
      std::string tag = "'t" + std::to_string(i % 5) + "'";
      ASSERT_TRUE(db_->Execute("INSERT INTO ev VALUES (" +
                               std::to_string(i) + ", " + std::to_string(g) +
                               ", " + v + ", " + tag + ")")
                      .ok());
    }
    // ref covers only groups 0..3: LEFT JOIN pads groups 4,5,6,99.
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO ref VALUES (" +
                               std::to_string(i) + ", " + std::to_string(i) +
                               ", 'g" + std::to_string(i) + "')")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("COMMIT").ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(VecExecSqlTest, GroupByStateCarriesAcrossWindowBoundaries) {
  ExpectMatchesReference(*db_,
                         "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), "
                         "MAX(v), AVG(v) FROM ev GROUP BY g");
  // Group arriving only in the final partial window.
  ExpectMatchesReference(*db_, "SELECT g, COUNT(*) FROM ev "
                               "WHERE g = 99 GROUP BY g");
  // HAVING over the carried aggregate.
  ExpectMatchesReference(*db_, "SELECT g, SUM(v) FROM ev GROUP BY g "
                               "HAVING COUNT(*) > 100");
  // Grand total (single group spanning every window).
  ExpectMatchesReference(*db_, "SELECT COUNT(*), SUM(v), AVG(v) FROM ev");
}

TEST_F(VecExecSqlTest, FilterCompactionAcrossWindows) {
  // Survivors scattered across all three windows.
  ExpectMatchesReference(*db_, "SELECT id, v FROM ev WHERE v = 3");
  // Exactly one survivor, in the final window.
  ExpectMatchesReference(*db_, "SELECT id FROM ev WHERE id = 2599");
  // Empty result: every window compacts to zero.
  ExpectMatchesReference(*db_, "SELECT id FROM ev WHERE v = 1000");
  // Predicate straddling the first window boundary.
  ExpectMatchesReference(*db_,
                         "SELECT id FROM ev WHERE id BETWEEN 1020 AND 1030");
  // NULL-heavy predicate: three-valued logic per window.
  ExpectMatchesReference(*db_, "SELECT id FROM ev WHERE v IS NULL");
  ExpectMatchesReference(*db_, "SELECT COUNT(*) FROM ev WHERE v IS NOT NULL");
}

TEST_F(VecExecSqlTest, OrderByLimitAtWindowBoundary) {
  ExpectMatchesReference(*db_, "SELECT id FROM ev ORDER BY id LIMIT 1025",
                         /*ordered=*/true);
  ExpectMatchesReference(*db_,
                         "SELECT id, v FROM ev ORDER BY v DESC, id LIMIT 40",
                         /*ordered=*/true);
}

TEST_F(VecExecSqlTest, LeftJoinPadsUnmatchedGroupsAcrossWindows) {
  // Groups 4,5,6 (and 99) have no ref row: every one of their ~1100
  // join rows is NULL-padded, in every window.
  ExpectMatchesReference(*db_,
                         "SELECT e.g, r.label, COUNT(*) FROM ev e "
                         "LEFT JOIN ref r ON e.g = r.g GROUP BY e.g, r.label");
  // Padded rows selected by the IS NULL probe on the right side.
  ExpectMatchesReference(*db_,
                         "SELECT COUNT(*) FROM ev e LEFT JOIN ref r "
                         "ON e.g = r.g WHERE r.label IS NULL");
  // Aggregates over the padded column: COUNT skips NULLs.
  ExpectMatchesReference(*db_,
                         "SELECT COUNT(r.label), COUNT(*) FROM ev e "
                         "LEFT JOIN ref r ON e.g = r.g");
  // Inner join drops the padded rows instead.
  ExpectMatchesReference(*db_,
                         "SELECT r.label, SUM(e.v) FROM ev e JOIN ref r "
                         "ON e.g = r.g GROUP BY r.label");
}

TEST_F(VecExecSqlTest, HashJoinKeepsNestedLoopOrderPastOneWindow) {
  // Each join yields more than kBatchCapacity candidate pairs, so pair
  // windows flush mid-join. The hash join (build left, then build right)
  // must emit exactly the reference nested loop's rows, in order.
  const char* queries[] = {
      "SELECT r.id, e.id FROM ref r JOIN ev e ON r.g = e.g",
      "SELECT e.id, r.id FROM ev e JOIN ref r ON e.g = r.g",
      "SELECT e.id, r.id FROM ev e LEFT JOIN ref r ON e.g = r.g",
      "SELECT r.id, e.id FROM ref r LEFT JOIN ev e "
      "ON r.g = e.g AND r.id = e.g",
  };
  for (const char* sql : queries) {
    auto loop = ReferenceSelect(db_.get(), sql);
    const uint64_t joins = obs::MetricsRegistry::Global()
                               .GetCounter("sql.plan.hash_join")
                               .value();
    auto batch = db_->Execute(sql);
    ASSERT_TRUE(loop.ok() && batch.ok()) << sql;
    EXPECT_GT(batch->row_count(), kBatchCapacity) << sql;
    EXPECT_GT(obs::MetricsRegistry::Global()
                  .GetCounter("sql.plan.hash_join")
                  .value(),
              joins)
        << sql;
    EXPECT_EQ(Canon(batch, /*ordered=*/true), Canon(loop, /*ordered=*/true))
        << sql;
  }
}

TEST_F(VecExecSqlTest, MixedTypeColumnFallsBackWithoutDivergence) {
  // A window whose expression mixes int and double must bail to the
  // scalar path mid-pipeline and still agree with the reference.
  ASSERT_TRUE(db_->Execute("CREATE TABLE m (id INTEGER PRIMARY KEY, "
                           "x DOUBLE)")
                  .ok());
  ASSERT_TRUE(db_->Execute("BEGIN").ok());
  for (int i = 0; i < 1100; ++i) {
    ASSERT_TRUE(db_->Execute("INSERT INTO m VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i) + ".5)")
                    .ok());
  }
  ASSERT_TRUE(db_->Execute("COMMIT").ok());
  ExpectMatchesReference(*db_, "SELECT id + x FROM m WHERE x > 1000");
  ExpectMatchesReference(*db_, "SELECT SUM(id + x) FROM m");
}

}  // namespace
}  // namespace sqlflow::sql
