// Differential SQL fuzzer: generates seed-reproducible random SELECTs
// over a fixed two-table schema and executes each one through the
// executor twice — optimizer off (full scans, nested loops) and on
// (index lookups, range scans, hash joins, pushdown) — expecting both to
// match the naive reference evaluator (tests/reference_select.h)
// byte for byte (rows canonically sorted when the query has no ORDER
// BY). Any divergence prints the seed, the query index, the SQL, and
// which configuration diverged, so a failure reproduces with a one-line
// edit.
//
// The grammar deliberately emits only type-class-compatible predicates
// (numeric columns vs. numeric-ish literals, string columns vs. string
// literals, booleans vs. TRUE/FALSE): predicates that can raise runtime
// type errors are legitimately order-sensitive under AND short-circuit
// and are covered by targeted tests instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "sql/checkpoint.h"
#include "sql/database.h"

#include "reference_select.h"

namespace sqlflow::sql {
namespace {

constexpr uint32_t kSeed = 0xF02Du;
constexpr int kQueryCount = 600;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

std::string CanonValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "N";
    case ValueType::kInteger:
      return "i:" + v.AsString();
    case ValueType::kDouble:
      return "d:" + v.AsString();
    case ValueType::kBoolean:
      return "b:" + v.AsString();
    case ValueType::kString:
      return "s:" + v.AsString();
  }
  return "?";
}

// Flattens a statement outcome to a comparable string. Row order is
// part of the contract only when the query carries an ORDER BY.
std::string Canonical(const Result<ResultSet>& r, bool has_order_by) {
  if (!r.ok()) return "ERROR " + r.status().ToString();
  std::string out = "cols:";
  for (const std::string& name : r->column_names()) out += name + "|";
  out += "\n";
  std::vector<std::string> lines;
  lines.reserve(r->row_count());
  for (const Row& row : r->rows()) {
    std::string line;
    for (const Value& v : row) line += CanonValue(v) + "|";
    lines.push_back(std::move(line));
  }
  if (!has_order_by) std::sort(lines.begin(), lines.end());
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

struct TableShape {
  const char* name;
  std::vector<const char*> numeric_cols;
  std::vector<const char*> string_cols;
  const char* bool_col;  // nullptr if none
  std::vector<const char*> all_cols;
};

class Fuzzer {
 public:
  explicit Fuzzer(uint32_t seed) : rng_(seed) {
    t1_ = {"t1", {"id", "a", "b"}, {"s"}, "flag",
           {"id", "a", "b", "s", "flag"}};
    t2_ = {"t2", {"id", "ref", "v"}, {"w"}, nullptr,
           {"id", "ref", "v", "w"}};
  }

  int Pick(int n) { return static_cast<int>(rng_() % static_cast<unsigned>(n)); }
  bool Chance(int pct) { return Pick(100) < pct; }

  std::string NumericLiteral() {
    switch (Pick(6)) {
      case 0:
        return std::to_string(Pick(14) - 1);
      case 1:
        return std::to_string(Pick(10)) + "." + std::to_string(Pick(10));
      case 2:
        return "'" + std::to_string(Pick(12)) + "'";  // numeric string
      case 3:
        return std::to_string(Pick(200));
      case 4:
        return "-" + std::to_string(Pick(5));
      default:
        return std::to_string(Pick(10));
    }
  }

  std::string StringLiteral() {
    static const char* pool[] = {"a",  "ab", "abc", "a%",  "b_c", "ba",
                                 "c",  "",   "zz",  "AB",  "b",   "7"};
    return std::string("'") + pool[Pick(12)] + "'";
  }

  std::string CompareOp() {
    static const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
    return ops[Pick(6)];
  }

  // One WHERE/ON conjunct over `shape`'s columns, qualified with `qual`
  // when non-empty. Only never-erroring, class-compatible forms.
  std::string Conjunct(const TableShape& shape, const std::string& qual) {
    auto col = [&](const char* c) {
      return qual.empty() ? std::string(c) : qual + "." + c;
    };
    int roll = Pick(100);
    if (roll < 30) {  // comparison on a numeric column
      const char* c = shape.numeric_cols[Pick(
          static_cast<int>(shape.numeric_cols.size()))];
      std::string lit = NumericLiteral();
      return Chance(20) ? lit + " " + CompareOp() + " " + col(c)
                        : col(c) + " " + CompareOp() + " " + lit;
    }
    if (roll < 45) {  // BETWEEN (raw compare — never errors)
      const char* c = shape.numeric_cols[Pick(
          static_cast<int>(shape.numeric_cols.size()))];
      std::string form = Chance(15) ? " NOT BETWEEN " : " BETWEEN ";
      return col(c) + form + NumericLiteral() + " AND " + NumericLiteral();
    }
    if (roll < 55) {  // IN list
      const char* c = shape.numeric_cols[Pick(
          static_cast<int>(shape.numeric_cols.size()))];
      std::string list = NumericLiteral();
      int extra = 1 + Pick(3);
      for (int i = 0; i < extra; ++i) list += ", " + NumericLiteral();
      if (Chance(10)) list += ", NULL";
      return col(c) + " IN (" + list + ")";
    }
    if (roll < 70) {  // string comparison / BETWEEN
      const char* c = shape.string_cols[Pick(
          static_cast<int>(shape.string_cols.size()))];
      if (Chance(30)) {
        return col(c) + " BETWEEN " + StringLiteral() + " AND " +
               StringLiteral();
      }
      return col(c) + " " + CompareOp() + " " + StringLiteral();
    }
    if (roll < 85) {  // LIKE
      static const char* patterns[] = {"a%",  "ab%", "%b",  "a_",   "_b%",
                                       "a%c", "ab",  "%",   "b\\%", "a_c%",
                                       "zz%", "a%b%"};
      const char* c = shape.string_cols[Pick(
          static_cast<int>(shape.string_cols.size()))];
      return col(c) + " LIKE '" + patterns[Pick(12)] + "'";
    }
    if (roll < 93 || shape.bool_col == nullptr) {  // IS [NOT] NULL
      const char* c = shape.all_cols[Pick(
          static_cast<int>(shape.all_cols.size()))];
      return col(c) + (Chance(50) ? " IS NULL" : " IS NOT NULL");
    }
    return col(shape.bool_col) + " = " + (Chance(50) ? "TRUE" : "FALSE");
  }

  // Generates one SELECT; sets *has_order_by for the canonicalizer.
  std::string Generate(bool* has_order_by) {
    bool join = Chance(30);
    std::string sql = "SELECT ";
    std::vector<std::string> select_items;

    if (join) {
      const std::string lq = "x", rq = "y";
      if (Chance(55)) {
        select_items.push_back("*");
      } else {
        int n = 1 + Pick(3);
        for (int i = 0; i < n; ++i) {
          const TableShape& shape = Chance(50) ? t1_ : t2_;
          const std::string& qual = (&shape == &t1_) ? lq : rq;
          std::string item =
              qual + "." +
              shape.all_cols[Pick(static_cast<int>(shape.all_cols.size()))];
          if (Chance(25)) item += " AS c" + std::to_string(i);
          select_items.push_back(item);
        }
      }
      for (size_t i = 0; i < select_items.size(); ++i) {
        sql += (i ? ", " : "") + select_items[i];
      }
      sql += " FROM t1 x ";
      sql += Chance(40) ? "LEFT JOIN" : "JOIN";
      sql += " t2 y ON ";
      sql += Chance(60) ? "x.a = y.ref" : "x.id = y.id";
      if (Chance(25)) sql += " AND " + Conjunct(t2_, rq);
      if (Chance(70)) {
        int n = 1 + Pick(3);
        sql += " WHERE ";
        for (int i = 0; i < n; ++i) {
          if (i) sql += " AND ";
          sql += Chance(60) ? Conjunct(t1_, lq) : Conjunct(t2_, rq);
        }
      }
      *has_order_by = Chance(50);
      if (*has_order_by) {
        sql += " ORDER BY ";
        int n = 1 + Pick(2);
        for (int i = 0; i < n; ++i) {
          if (i) sql += ", ";
          const TableShape& shape = Chance(50) ? t1_ : t2_;
          const std::string& qual = (&shape == &t1_) ? lq : rq;
          sql += qual + "." +
                 shape.all_cols[Pick(static_cast<int>(shape.all_cols.size()))];
          if (Chance(40)) sql += " DESC";
        }
        if (Chance(30)) sql += " LIMIT " + std::to_string(1 + Pick(20));
      }
      return sql;
    }

    const TableShape& shape = Chance(55) ? t1_ : t2_;
    std::string qual;
    if (Chance(30)) {
      qual = "q";
    }
    bool distinct = false;
    if (Chance(55)) {
      select_items.push_back("*");
    } else {
      distinct = Chance(15);
      if (distinct) sql += "DISTINCT ";
      int n = 1 + Pick(3);
      for (int i = 0; i < n; ++i) {
        std::string item =
            shape.all_cols[Pick(static_cast<int>(shape.all_cols.size()))];
        if (!qual.empty()) item = qual + "." + item;
        if (Chance(25)) item += " AS c" + std::to_string(i);
        select_items.push_back(item);
      }
    }
    for (size_t i = 0; i < select_items.size(); ++i) {
      sql += (i ? ", " : "") + select_items[i];
    }
    sql += std::string(" FROM ") + shape.name;
    if (!qual.empty()) sql += " " + qual;
    if (Chance(75)) {
      int n = 1 + Pick(3);
      sql += " WHERE ";
      for (int i = 0; i < n; ++i) {
        if (i) sql += " AND ";
        sql += Conjunct(shape, qual);
      }
    }
    *has_order_by = !distinct && Chance(50);
    if (*has_order_by) {
      sql += " ORDER BY ";
      if (select_items[0] != "*" && Chance(30)) {
        sql += std::to_string(1 + Pick(static_cast<int>(select_items.size())));
      } else {
        std::string item =
            shape.all_cols[Pick(static_cast<int>(shape.all_cols.size()))];
        sql += qual.empty() ? item : qual + "." + item;
      }
      if (Chance(40)) sql += " DESC";
      if (Chance(40)) {
        sql += ", ";
        std::string item =
            shape.all_cols[Pick(static_cast<int>(shape.all_cols.size()))];
        sql += qual.empty() ? item : qual + "." + item;
      }
      if (Chance(30)) sql += " LIMIT " + std::to_string(1 + Pick(20));
    }
    return sql;
  }

 private:
  std::mt19937 rng_;
  TableShape t1_;
  TableShape t2_;
};

void PopulateSchema(Database& db) {
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t1 (id INTEGER PRIMARY KEY, a INTEGER, b DOUBLE,
                     s VARCHAR(10), flag BOOLEAN);
    CREATE TABLE t2 (id INTEGER PRIMARY KEY, ref INTEGER, v INTEGER,
                     w VARCHAR(10));
    CREATE INDEX idx_t1_a ON t1 (a);
    CREATE INDEX idx_t1_s ON t1 (s);
    CREATE INDEX idx_t1_ab ON t1 (a, b);
    CREATE INDEX idx_t2_ref ON t2 (ref);
  )sql")
                  .ok());
  // Deterministic, collision-heavy data with ~15% NULLs per nullable
  // column; string domain overlaps the fuzzer's literal pool and
  // includes literal '%' and '_' characters.
  static const char* strings[] = {"a",  "ab", "abc", "a%", "b_c",
                                  "ba", "c",  "",    "zz", "AB"};
  for (int i = 0; i < 200; ++i) {
    std::string a = (i % 7 == 3) ? "NULL" : std::to_string(i % 10);
    std::string b = (i % 13 == 5)
                        ? "NULL"
                        : std::to_string(i % 19) + "." + ((i % 2) ? "5" : "0");
    std::string s =
        (i % 11 == 7) ? "NULL" : "'" + std::string(strings[i % 10]) + "'";
    std::string flag = (i % 3 == 0) ? "TRUE" : (i % 3 == 1) ? "FALSE" : "NULL";
    ASSERT_TRUE(db.Execute("INSERT INTO t1 VALUES (" + std::to_string(i) +
                           ", " + a + ", " + b + ", " + s + ", " + flag + ")")
                    .ok());
  }
  for (int i = 0; i < 150; ++i) {
    std::string ref = (i % 9 == 4) ? "NULL" : std::to_string(i % 10);
    std::string v = std::to_string(i % 50);
    std::string w =
        (i % 8 == 2) ? "NULL" : "'" + std::string(strings[(i * 3) % 10]) + "'";
    ASSERT_TRUE(db.Execute("INSERT INTO t2 VALUES (" + std::to_string(i) +
                           ", " + ref + ", " + v + ", " + w + ")")
                    .ok());
  }
}

TEST(SqlFuzzTest, OptimizedPlansMatchScanSemanticsOn600RandomQueries) {
  Database db("fuzz");
  ASSERT_NO_FATAL_FAILURE(PopulateSchema(db));
  Fuzzer fuzz(kSeed);

  uint64_t scans = CounterValue("sql.plan.scan");
  uint64_t lookups = CounterValue("sql.plan.index_lookup");
  uint64_t ranges = CounterValue("sql.plan.range_scan");
  uint64_t hash_joins = CounterValue("sql.plan.hash_join");
  uint64_t pushdowns = CounterValue("sql.plan.pushdown");
  uint64_t batches = CounterValue("sql.plan.batch");

  struct Config {
    const char* label;
    bool optimizer;
  };
  static const Config kConfigs[] = {{"scan", false}, {"optimized", true}};

  int mismatches = 0;
  for (int q = 0; q < kQueryCount; ++q) {
    bool has_order_by = false;
    std::string sql = fuzz.Generate(&has_order_by);

    const std::string expected =
        Canonical(ReferenceSelect(&db, sql), has_order_by);
    for (const Config& config : kConfigs) {
      db.set_optimizer_enabled(config.optimizer);
      const std::string got = Canonical(db.Execute(sql), has_order_by);
      if (got != expected) {
        ADD_FAILURE() << "differential mismatch (seed=" << kSeed
                      << ", query #" << q << ", " << config.label
                      << " vs reference)\n  SQL: " << sql << "\n--- "
                      << config.label << " ---\n"
                      << got << "--- reference ---\n" << expected;
        ++mismatches;
      }
    }
    db.set_optimizer_enabled(true);
    if (mismatches >= 5) break;  // enough to debug; stop the flood
  }
  EXPECT_EQ(mismatches, 0);

  // The run must have exercised every access path, and every SELECT the
  // columnar pipeline, or the fuzz grammar has silently stopped covering
  // the planner.
  EXPECT_GT(CounterValue("sql.plan.scan"), scans);
  EXPECT_GT(CounterValue("sql.plan.index_lookup"), lookups);
  EXPECT_GT(CounterValue("sql.plan.range_scan"), ranges);
  EXPECT_GT(CounterValue("sql.plan.hash_join"), hash_joins);
  EXPECT_GT(CounterValue("sql.plan.pushdown"), pushdowns);
  EXPECT_GT(CounterValue("sql.plan.batch"), batches);
}

// Concurrent differential mode: the same 600-query corpus replayed by
// four connections at once, each inside explicit read-only transactions
// (a fresh snapshot every 25 queries). Nothing writes, so every
// connection must reproduce the single-threaded oracle byte-for-byte —
// any divergence means snapshot reads, the shared plan cache, or the
// statement latch corrupted a result under concurrency.
TEST(SqlFuzzTest, ConcurrentReplayMatchesSingleThreadedOracle) {
  Database db("fuzz-conc");
  ASSERT_NO_FATAL_FAILURE(PopulateSchema(db));
  Fuzzer fuzz(kSeed);

  std::vector<std::string> corpus;
  std::vector<bool> ordered;
  std::vector<std::string> oracle;
  corpus.reserve(kQueryCount);
  oracle.reserve(kQueryCount);
  for (int q = 0; q < kQueryCount; ++q) {
    bool has_order_by = false;
    corpus.push_back(fuzz.Generate(&has_order_by));
    ordered.push_back(has_order_by);
  }
  // Single-threaded oracle on the primary connection.
  for (int q = 0; q < kQueryCount; ++q) {
    oracle.push_back(Canonical(db.Execute(corpus[q]), ordered[q]));
  }

  constexpr int kThreads = 4;
  struct Mismatch {
    int query = -1;
    std::string got;
  };
  // One slot per thread; threads never touch each other's slot, and no
  // gtest assertions run off the main thread.
  std::vector<Mismatch> mismatches(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::shared_ptr<Database> conn = db.CreateConnection();
      for (int q = 0; q < kQueryCount; ++q) {
        if (q % 25 == 0) {
          if (q > 0 && !conn->Execute("COMMIT").ok()) return;
          if (!conn->Execute("BEGIN").ok()) return;
        }
        std::string got = Canonical(conn->Execute(corpus[q]), ordered[q]);
        if (got != oracle[q] && mismatches[t].query < 0) {
          mismatches[t].query = q;
          mismatches[t].got = got;
        }
      }
      (void)conn->Execute("COMMIT");
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    if (mismatches[t].query < 0) continue;
    int q = mismatches[t].query;
    ADD_FAILURE() << "concurrent replay mismatch (seed=" << kSeed
                  << ", thread " << t << ", query #" << q
                  << ")\n  SQL: " << corpus[q] << "\n--- concurrent ---\n"
                  << mismatches[t].got << "--- oracle ---\n" << oracle[q];
  }
}

// Durability differential: a seeded write workload of explicit
// transactions interleaved across three connections — random
// commit/rollback endings, write-write conflicts left in wherever the
// interleaving produces them — against a WAL-backed database. The log
// is committed-effects-only, so recovering into a fresh image must
// reproduce the live post-workload state byte-for-byte: a rolled-back
// or conflict-aborted transaction that leaks a record into the log, or
// a committed one that misses it, shows up as a dump divergence.
TEST(SqlFuzzTest, CrossConnectionTransactionsReplayCommittedEffectsOnly) {
  std::string dir = testing::TempDir() + "/sqlflow_fuzz_wal";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  Database db("fuzz-dur");
  ASSERT_TRUE(db.EnableDurability(dir).ok());
  ASSERT_NO_FATAL_FAILURE(PopulateSchema(db));

  std::mt19937 rng(kSeed ^ 0x9E3779B9u);
  auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };

  constexpr int kConns = 3;
  std::vector<std::shared_ptr<Database>> conns;
  for (int i = 0; i < kConns; ++i) conns.push_back(db.CreateConnection());

  int next_id = 1000;
  int committed_txns = 0;
  int discarded_txns = 0;
  for (int round = 0; round < 40; ++round) {
    for (auto& conn : conns) ASSERT_TRUE(conn->Execute("BEGIN").ok());
    // Interleave statements round-robin so transactions overlap; their
    // outcomes (including conflict aborts) are whatever MVCC decides —
    // the differential only cares that the log agrees with the result.
    for (int step = 0; step < 4; ++step) {
      for (int c = 0; c < kConns; ++c) {
        if (pick(100) < 25) continue;
        std::string sql;
        switch (pick(4)) {
          case 0:
            sql = "INSERT INTO t1 VALUES (" + std::to_string(next_id++) +
                  ", " + std::to_string(pick(10)) + ", " +
                  std::to_string(pick(9)) + ".5, 'x', TRUE)";
            break;
          case 1: {
            int lo = pick(140);
            sql = "UPDATE t2 SET v = v + 1 WHERE id BETWEEN " +
                  std::to_string(lo) + " AND " + std::to_string(lo + 4);
            break;
          }
          case 2:
            sql = "DELETE FROM t2 WHERE id = " + std::to_string(pick(150));
            break;
          default:
            sql = "UPDATE t1 SET b = " + std::to_string(pick(20)) +
                  ".0 WHERE id = " + std::to_string(pick(200));
            break;
        }
        (void)conns[c]->Execute(sql);
      }
    }
    for (int c = 0; c < kConns; ++c) {
      if (pick(100) < 70) {
        if (conns[c]->Execute("COMMIT").ok()) {
          ++committed_txns;
        } else {
          ++discarded_txns;  // first-committer-wins conflict
        }
      } else {
        (void)conns[c]->Execute("ROLLBACK");
        ++discarded_txns;
      }
    }
  }
  // The sweep must have produced both regimes to mean anything.
  EXPECT_GT(committed_txns, 0);
  EXPECT_GT(discarded_txns, 0);

  std::string live = CanonicalStateDump(db);
  auto recovered = Database::Recover("fuzz-rec", dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(CanonicalStateDump(**recovered), live)
      << "recovered image diverges from the live post-workload state "
         "(seed=" << kSeed << ")";
}

}  // namespace
}  // namespace sqlflow::sql
