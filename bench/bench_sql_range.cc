// Range-access ablation: bounded ordered-index scans, ORDER BY served
// from index order, and WHERE pushdown below hash joins, versus the
// full-scan / sort / unfiltered-build baselines at 100 / 1k / 10k rows.
//
// Also sweeps one-row write cost over table size (10k / 100k / 1M rows,
// served_point's KV schema), in single-thread mode and in concurrent
// (MVCC) mode: a one-row UPDATE must cost about the same at any size.
//
// Writes BENCH_sql_range.json (scan-vs-indexed speedups per workload,
// a rows_read shrink measurement proving pushdown cuts the join's
// build input, and the write_sweep rows) on a full run; `--quick` runs a
// smoke pass with minimal iteration counts, sweeps 10k rows only and
// skips the JSON.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sql/database.h"

namespace sqlflow {
namespace {

using sql::Database;
using sql::Params;

constexpr int kDeptCount = 64;

// Seeds `rows` employees with distinct ascending salaries so a BETWEEN
// window of width rows/100 selects ~1% of the table. Optimization is
// toggled per measurement through set_optimizer_enabled.
std::unique_ptr<Database> MakeDb(int rows) {
  auto db = std::make_unique<Database>("bench_range");
  bench::CheckOk(db->ExecuteScript(R"sql(
    CREATE TABLE emp (id INTEGER PRIMARY KEY, dept INTEGER,
                      name VARCHAR(24), salary DOUBLE);
    CREATE TABLE dept (id INTEGER PRIMARY KEY, title VARCHAR(24));
    CREATE INDEX idx_emp_salary ON emp (salary);
  )sql"),
                "create schema");
  auto ins_dept = bench::ValueOrDie(
      db->Prepare("INSERT INTO dept VALUES (?, ?)"), "prepare dept");
  for (int d = 0; d < kDeptCount; ++d) {
    Params p;
    p.Add(Value::Integer(d));
    p.Add(Value::String("dept-" + std::to_string(d)));
    bench::CheckOk(ins_dept.Execute(p).status(), "insert dept");
  }
  auto ins_emp = bench::ValueOrDie(
      db->Prepare("INSERT INTO emp VALUES (?, ?, ?, ?)"), "prepare emp");
  for (int i = 0; i < rows; ++i) {
    Params p;
    p.Add(Value::Integer(i));
    p.Add(Value::Integer((i * 7919) % kDeptCount));
    p.Add(Value::String("emp-" + std::to_string(i)));
    p.Add(Value::Double(1000.0 + i));
    bench::CheckOk(ins_emp.Execute(p).status(), "insert emp");
  }
  return db;
}

// Selective BETWEEN over the salary index: ~1% of rows per query.
void BM_RangeScan(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  auto db = MakeDb(rows);
  db->set_optimizer_enabled(indexed);
  auto query = bench::ValueOrDie(
      db->Prepare("SELECT name FROM emp WHERE salary BETWEEN ? AND ?"),
      "prepare range");
  const int width = rows / 100 > 0 ? rows / 100 : 1;
  int64_t i = 0;
  for (auto _ : state) {
    double lo = 1000.0 + static_cast<double>((++i * 7919) % (rows - width));
    Params p;
    p.Add(Value::Double(lo));
    p.Add(Value::Double(lo + width));
    auto rs = query.Execute(p);
    bench::CheckOk(rs.status(), "range");
    benchmark::DoNotOptimize(rs->row_count());
  }
  state.SetLabel(indexed ? "range_scan" : "scan");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeScan)
    ->ArgNames({"rows", "indexed"})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMicrosecond);

// ORDER BY over an indexed column: ordered traversal versus sort.
void BM_OrderByIndex(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  auto db = MakeDb(rows);
  db->set_optimizer_enabled(indexed);
  const char* q = "SELECT name, salary FROM emp ORDER BY salary LIMIT 10";
  for (auto _ : state) {
    auto rs = db->Execute(q);
    bench::CheckOk(rs.status(), "order by");
    benchmark::DoNotOptimize(rs->row_count());
  }
  state.SetLabel(indexed ? "index_order" : "sort");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrderByIndex)
    ->ArgNames({"rows", "indexed"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMicrosecond);

// Selective single-table predicate below a hash join: pushdown shrinks
// the emp side to ~1% before the join runs.
const char* kPushdownQuery =
    "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept = d.id "
    "WHERE e.salary BETWEEN 1000 AND 1099";

void BM_PushdownJoin(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const bool indexed = state.range(1) != 0;
  auto db = MakeDb(rows);
  db->set_optimizer_enabled(indexed);
  for (auto _ : state) {
    auto rs = db->Execute(kPushdownQuery);
    bench::CheckOk(rs.status(), "pushdown join");
    benchmark::DoNotOptimize(rs->row_count());
  }
  state.SetLabel(indexed ? "pushdown" : "filter_after_join");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PushdownJoin)
    ->ArgNames({"rows", "indexed"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMicrosecond);

/// Console reporter that also captures per-run ns/op so main() can emit
/// the scan-vs-indexed speedup summary as JSON.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      ns_per_op_[run.benchmark_name()] =
          run.GetAdjustedRealTime() *
          (run.time_unit == benchmark::kMicrosecond ? 1e3 : 1.0);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  double NsPerOp(const std::string& name) const {
    auto it = ns_per_op_.find(name);
    return it == ns_per_op_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> ns_per_op_;
};

// --- table-size write sweep -------------------------------------------------
// A prepared one-row UPDATE on a random key, and a one-row DELETE
// followed by a re-INSERT of the same key (so the table size stays put),
// timed one statement at a time. Each size is measured in single-thread
// mode and again after CreateConnection() switches the database to
// concurrent mode, where every autocommit write runs in an implicit MVCC
// transaction: the gate is that this mode adds no O(table) bookkeeping.
// The sizes are measured in interleaved rounds, so a slow spell on a
// shared host lands on all of them alike. DELETE still shifts every
// later row slot, so its cost grows with the table; it is reported, not
// gated.

struct SweepRow {
  int rows = 0;
  const char* mode = "";
  const char* op = "";
  std::vector<double> samples_us;
  double median_us = 0;
  // The highest percentile with at least ten samples beyond it (0 when
  // there are too few samples for a tail).
  int tail_pct = 0;
  double tail_us = 0;
};

std::unique_ptr<Database> MakeKvDb(int rows) {
  auto db = std::make_unique<Database>("bench_write_sweep");
  bench::CheckOk(db->ExecuteScript(
                     "CREATE TABLE KV (K INTEGER PRIMARY KEY, G INTEGER, "
                     "V VARCHAR(32)); CREATE INDEX KV_G ON KV (G)"),
                 "create KV");
  auto insert = bench::ValueOrDie(
      db->Prepare("INSERT INTO KV (K, G, V) VALUES (?, ?, ?)"),
      "prepare KV insert");
  for (int k = 0; k < rows; ++k) {
    Params p;
    p.Add(Value::Integer(k));
    p.Add(Value::Integer((k * 7919) % 1000));
    p.Add(Value::String(std::to_string(k) + ":0"));
    bench::CheckOk(insert.Execute(p).status(), "load KV");
  }
  return db;
}

/// One KV table of the sweep with its prepared statements.
struct SweepTable {
  explicit SweepTable(int n)
      : rows(n),
        db(MakeKvDb(n)),
        update(bench::ValueOrDie(
            db->Prepare("UPDATE KV SET V = ? WHERE K = ?"), "prepare update")),
        del(bench::ValueOrDie(db->Prepare("DELETE FROM KV WHERE K = ?"),
                              "prepare delete")),
        insert(bench::ValueOrDie(
            db->Prepare("INSERT INTO KV (K, G, V) VALUES (?, ?, ?)"),
            "prepare reinsert")),
        rng(0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(n)) {}

  int64_t RandomKey() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((rng >> 33) % static_cast<uint64_t>(rows));
  }

  int rows;
  std::unique_ptr<Database> db;
  sql::PreparedStatement update;
  sql::PreparedStatement del;
  sql::PreparedStatement insert;
  uint64_t rng;
  // Kept alive so the database stays in concurrent mode.
  std::shared_ptr<Database> connection;
};

void CheckOneRow(const Result<sql::ResultSet>& rs, const char* what) {
  bench::CheckOk(rs.status(), what);
  if (rs->affected_rows() != 1) {
    std::fprintf(stderr, "write sweep: %s affected %lld rows, not 1\n",
                 what, static_cast<long long>(rs->affected_rows()));
    std::abort();
  }
}

void Summarize(SweepRow* row) {
  std::vector<double>& s = row->samples_us;
  std::sort(s.begin(), s.end());
  row->median_us = s[s.size() / 2];
  for (int pct : {99, 90}) {
    if (s.size() * static_cast<size_t>(100 - pct) >= 1000) {
      row->tail_pct = pct;
      row->tail_us = s[s.size() * static_cast<size_t>(pct) / 100];
      break;
    }
  }
}

std::vector<SweepRow> RunWriteSweep(bool quick) {
  using Clock = std::chrono::steady_clock;
  auto us_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
  };
  constexpr int kRounds = 10;
  std::vector<std::unique_ptr<SweepTable>> tables;
  for (int rows : quick ? std::vector<int>{10000}
                        : std::vector<int>{10000, 100000, 1000000}) {
    tables.push_back(std::make_unique<SweepTable>(rows));
  }
  std::vector<SweepRow> out;
  for (const char* mode : {"single_thread", "concurrent"}) {
    if (std::strcmp(mode, "concurrent") == 0) {
      for (auto& t : tables) t->connection = t->db->CreateConnection();
    }
    const size_t first = out.size();
    for (auto& t : tables) out.push_back({t->rows, mode, "update"});
    for (auto& t : tables) out.push_back({t->rows, mode, "delete_reinsert"});
    const size_t n = tables.size();
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < n; ++i) {
        SweepTable& t = *tables[i];
        const int runs = (quick ? 200 : 2000) / kRounds;
        for (int r = 0; r < runs; ++r) {
          const int64_t k = t.RandomKey();
          Params p;
          p.Add(Value::String(std::to_string(k) + ":" +
                              std::to_string(round * runs + r)));
          p.Add(Value::Integer(k));
          const auto start = Clock::now();
          auto rs = t.update.Execute(p);
          out[first + i].samples_us.push_back(us_since(start));
          CheckOneRow(rs, "update");
        }
      }
      for (size_t i = 0; i < n; ++i) {
        SweepTable& t = *tables[i];
        const int runs = (quick               ? 50
                          : t.rows >= 1000000 ? 100
                          : t.rows >= 100000  ? 500
                                              : 2000) /
                         kRounds;
        for (int r = 0; r < runs; ++r) {
          const int64_t k = t.RandomKey();
          Params key;
          key.Add(Value::Integer(k));
          Params row;
          row.Add(Value::Integer(k));
          row.Add(Value::Integer((k * 7919) % 1000));
          row.Add(Value::String(std::to_string(k) + ":0"));
          const auto start = Clock::now();
          auto deleted = t.del.Execute(key);
          auto reinserted = t.insert.Execute(row);
          out[first + n + i].samples_us.push_back(us_since(start));
          CheckOneRow(deleted, "delete");
          CheckOneRow(reinserted, "reinsert");
        }
      }
    }
  }
  std::printf("\nwrite sweep (us per one-row statement; DELETE+INSERT pairs)\n");
  std::printf("%10s %-14s %-16s %6s %10s %10s\n", "rows", "mode", "op",
              "runs", "median_us", "tail_us");
  for (SweepRow& r : out) {
    Summarize(&r);
    std::printf("%10d %-14s %-16s %6zu %10.2f %6.2f p%d\n", r.rows, r.mode,
                r.op, r.samples_us.size(), r.median_us, r.tail_us,
                r.tail_pct);
  }
  return out;
}

double SweepMedian(const std::vector<SweepRow>& sweep, int rows,
                   const char* mode) {
  for (const SweepRow& r : sweep) {
    if (r.rows == rows && std::strcmp(r.mode, mode) == 0 &&
        std::strcmp(r.op, "update") == 0) {
      return r.median_us;
    }
  }
  return 0;
}

// The UPDATE gate: in concurrent mode the largest table costs at most 2x
// the smallest, and every size stays within 2x of single-thread mode.
struct SweepGate {
  double largest_over_smallest = 0;
  double worst_concurrent_over_single = 0;
  bool pass = false;
};

SweepGate EvaluateSweep(const std::vector<SweepRow>& sweep) {
  SweepGate gate;
  int smallest = sweep.front().rows;
  int largest = smallest;
  for (const SweepRow& r : sweep) largest = std::max(largest, r.rows);
  gate.largest_over_smallest = SweepMedian(sweep, largest, "concurrent") /
                               SweepMedian(sweep, smallest, "concurrent");
  for (const SweepRow& r : sweep) {
    gate.worst_concurrent_over_single =
        std::max(gate.worst_concurrent_over_single,
                 SweepMedian(sweep, r.rows, "concurrent") /
                     SweepMedian(sweep, r.rows, "single_thread"));
  }
  gate.pass = gate.largest_over_smallest <= 2.0 &&
              gate.worst_concurrent_over_single <= 2.0;
  std::printf("update gate: %d/%d rows %.2fx, concurrent/single worst "
              "%.2fx -> %s\n",
              largest, smallest, gate.largest_over_smallest,
              gate.worst_concurrent_over_single, gate.pass ? "pass" : "FAIL");
  return gate;
}

// Executes `sql` once and reports how many rows the executor had to
// materialize — the direct evidence that pushdown shrinks join input.
uint64_t RowsReadOnce(Database& db, const char* sql) {
  uint64_t before = db.stats().rows_read;
  bench::CheckOk(db.Execute(sql).status(), "rows_read probe");
  return db.stats().rows_read - before;
}

void WriteJson(const CapturingReporter& reporter,
               const std::vector<SweepRow>& sweep, const SweepGate& gate,
               const char* path) {
  auto pair_name = [](const char* bm, int rows, int indexed) {
    return std::string(bm) + "/rows:" + std::to_string(rows) +
           "/indexed:" + std::to_string(indexed);
  };
  auto workload = [](const char* bm) {
    if (std::strcmp(bm, "BM_RangeScan") == 0) return "range_scan";
    if (std::strcmp(bm, "BM_OrderByIndex") == 0) return "order_by";
    return "pushdown_join";
  };
  std::ofstream out(path);
  out << "{\n  \"bench\": \"sql_range\",\n  \"comparisons\": [\n";
  bool first = true;
  for (const char* bm :
       {"BM_RangeScan", "BM_OrderByIndex", "BM_PushdownJoin"}) {
    for (int rows : {100, 1000, 10000}) {
      double scan = reporter.NsPerOp(pair_name(bm, rows, 0));
      double indexed = reporter.NsPerOp(pair_name(bm, rows, 1));
      if (scan == 0.0 || indexed == 0.0) continue;
      if (!first) out << ",\n";
      first = false;
      out << "    {\"workload\": \"" << workload(bm)
          << "\", \"rows\": " << rows << ", \"scan_ns_per_op\": " << scan
          << ", \"indexed_ns_per_op\": " << indexed
          << ", \"speedup\": " << scan / indexed << "}";
    }
  }
  out << "\n  ],\n";
  // One-off rows_read measurement: with pushdown the join materializes
  // only the ~1% of emp inside the window (plus dept), without it the
  // whole emp table feeds the join.
  {
    auto db = MakeDb(10000);
    db->set_optimizer_enabled(true);
    uint64_t optimized = RowsReadOnce(*db, kPushdownQuery);
    db->set_optimizer_enabled(false);
    uint64_t scan = RowsReadOnce(*db, kPushdownQuery);
    out << "  \"pushdown_evidence\": {\"rows\": 10000"
        << ", \"optimized_rows_read\": " << optimized
        << ", \"scan_rows_read\": " << scan
        << ", \"build_input_shrink\": "
        << static_cast<double>(scan) /
               static_cast<double>(optimized ? optimized : 1)
        << "},\n";
  }
  out << "  \"write_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    out << "    {\"rows\": " << r.rows << ", \"mode\": \"" << r.mode
        << "\", \"op\": \"" << r.op
        << "\", \"runs\": " << r.samples_us.size()
        << ", \"median_us\": " << r.median_us << ", \"tail_pct\": "
        << r.tail_pct << ", \"tail_us\": " << r.tail_us << "}"
        << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"write_sweep_gate\": {\"update_largest_over_smallest\": "
      << gate.largest_over_smallest
      << ", \"update_worst_concurrent_over_single\": "
      << gate.worst_concurrent_over_single
      << ", \"pass\": " << (gate.pass ? "true" : "false") << "}\n";
  out << "}\n";
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace sqlflow

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--quick") == 0) {
      quick = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  if (quick) args.push_back(min_time);
  int adjusted_argc = static_cast<int>(args.size());

  sqlflow::bench::PrintBanner(
      "SQL range access — bounded index scans, ordered output, pushdown",
      "selective BETWEEN windows resolve through the ordered index "
      "(>=10x over scans at 10k rows); ORDER BY rides index order; "
      "pushdown shrinks hash-join build input to the selected slice");
  benchmark::Initialize(&adjusted_argc, args.data());
  sqlflow::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const auto sweep = sqlflow::RunWriteSweep(quick);
  const sqlflow::SweepGate gate = sqlflow::EvaluateSweep(sweep);
  if (!quick) {
    sqlflow::WriteJson(reporter, sweep, gate, "BENCH_sql_range.json");
  }
  // Timing gates only bind the full sweep; the smoke run checks that
  // every statement touched exactly one row.
  return quick || gate.pass ? 0 : 1;
}
