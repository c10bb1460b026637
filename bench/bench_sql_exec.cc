// SELECT pipeline throughput over a 1M-row audit-events-shaped table:
// a scan-heavy global aggregate, a grouped aggregate, a selective
// full-scan filter, a join-aggregate rollup to the instances dimension,
// and the process-mining directly-follows self-join, each through the
// columnar pipeline that runs every SELECT.
//
// Writes BENCH_sql_exec.json (ns/op per workload, plus evidence that
// the sql.plan.batch counter grew) on a full run; `--quick` shrinks the
// table 50x and runs a smoke pass with minimal iteration counts,
// skipping the JSON.

#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "sql/database.h"

namespace sqlflow {
namespace {

using sql::Database;
using sql::Params;

bool g_quick = false;

constexpr int kEventsPerInstance = 20;
constexpr const char* kActivities[] = {"receive", "validate", "enrich",
                                       "approve", "invoke",   "compensate",
                                       "notify",  "archive"};
constexpr const char* kStatuses[] = {"ok", "ok", "ok", "ok", "retried",
                                     "failed"};

// Audit-events shape (mirrors sys.audit_events): one row per executed
// workflow step, `nxt = seq + 1` materialized so the directly-follows
// self-join hash-keys on (instance_id, seq) pairs instead of exploding
// per-instance cross products.
std::unique_ptr<Database> MakeDb(int rows) {
  auto db = std::make_unique<Database>("bench_exec");
  bench::CheckOk(db->ExecuteScript(R"sql(
    CREATE TABLE audit_events (id INTEGER PRIMARY KEY,
                               instance_id INTEGER, seq INTEGER,
                               nxt INTEGER, activity VARCHAR(16),
                               status VARCHAR(8), duration_ms INTEGER);
    CREATE TABLE instances (id INTEGER PRIMARY KEY,
                            workflow VARCHAR(16));
  )sql"),
                "create schema");
  const int instances = rows / kEventsPerInstance;
  auto ins_i = bench::ValueOrDie(
      db->Prepare("INSERT INTO instances VALUES (?, ?)"), "prepare inst");
  for (int i = 0; i < instances; ++i) {
    Params p;
    p.Add(Value::Integer(i));
    p.Add(Value::String("wf-" + std::to_string(i % 12)));
    bench::CheckOk(ins_i.Execute(p).status(), "insert inst");
  }
  auto ins_e = bench::ValueOrDie(
      db->Prepare("INSERT INTO audit_events VALUES (?, ?, ?, ?, ?, ?, ?)"),
      "prepare event");
  for (int i = 0; i < rows; ++i) {
    const int inst = i / kEventsPerInstance;
    const int seq = i % kEventsPerInstance;
    Params p;
    p.Add(Value::Integer(i));
    p.Add(Value::Integer(inst));
    p.Add(Value::Integer(seq));
    p.Add(Value::Integer(seq + 1));
    p.Add(Value::String(kActivities[(inst + seq) % 8]));
    p.Add(Value::String(kStatuses[(i * 2654435761u) % 6]));
    p.Add(Value::Integer(1 + (i * 7919) % 500));
    bench::CheckOk(ins_e.Execute(p).status(), "insert event");
  }
  return db;
}

// The 1M-row fixture takes seconds to seed; benchmarks share one
// instance per size (single-threaded, read-only after seeding).
Database& SharedDb(int rows) {
  static std::map<int, std::unique_ptr<Database>> dbs;
  auto it = dbs.find(rows);
  if (it == dbs.end()) it = dbs.emplace(rows, MakeDb(rows)).first;
  return *it->second;
}

// Nominal row count from the Args, shrunk 50x under --quick so the
// check.sh smoke pass stays fast.
int EffectiveRows(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  return g_quick ? rows / 50 : rows;
}

void RunQuery(benchmark::State& state, const char* sql, const char* label) {
  Database& db = SharedDb(EffectiveRows(state));
  for (auto _ : state) {
    auto rs = db.Execute(sql);
    bench::CheckOk(rs.status(), label);
    benchmark::DoNotOptimize(rs->row_count());
  }
  state.SetLabel(label);
  state.SetItemsProcessed(state.iterations() * EffectiveRows(state));
}

// Scan-heavy global aggregate: every row feeds the accumulators, no
// grouping hash in the way. The purest measure of per-row dispatch
// cost.
const char* kScanAggQuery =
    "SELECT COUNT(*), SUM(duration_ms), AVG(duration_ms), "
    "MIN(duration_ms), MAX(duration_ms) FROM audit_events";

void BM_ScanAggregate(benchmark::State& state) {
  RunQuery(state, kScanAggQuery, "scan_aggregate");
}
BENCHMARK(BM_ScanAggregate)
    ->ArgNames({"rows"})
    ->Args({100000})
    ->Args({1000000})
    ->Unit(benchmark::kMillisecond);

// Grouped variant: same scan, but every row also probes the grouping
// hash on a string key.
const char* kGroupAggQuery =
    "SELECT status, COUNT(*), SUM(duration_ms), AVG(duration_ms) "
    "FROM audit_events GROUP BY status";

void BM_GroupAggregate(benchmark::State& state) {
  RunQuery(state, kGroupAggQuery, "group_aggregate");
}
BENCHMARK(BM_GroupAggregate)
    ->ArgNames({"rows"})
    ->Args({1000000})
    ->Unit(benchmark::kMillisecond);

// Selective filter over an unindexed column: ~2% survive, so the cost
// is pure predicate evaluation plus compaction.
const char* kFilterQuery =
    "SELECT id, activity FROM audit_events "
    "WHERE duration_ms > 490 AND status = 'ok'";

void BM_SelectiveFilter(benchmark::State& state) {
  RunQuery(state, kFilterQuery, "selective_filter");
}
BENCHMARK(BM_SelectiveFilter)
    ->ArgNames({"rows"})
    ->Args({1000000})
    ->Unit(benchmark::kMillisecond);

// Join-aggregate: roll events up to the workflow dimension through the
// hash join, then aggregate.
const char* kJoinAggQuery =
    "SELECT i.workflow, COUNT(*), AVG(e.duration_ms) "
    "FROM audit_events e JOIN instances i ON e.instance_id = i.id "
    "GROUP BY i.workflow";

void BM_JoinAggregate(benchmark::State& state) {
  RunQuery(state, kJoinAggQuery, "join_aggregate");
}
BENCHMARK(BM_JoinAggregate)
    ->ArgNames({"rows"})
    ->Args({200000})
    ->Unit(benchmark::kMillisecond);

// Directly-follows relation (process mining over the audit trail): for
// every instance, which activity follows which. The materialized `nxt`
// column keeps the self-join an equi-join on (instance_id, seq).
const char* kDirectlyFollowsQuery =
    "SELECT a.activity, b.activity, COUNT(*) "
    "FROM audit_events a JOIN audit_events b "
    "ON a.instance_id = b.instance_id AND a.nxt = b.seq "
    "GROUP BY a.activity, b.activity";

void BM_DirectlyFollows(benchmark::State& state) {
  RunQuery(state, kDirectlyFollowsQuery, "directly_follows");
}
BENCHMARK(BM_DirectlyFollows)
    ->ArgNames({"rows"})
    ->Args({200000})
    ->Unit(benchmark::kMillisecond);

/// Console reporter that also captures per-run ns/op so main() can emit
/// the summary as JSON.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      ns_per_op_[run.benchmark_name()] =
          run.GetAdjustedRealTime() *
          (run.time_unit == benchmark::kMillisecond ? 1e6 : 1.0);
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

uint64_t BatchCounter() {
  return obs::MetricsRegistry::Global().GetCounter("sql.plan.batch").value();
}

// Proves the measurements above ran the columnar pipeline: one
// execution must bump sql.plan.batch.
void CheckBatchPathTaken() {
  Database& db = SharedDb(g_quick ? 100000 / 50 : 100000);
  uint64_t before = BatchCounter();
  bench::CheckOk(db.Execute(kScanAggQuery).status(), "batch evidence");
  if (BatchCounter() <= before) {
    std::fprintf(stderr,
                 "bench invariant failed: sql.plan.batch did not grow — "
                 "the vectorized pipeline never ran\n");
    std::abort();
  }
}

void WriteJson(const CapturingReporter& reporter, const char* path) {
  struct Workload {
    const char* bm;
    const char* name;
    std::vector<int> sizes;
  };
  const std::vector<Workload> workloads = {
      {"BM_ScanAggregate", "scan_aggregate", {100000, 1000000}},
      {"BM_GroupAggregate", "group_aggregate", {1000000}},
      {"BM_SelectiveFilter", "selective_filter", {1000000}},
      {"BM_JoinAggregate", "join_aggregate", {200000}},
      {"BM_DirectlyFollows", "directly_follows", {200000}},
  };
  std::ofstream out(path);
  out << "{\n  \"bench\": \"sql_exec\",\n  \"results\": [\n";
  bool first = true;
  for (const Workload& w : workloads) {
    for (int rows : w.sizes) {
      double ns = reporter.NsPerOp(std::string(w.bm) + "/rows:" +
                                   std::to_string(rows));
      if (ns == 0.0) continue;
      if (!first) out << ",\n";
      first = false;
      out << "    {\"workload\": \"" << w.name << "\", \"rows\": " << rows
          << ", \"ns_per_op\": " << ns << "}";
    }
  }
  out << "\n  ],\n"
      << "  \"batch_evidence\": {\"counter\": \"sql.plan.batch\", "
      << "\"grew\": true}\n}\n";
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace sqlflow

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--quick") == 0) {
      sqlflow::g_quick = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  if (sqlflow::g_quick) args.push_back(min_time);
  int adjusted_argc = static_cast<int>(args.size());

  sqlflow::bench::PrintBanner(
      "SQL SELECT pipeline — columnar scan/filter/join/aggregate",
      "1024-row vectorized windows amortize per-row dispatch across "
      "scan, filter, join and aggregate stages, with the audit-trail "
      "directly-follows rollup riding the same pipeline");
  benchmark::Initialize(&adjusted_argc, args.data());
  sqlflow::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  sqlflow::CheckBatchPathTaken();
  if (!sqlflow::g_quick) sqlflow::WriteJson(reporter, "BENCH_sql_exec.json");
  return 0;
}
