// The run skeleton shared by every workload: repeated set-up, the timed
// closed loop, counter deltas, recovery timing, the layer replay of a
// traced run, and the metrics each run reports.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

#include "harness.h"
#include "net/server.h"
#include "net/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "sql/wal.h"
#include "workflows/durable_order.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace obs = sqlflow::obs;
namespace workflows = sqlflow::workflows;

// --- helpers --------------------------------------------------------------------

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

void FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());
}

void CopyTree(const std::string& from, const std::string& to) {
  FreshDir(to);
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) Die("cannot copy " + from + ": " + ec.message());
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::string CanonicalValue(const Value& v) {
  if (v.type() == sqlflow::ValueType::kDouble) {
    const double d = v.AsDouble().value();
    char buf[64];
    if (std::floor(d) == d && std::fabs(d) < 9e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(buf, sizeof(buf), "%.6f", d);
    }
    return buf;
  }
  if (v.type() == sqlflow::ValueType::kNull) return "NULL";
  return v.AsString();
}

std::vector<std::string> CanonicalRows(const sql::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.row_count());
  for (const sql::Row& row : rs.rows()) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += '|';
      line += CanonicalValue(row[i]);
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "served_point", "durable_writes", "order_workflow",
      "process_analytics"};
  return names;
}

namespace {

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string JoinSeconds(const std::vector<double>& seconds) {
  std::string out;
  for (double s : seconds) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : " ", s);
    out += buf;
  }
  return out;
}

/// Recovers the durable image in `dir` `repeats` times; the seconds
/// each took.
std::vector<double> TimeRecovery(const std::string& dir, int repeats) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const int64_t t0 = NowNs();
    auto recovered = sql::Database::Recover("recovered", dir);
    seconds.push_back(Seconds(t0, NowNs()));
    Check(recovered.status(), "recover " + dir);
  }
  return seconds;
}

/// Throughput as the median over one-second windows of the ops that
/// completed in each, so a burst of outside interference moves it less
/// than it moves the mean. Runs shorter than three windows use the mean.
double WindowedRate(const std::vector<double>& end_s, double seconds) {
  const size_t windows = static_cast<size_t>(seconds);
  if (windows < 3) return static_cast<double>(end_s.size()) / seconds;
  std::vector<double> counts(windows, 0);
  for (double t : end_s) {
    if (t >= 0 && t < static_cast<double>(windows)) {
      counts[static_cast<size_t>(t)] += 1;
    }
  }
  return Median(counts);
}

// --- counters exported by the program -----------------------------------------

const char* const kCounterNames[] = {
    "sql.statements",       "sql.plan_cache.hit", "sql.plan_cache.miss",
    "sql.plan.batch",       "sql.mvcc.snapshot_scan", "sql.txn.abort",
    "sql.retry.attempts",   "net.shed",           "net.requests",
    "wfc.instances",        "wfc.activities"};

struct CounterSet {
  std::map<std::string, uint64_t> counters;
  HistogramCdf exec;
  HistogramCdf instance;
  HistogramCdf activity;
  uint64_t rows_read = 0;
  uint64_t statements = 0;
  sql::WalStats wal;

  static CounterSet Take(sql::Database* db) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    CounterSet set;
    for (const char* name : kCounterNames) {
      set.counters[name] = registry.GetCounter(name).value();
    }
    set.exec = SnapshotCdf(registry.GetHistogram("sql.exec"));
    set.instance = SnapshotCdf(registry.GetHistogram("wfc.instance"));
    set.activity = SnapshotCdf(registry.GetHistogram("wfc.activity"));
    set.rows_read = db->stats().rows_read.load();
    set.statements = db->stats().statements_executed.load();
    if (db->wal() != nullptr) set.wal = db->wal()->stats();
    return set;
  }

  double Delta(const CounterSet& before, const char* name) const {
    return static_cast<double>(counters.at(name) - before.counters.at(name));
  }
};

// --- the timed closed loop ----------------------------------------------------------

/// A traced run alternates traced and untraced windows of this length,
/// so tracing overhead is measured against the same load and data.
constexpr int64_t kTraceWindowNs = 200'000'000;

bool TracedAt(bool trace, int64_t start_ns, int64_t t_ns) {
  return trace && t_ns >= start_ns &&
         ((t_ns - start_ns) / kTraceWindowNs) % 2 == 1;
}

/// One successful request of the timed phase.
struct Sample {
  const char* op = "";
  bool read = false;
  double us = 0;     // request latency
  double end_s = 0;  // completion, in seconds since timing began
};

struct LoopStats {
  std::vector<Sample> samples;
  /// Time between a reply and the same client's next request.
  std::vector<double> gap_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  std::vector<std::string> first_errors;

  void Merge(const LoopStats& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    gap_us.insert(gap_us.end(), o.gap_us.begin(), o.gap_us.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    traced_ops += o.traced_ops;
    untraced_ops += o.untraced_ops;
    first_errors.insert(first_errors.end(), o.first_errors.begin(),
                        o.first_errors.end());
  }
};

template <typename Keep>
std::vector<Sample> Select(const std::vector<Sample>& samples, Keep keep) {
  std::vector<Sample> out;
  for (const Sample& s : samples) {
    if (keep(s)) out.push_back(s);
  }
  return out;
}

std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> us;
  us.reserve(samples.size());
  for (const Sample& s : samples) us.push_back(s.us);
  return us;
}

std::vector<double> EndTimes(const std::vector<Sample>& samples) {
  std::vector<double> end_s;
  end_s.reserve(samples.size());
  for (const Sample& s : samples) end_s.push_back(s.end_s);
  return end_s;
}

double MixMedianOf(const std::vector<Sample>& samples) {
  std::vector<std::pair<std::string, double>> kind_us;
  kind_us.reserve(samples.size());
  for (const Sample& s : samples) kind_us.emplace_back(s.op, s.us);
  return MixMedian(kind_us);
}

/// Workers start at `begin_ns`; requests sent before `start_ns` warm
/// the caches and are checked and counted, but not timed. `at_start`
/// runs on the calling thread once timing begins.
LoopStats RunClosedLoop(std::vector<std::unique_ptr<Worker>>& workers,
                        int64_t begin_ns, int64_t start_ns, int64_t end_ns,
                        bool trace, SpanRecorder* recorder,
                        const std::function<void()>& at_start) {
  std::vector<LoopStats> per_thread(workers.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < workers.size(); ++i) {
    SpanRecorder::Track* track = trace ? recorder->NewTrack() : nullptr;
    threads.emplace_back([&, i, track] {
      Worker& worker = *workers[i];
      LoopStats& stats = per_thread[i];
      while (NowNs() < begin_ns) std::this_thread::yield();
      int64_t last_end = 0;
      for (;;) {
        const int64_t now = NowNs();
        if (now >= end_ns) break;
        const bool traced = TracedAt(trace, start_ns, now);
        Outcome out = worker.Step(traced ? track : nullptr);
        stats.attempted++;
        if (!out.ok) {
          if (stats.failed++ < 3) {
            stats.first_errors.push_back(std::string(out.op) + ": " +
                                         out.error);
          }
        } else if (!out.correct) {
          stats.wrong++;
        }
        if (out.start_ns < start_ns) continue;
        (traced ? stats.traced_ops : stats.untraced_ops)++;
        if (last_end != 0) {
          stats.gap_us.push_back((out.start_ns - last_end) / 1e3);
        }
        last_end = out.end_ns;
        if (out.ok) {
          stats.samples.push_back({out.op, out.read,
                                   (out.end_ns - out.start_ns) / 1e3,
                                   Seconds(start_ns, out.end_ns)});
        }
      }
    });
  }
  while (NowNs() < start_ns) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  at_start();
  for (std::thread& t : threads) t.join();
  LoopStats total;
  for (const LoopStats& s : per_thread) total.Merge(s);
  return total;
}

// --- layer replay ---------------------------------------------------------------

struct LayerSamples {
  std::vector<double> parse_ns;
  std::vector<double> codec_ns;
  std::vector<double> session_us;
  std::vector<double> exec_read_us;
  std::vector<double> exec_write_us;
  std::vector<double> prepared_read_us;
  std::vector<double> ping_us;
  std::vector<double> table_insert_us;
  std::vector<double> table_update_us;
  std::vector<double> table_delete_us;
  std::vector<double> wal_append_us;
  std::vector<double> wal_sync_us;
  std::map<std::string, std::vector<double>> query_ms;
  std::vector<double> run_process_us;
  double wfc_instance_p50_us = 0;
  double wfc_activity_p50_us = 0;
  double wfc_activities_per_instance = 0;
  double supplier_calls_per_instance = 0;
  double counter_lookup_ns = 0;
  double span_ns = 0;
};

double ElapsedUs(int64_t t0) { return (NowNs() - t0) / 1e3; }

/// Sends a seeded sample of the workload's op mix through each public
/// boundary in turn, on the quiescent database, with a child span per
/// call under one root span per op.
void ReplayOps(Workload& workload, Worker& worker, SpanRecorder::Track* track,
               int64_t budget_ns, size_t max_ops, LayerSamples* out) {
  sql::Database* db = workload.db();
  std::shared_ptr<sql::Database> conn = db->CreateConnection();
  net::WorkflowState wf_state;
  wf_state.engine = workload.engine();
  net::Session session(db->CreateConnection(), &wf_state);
  const int64_t deadline = NowNs() + budget_ns;
  for (size_t i = 0; i < max_ops && NowNs() < deadline; ++i) {
    ReplayOp op = worker.NextReplayOp();
    SpanRecorder::Scope root(track, "replay.op", op.op);
    {
      SpanRecorder::Scope s(track, "sql.ParseStatement", op.op);
      const int64_t t0 = NowNs();
      auto parsed = sql::ParseStatement(op.sql);
      out->parse_ns.push_back(static_cast<double>(NowNs() - t0));
      Check(parsed.status(), "replay parse");
    }
    {
      SpanRecorder::Scope s(track, "sql.Database::Execute", op.op);
      if (op.read) {
        const int64_t t0 = NowNs();
        auto rs = conn->Execute(op.sql, op.params);
        out->exec_read_us.push_back(ElapsedUs(t0));
        Check(rs.status(), "replay execute");
      } else {
        // Writes run in a transaction that is rolled back, so the real
        // execution below (through the session) sees the same state.
        Check(conn->Begin(), "replay begin");
        const int64_t t0 = NowNs();
        auto rs = conn->Execute(op.sql, op.params);
        out->exec_write_us.push_back(ElapsedUs(t0));
        Check(rs.status(), "replay execute");
        Check(conn->Rollback(), "replay rollback");
      }
    }
    if (op.read) {
      auto prepared = Must(conn->Prepare(op.sql), "replay prepare");
      SpanRecorder::Scope s(track, "sql.PreparedStatement::Execute", op.op);
      const int64_t t0 = NowNs();
      auto rs = prepared.Execute(op.params);
      out->prepared_read_us.push_back(ElapsedUs(t0));
      Check(rs.status(), "replay prepared execute");
    }
    net::Response response;
    {
      SpanRecorder::Scope s(track, "net::Session::Handle", op.op);
      const int64_t t0 = NowNs();
      response = session.Handle(op.request);
      out->session_us.push_back(ElapsedUs(t0));
    }
    Check(response.status, "replay session");
    worker.Acknowledge(op, response);
    {
      SpanRecorder::Scope s(track, "net.codec", op.op);
      const int64_t t0 = NowNs();
      std::string request_bytes = net::EncodeRequest(op.request);
      auto request = net::DecodeRequest(request_bytes);
      std::string response_bytes = net::EncodeResponse(response);
      auto decoded = net::DecodeResponse(response_bytes);
      out->codec_ns.push_back(static_cast<double>(NowNs() - t0));
      Check(request.status(), "replay decode request");
      Check(decoded.status(), "replay decode response");
    }
  }
}

void ProbePing(uint16_t port, SpanRecorder::Track* track, int count,
               LayerSamples* out) {
  net::ClientOptions options;
  options.port = port;
  options.client_name = "perfbench-ping";
  net::Client client(options);
  Check(client.Connect(), "ping connect");
  for (int i = 0; i < count; ++i) {
    SpanRecorder::Scope s(track, "net::Client::Ping");
    const int64_t t0 = NowNs();
    Status st = client.Ping();
    out->ping_us.push_back(ElapsedUs(t0));
    Check(st, "ping");
  }
  client.Close();
}

void ProbeTable(Workload& workload, SpanRecorder::Track* track, uint64_t seed,
                int count, LayerSamples* out) {
  std::shared_ptr<sql::Database> conn = workload.db()->CreateConnection();
  TableProbe probe = workload.table_probe();
  Rng rng(SubSeed(seed, 71));
  auto time_one = [&](const TableProbe::Make& make, const char* name,
                      std::vector<double>* samples) {
    auto [text, params] = make(rng);
    Check(conn->Begin(), "table probe begin");
    {
      SpanRecorder::Scope s(track, name);
      const int64_t t0 = NowNs();
      auto rs = conn->Execute(text, params);
      samples->push_back(ElapsedUs(t0));
      Check(rs.status(), std::string(name) + ": " + text);
      if (rs->affected_rows() != 1) Die(std::string(name) + " missed its row");
    }
    Check(conn->Rollback(), "table probe rollback");
  };
  for (int i = 0; i < count; ++i) {
    time_one(probe.insert, "sql.table.insert", &out->table_insert_us);
    time_one(probe.update, "sql.table.update", &out->table_update_us);
    time_one(probe.remove, "sql.table.delete", &out->table_delete_us);
  }
}

void ProbeWal(const std::string& dir, size_t payload_bytes,
              SpanRecorder::Track* track, int count, LayerSamples* out) {
  FreshDir(dir);
  sql::WalOptions options;
  options.fsync_policy = sql::FsyncPolicy::kEveryCommit;
  auto wal = Must(sql::WalManager::Open(dir, options), "wal probe open");
  const std::vector<std::string> payloads = {
      std::string(std::max<size_t>(payload_bytes, 1), 'w')};
  for (int i = 0; i < count; ++i) {
    uint64_t lsn = 0;
    {
      SpanRecorder::Scope s(track, "sql::WalManager::AppendCommit");
      const int64_t t0 = NowNs();
      Check(wal->AppendCommit(payloads, &lsn), "wal probe append");
      out->wal_append_us.push_back(ElapsedUs(t0));
    }
    SpanRecorder::Scope s(track, "sql::WalManager::SyncToLsn");
    const int64_t t0 = NowNs();
    Check(wal->SyncToLsn(lsn), "wal probe sync");
    out->wal_sync_us.push_back(ElapsedUs(t0));
  }
}

void ProbeQueries(Workload& workload, uint64_t seed, SpanRecorder::Track* track,
                  int repeats, bool smoke, LayerSamples* out) {
  std::unique_ptr<sql::Database> scratch;
  sql::Database* db = workload.audit_db();
  if (db == nullptr) {
    scratch = std::make_unique<sql::Database>("perfbench_audit_probe");
    LoadAuditTables(scratch.get(), SubSeed(seed, 72), smoke ? 2000 : 20000,
                    nullptr, nullptr);
    db = scratch.get();
  }
  std::shared_ptr<sql::Database> conn = db->CreateConnection();
  for (int r = 0; r < repeats; ++r) {
    for (const AnalyticsQuery& q : AnalyticsQueries()) {
      SpanRecorder::Scope s(track, "sql.query", q.name);
      const int64_t t0 = NowNs();
      auto rs = conn->Execute(q.sql);
      out->query_ms[q.name].push_back((NowNs() - t0) / 1e6);
      Check(rs.status(), q.name);
    }
  }
}

void ProbeWorkflow(Workload& workload, SpanRecorder::Track* track, int count,
                   LayerSamples* out) {
  if (workload.RunProcessProbe(count, &out->run_process_us,
                               &out->supplier_calls_per_instance)) {
    return;
  }
  // No engine in this workload: run the order process on a scratch one.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const HistogramCdf inst0 = SnapshotCdf(registry.GetHistogram("wfc.instance"));
  const HistogramCdf act0 = SnapshotCdf(registry.GetHistogram("wfc.activity"));
  const uint64_t instances0 = registry.GetCounter("wfc.instances").value();
  const uint64_t activities0 = registry.GetCounter("wfc.activities").value();
  sql::Database db("perfbench_wfc_probe");
  wfc::WorkflowEngine engine("perfbench-wfc-probe");
  Check(workflows::PrepareDurableOrderSchema(&db), "wfc probe schema");
  auto supplier = workflows::MakeDurableSupplier();
  Check(workflows::RegisterDurableSupplier(&engine, supplier),
        "wfc probe supplier");
  Check(workflows::DeployDurableOrderProcess(&engine, &db), "wfc probe deploy");
  for (int i = 0; i < count; ++i) {
    std::map<std::string, wfc::VarValue> inputs = {
        {"OrderID", wfc::VarValue(Value::Integer(i + 1))},
        {"Item", wfc::VarValue(Value::String("probe"))},
        {"Quantity", wfc::VarValue(Value::Integer(1 + i % 9))}};
    SpanRecorder::Scope s(track, "wfc::WorkflowEngine::RunProcess");
    const int64_t t0 = NowNs();
    auto result = engine.RunProcess(workflows::kDurableOrderProcess, inputs);
    out->run_process_us.push_back(ElapsedUs(t0));
    Check(result.status(), "wfc probe run");
    Check(result->status, "wfc probe instance");
  }
  out->wfc_instance_p50_us =
      DeltaPercentile(inst0, SnapshotCdf(registry.GetHistogram("wfc.instance")),
                      0.5) /
      1e3;
  out->wfc_activity_p50_us =
      DeltaPercentile(act0, SnapshotCdf(registry.GetHistogram("wfc.activity")),
                      0.5) /
      1e3;
  out->wfc_activities_per_instance =
      Ratio(static_cast<double>(registry.GetCounter("wfc.activities").value() -
                                activities0),
            static_cast<double>(registry.GetCounter("wfc.instances").value() -
                                instances0));
  out->supplier_calls_per_instance =
      Ratio(static_cast<double>(supplier->inner_invocations()), count);
}

void ProbeObs(SpanRecorder::Track* track, LayerSamples* out) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  constexpr int kBatch = 1000;
  std::vector<double> lookup_ns;
  for (int b = 0; b < 50; ++b) {
    const int64_t t0 = NowNs();
    uint64_t sink = 0;
    for (int i = 0; i < kBatch; ++i) {
      sink += registry.GetCounter("sql.statements").value();
    }
    lookup_ns.push_back(static_cast<double>(NowNs() - t0) / kBatch);
    if (sink == UINT64_MAX) std::fputc('\n', stderr);
  }
  out->counter_lookup_ns = Median(lookup_ns);
  // The program's trace buffer keeps its first spans and drops the
  // rest; measure a span in that state, as a long-running server sees.
  obs::TraceBuffer& buffer = obs::TraceBuffer::Global();
  while (buffer.enabled() && buffer.size() < buffer.capacity()) {
    obs::Span fill("perfbench.fill");
  }
  std::vector<double> span_ns;
  SpanRecorder::Scope s(track, "obs::Span");
  for (int b = 0; b < 50; ++b) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      obs::Span span("perfbench.probe");
    }
    span_ns.push_back(static_cast<double>(NowNs() - t0) / kBatch);
  }
  out->span_ns = Median(span_ns);
}

void AddPercentile(Report* report, const std::string& name,
                   const std::vector<double>& samples, double q,
                   const std::string& unit) {
  report->Add(name, Quantile(samples, q), unit, samples.size());
}

}  // namespace

// --- the run --------------------------------------------------------------------

void RunWorkload(const Options& opt, Report* report) {
  const std::string run_dir =
      opt.work_dir + "/" + opt.workload + "-" + std::to_string(getpid());
  FreshDir(run_dir);
  const net::ServerOptions server_options;

  // One timed set-up per process (perfbench/run.py starts several
  // processes per measurement). Its resident-set growth is the memory
  // the data costs.
  malloc_trim(0);
  const double rss_before_setup = RssMb();
  std::unique_ptr<Workload> workload = MakeWorkload(opt);
  const int64_t setup_t0 = NowNs();
  workload->Setup(run_dir + "/data");
  const double setup_s = Seconds(setup_t0, NowNs());
  malloc_trim(0);
  const double setup_rss = RssMb();
  workload->AfterSetup(run_dir);

  char config[512];
  std::snprintf(
      config, sizeof(config),
      "config: workload=%s seed=%llu seconds=%g trace=%d smoke=%d wal=%s "
      "connections=%d server{max_connections=%u max_inflight_per_conn=%u "
      "max_queue_depth=%u worker_threads=%u frame_deadline_ms=%d}",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0,
      workload->wal_policy().c_str(), workload->connections(),
      server_options.max_connections, server_options.max_inflight_per_conn,
      server_options.max_queue_depth, server_options.worker_threads,
      server_options.frame_deadline_ms);
  report->Note(config);

  net::Server server(workload->db(), workload->engine(), server_options);
  Check(server.Start(), "server start");
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < workload->connections(); ++i) {
    workers.push_back(workload->MakeWorker(i, server.port()));
  }

  // A warm-up (plan caches, first page faults), then the timed phase;
  // counter deltas cover only the timed phase.
  SpanRecorder recorder(opt.smoke ? 5000 : 25000);
  const int64_t begin_ns = NowNs() + 20'000'000;
  const int64_t start_ns = begin_ns + (opt.smoke ? 100'000'000 : 500'000'000);
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(opt.seconds * 1e9);
  workload->StartBackground(server.port(), start_ns, end_ns);
  CounterSet before;
  LoopStats loop =
      RunClosedLoop(workers, begin_ns, start_ns, end_ns, opt.trace, &recorder,
                    [&] { before = CounterSet::Take(workload->db()); });
  workload->StopBackground();
  const double elapsed_s = Seconds(start_ns, std::max(end_ns, NowNs()));
  const CounterSet after = CounterSet::Take(workload->db());

  const double commits =
      static_cast<double>(after.wal.commits - before.wal.commits);
  const double wal_bytes_per_commit = Ratio(
      static_cast<double>(after.wal.current_lsn - before.wal.current_lsn),
      commits);

  LayerSamples layers;
  if (opt.trace) {
    SpanRecorder::Track* track = recorder.NewTrack();
    const int64_t budget = opt.smoke ? 300'000'000 : 2'000'000'000;
    ReplayOps(*workload, *workers.front(), track, budget,
              opt.smoke ? 50 : 3000, &layers);
    ProbePing(server.port(), track, opt.smoke ? 100 : 2000, &layers);
    ProbeTable(*workload, track, opt.seed, opt.smoke ? 3 : 20, &layers);
    ProbeWal(run_dir + "/walprobe",
             commits > 0 ? static_cast<size_t>(wal_bytes_per_commit)
                         : workload->wal_payload_bytes(),
             track, opt.smoke ? 20 : 200, &layers);
    ProbeQueries(*workload, opt.seed, track, opt.smoke ? 1 : 3, opt.smoke,
                 &layers);
    ProbeWorkflow(*workload, track, opt.smoke ? 20 : 200, &layers);
    ProbeObs(track, &layers);
  }
  workers.clear();  // closes the client connections
  server.Stop();

  workload->Verify(report);
  const std::string image = workload->RecoveryImage(run_dir);
  const uint64_t wal_bytes = TreeBytes(image);

  // Counts and samples the report needs, then the fixture is freed so
  // recovery runs without it.
  const std::vector<double> bg_write_us = workload->BackgroundWriteUs();
  const std::vector<double> late_us = workload->BackgroundLateUs();
  const uint64_t bg_attempted = workload->background_attempted();
  const uint64_t bg_failed = workload->background_failed();
  const Workload::Primary primary_kind = workload->primary();
  const double rows_loaded = static_cast<double>(workload->rows_loaded());
  const bool has_engine = workload->engine() != nullptr;
  workload.reset();
  malloc_trim(0);
  const std::vector<double> recovery_s = TimeRecovery(image, opt.smoke ? 1 : 3);
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  report->Note("setup (s): " + JoinSeconds({setup_s}) +
               "; recovery runs (s): " + JoinSeconds(recovery_s));

  // --- verdict and counts ---
  report->attempted = loop.attempted + bg_attempted;
  report->failed = loop.failed + bg_failed + loop.wrong;
  if (loop.wrong > 0) {
    report->Fail(std::to_string(loop.wrong) +
                 " responses disagreed with the seeded model");
  }
  if (loop.samples.empty()) report->Fail("no operation completed");
  for (const std::string& error : loop.first_errors) {
    report->Note("failed: " + error);
  }

  const std::vector<Sample> reads =
      Select(loop.samples, [](const Sample& s) { return s.read; });
  const std::vector<Sample> writes =
      Select(loop.samples, [](const Sample& s) { return !s.read; });
  const std::vector<Sample>& primary =
      primary_kind == Workload::Primary::kReads    ? reads
      : primary_kind == Workload::Primary::kWrites ? writes
                                                   : loop.samples;
  // The open-loop appender's writes stand in for the closed loop's
  // when there are any (process_analytics).
  const std::vector<double> write_us =
      bg_write_us.empty() ? Latencies(writes) : bg_write_us;

  if (!opt.trace) {
    report->Add("setup_s", setup_s, "s");
    report->Add("setup_rss_mb", setup_rss, "MB");
    report->Add("throughput_ops_s",
                WindowedRate(EndTimes(primary), opt.seconds), "1/s");
    report->Add("latency_p50_us", MixMedianOf(primary), "us", primary.size());
    report->Add("read_p50_us", MixMedianOf(reads), "us", reads.size());
    report->Add("write_p50_us",
                bg_write_us.empty() ? MixMedianOf(writes) : Median(bg_write_us),
                "us", write_us.size());
    report->Add("recovery_s", Median(recovery_s), "s");
    return;
  }

  // --- traced run: per-layer metrics ---
  // Tail latencies first: on a shared VM they moved up to 2x between
  // runs, so they are reported here, without a bound.
  AddPercentile(report, "latency_p99_us", Latencies(primary), 0.99, "us");
  AddPercentile(report, "write_p99_us", write_us, 0.99, "us");
  const double n_reads = static_cast<double>(reads.size());
  const double n_writes = static_cast<double>(write_us.size());
  const double primary_ops = static_cast<double>(primary.size());
  const double ops = static_cast<double>(report->attempted);
  const double half_s = elapsed_s / 2;
  const double untraced_tput = loop.untraced_ops / half_s;
  const double traced_tput = loop.traced_ops / half_s;

  const double session_p50 = Median(layers.session_us);
  const double codec_p50 = Median(layers.codec_ns);
  AddPercentile(report, "net.ping_p50_us", layers.ping_us, 0.5, "us");
  AddPercentile(report, "net.session_p50_us", layers.session_us, 0.5, "us");
  AddPercentile(report, "net.codec_p50_ns", layers.codec_ns, 0.5, "ns");
  report->Add("net.transport_p50_us",
              Median(Latencies(loop.samples)) - session_p50 - codec_p50 / 1e3,
              "us");
  report->Add("net.shed_per_kop",
              Ratio(after.Delta(before, "net.shed") * 1000, ops), "count");

  AddPercentile(report, "sql.parse_p50_ns", layers.parse_ns, 0.5, "ns");
  const double hits = after.Delta(before, "sql.plan_cache.hit");
  const double misses = after.Delta(before, "sql.plan_cache.miss");
  report->Add("sql.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  AddPercentile(report, "sql.execute_read_p50_us", layers.exec_read_us, 0.5,
                "us");
  AddPercentile(report, "sql.execute_write_p50_us", layers.exec_write_us, 0.5,
                "us");
  AddPercentile(report, "sql.prepared_read_p50_us", layers.prepared_read_us,
                0.5, "us");
  report->Add("sql.exec_hist_p50_us",
              DeltaPercentile(before.exec, after.exec, 0.5) / 1e3, "us");
  const double statements = after.Delta(before, "sql.statements");
  report->Add("sql.rows_read_per_stmt",
              Ratio(static_cast<double>(after.rows_read - before.rows_read),
                    static_cast<double>(after.statements - before.statements)),
              "count");
  report->Add("sql.batch_plans_per_stmt",
              Ratio(after.Delta(before, "sql.plan.batch"), statements),
              "count");

  for (const AnalyticsQuery& q : AnalyticsQueries()) {
    report->Add(std::string("sql.query.") + q.name + "_ms",
                Median(layers.query_ms[q.name]), "ms",
                layers.query_ms[q.name].size());
  }
  report->Add("sql.mvcc.snapshot_scans_per_query",
              Ratio(after.Delta(before, "sql.mvcc.snapshot_scan"), n_reads),
              "count");

  AddPercentile(report, "sql.table.insert_p50_us", layers.table_insert_us, 0.5,
                "us");
  AddPercentile(report, "sql.table.update_p50_us", layers.table_update_us, 0.5,
                "us");
  AddPercentile(report, "sql.table.delete_p50_us", layers.table_delete_us, 0.5,
                "us");
  report->Add("sql.table.bytes_per_row",
              Ratio((setup_rss - rss_before_setup) * 1e6, rows_loaded), "B");

  report->Add("sql.mvcc.aborts_per_kwrite",
              Ratio(after.Delta(before, "sql.txn.abort") * 1000, n_writes),
              "count");
  report->Add("sql.retry.attempts_per_kwrite",
              Ratio(after.Delta(before, "sql.retry.attempts") * 1000, n_writes),
              "count");

  report->Add("sql.wal.bytes_per_commit", wal_bytes_per_commit, "B");
  report->Add("sql.wal.syncs_per_commit",
              Ratio(static_cast<double>(after.wal.syncs - before.wal.syncs),
                    commits),
              "count");
  report->Add("sql.wal.commits_per_op", Ratio(commits, primary_ops), "count");
  AddPercentile(report, "sql.wal.append_p50_us", layers.wal_append_us, 0.5,
                "us");
  AddPercentile(report, "sql.wal.sync_p50_us", layers.wal_sync_us, 0.5, "us");
  report->Add("sql.wal.replay_mb_s",
              Ratio(static_cast<double>(wal_bytes) / 1e6, Median(recovery_s)),
              "MB/s");

  AddPercentile(report, "wfc.run_process_p50_us", layers.run_process_us, 0.5,
                "us");
  if (has_engine) {
    // The workload's own instances, between the snapshots around the
    // timed phase.
    layers.wfc_instance_p50_us =
        DeltaPercentile(before.instance, after.instance, 0.5) / 1e3;
    layers.wfc_activity_p50_us =
        DeltaPercentile(before.activity, after.activity, 0.5) / 1e3;
    layers.wfc_activities_per_instance =
        Ratio(after.Delta(before, "wfc.activities"),
              after.Delta(before, "wfc.instances"));
  }
  report->Add("wfc.instance_hist_p50_us", layers.wfc_instance_p50_us, "us");
  report->Add("wfc.activity_hist_p50_us", layers.wfc_activity_p50_us, "us");
  report->Add("wfc.activities_per_instance",
              layers.wfc_activities_per_instance, "count");
  report->Add("workflows.supplier_calls_per_instance",
              layers.supplier_calls_per_instance, "count");

  report->Add("obs.counter_lookup_ns", layers.counter_lookup_ns, "ns");
  report->Add("obs.span_ns", layers.span_ns, "ns");

  report->Add("bench.trace_overhead_pct",
              Ratio((untraced_tput - traced_tput) * 100, untraced_tput), "%");
  AddPercentile(report, "bench.generator_late_p99_us",
                late_us.empty() ? loop.gap_us : late_us, 0.99, "us");
  report->Add("error_ratio",
              Ratio(static_cast<double>(report->failed), ops), "ratio");

  // Self time per boundary, and the spans themselves.
  for (const auto& [name, self_ns] : recorder.SelfTimesNs()) {
    char line[160];
    std::snprintf(line, sizeof(line), "self time %-34s p50 %10.2f us (n=%zu)",
                  name.c_str(), Median(self_ns) / 1e3, self_ns.size());
    report->Note(line);
  }
  const fs::path trace_dir = fs::path(opt.work_dir).parent_path() / "traces";
  fs::create_directories(trace_dir, ec);
  const std::string trace_path =
      (trace_dir / (opt.workload + "-seed" + std::to_string(opt.seed) +
                    ".json"))
          .string();
  if (!recorder.WriteChromeTrace(trace_path)) {
    report->Fail("cannot write the span file " + trace_path);
  } else {
    report->Note("spans: " + std::to_string(recorder.span_count()) +
                 " written to " + trace_path);
  }
}

}  // namespace perfbench
