// Internal interfaces between the run skeleton (harness.cc) and the four
// workloads (workloads.cc).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/protocol.h"
#include "sql/database.h"
#include "wfc/engine.h"

namespace perfbench {

namespace sql = sqlflow::sql;
namespace net = sqlflow::net;
namespace wfc = sqlflow::wfc;
using sqlflow::Status;
using sqlflow::Value;

/// Set-up failures end the run without a result line.
[[noreturn]] void Die(const std::string& what);
void Check(const Status& status, const std::string& what);
template <typename T>
T Must(sqlflow::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Resident set size of this process.
double RssMb();
/// Empties and re-creates `dir`.
void FreshDir(const std::string& dir);
void CopyTree(const std::string& from, const std::string& to);
uint64_t TreeBytes(const std::string& dir);

/// Canonical text of a result row: integral numbers print as integers,
/// other doubles with six decimals, so engine and reference agree.
std::string CanonicalValue(const Value& v);
std::vector<std::string> CanonicalRows(const sql::ResultSet& rs);

/// What one client operation did. Latency covers only the request.
struct Outcome {
  const char* op = "";
  bool read = false;
  bool ok = false;
  bool correct = true;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string error;  // the failure, when !ok
};

/// One operation of a workload's mix, replayed through each layer's
/// public boundary in a traced run.
struct ReplayOp {
  const char* op = "";
  bool read = false;
  /// What the client sends for this op.
  net::Request request;
  /// The statement the op executes (for the parse / execute probes).
  std::string sql;
  sql::Params params;
};

/// A closed-loop client: one connection, one thread, its own slice of
/// the seeded model.
class Worker {
 public:
  virtual ~Worker() = default;
  /// Sends the next op of the mix over the wire and checks the answer.
  virtual Outcome Step(SpanRecorder::Track* track) = 0;
  /// The next op of the same mix, for the layer replay; the model
  /// advances as if it succeeded.
  virtual ReplayOp NextReplayOp() = 0;
  /// Tells the model how a replayed op ended.
  virtual void Acknowledge(const ReplayOp& /*op*/,
                           const net::Response& /*response*/) {}
};

/// Row-level probes of a workload's main table, at its size: each
/// returns one statement with its parameters.
struct TableProbe {
  using Make = std::function<std::pair<std::string, sql::Params>(Rng&)>;
  Make insert;
  Make update;
  Make remove;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the fixture from the seed into `dir` (used when the
  /// workload is durable). Called once per process.
  virtual void Setup(const std::string& dir) = 0;
  virtual size_t rows_loaded() const = 0;
  virtual sql::Database* db() = 0;
  virtual wfc::WorkflowEngine* engine() { return nullptr; }
  /// WAL flush policy, for the record ("off" when not durable).
  virtual std::string wal_policy() const = 0;
  virtual int connections() const = 0;
  /// Which requests are the workload's primary operations (throughput
  /// and latency_*): all of them, the reads, or the writes.
  enum class Primary { kAll, kReads, kWrites };
  virtual Primary primary() const { return Primary::kAll; }

  /// Right after the final set-up, before the server starts.
  virtual void AfterSetup(const std::string& /*run_dir*/) {}
  virtual std::unique_ptr<Worker> MakeWorker(int index, uint16_t port) = 0;
  /// Open-loop load beside the closed-loop workers (process_analytics).
  virtual void StartBackground(uint16_t /*port*/, int64_t /*start_ns*/,
                               int64_t /*end_ns*/) {}
  virtual void StopBackground() {}
  /// Writes timed from when each was due, and generator lateness, of
  /// the open-loop load; empty for closed-loop workloads.
  virtual std::vector<double> BackgroundWriteUs() const { return {}; }
  virtual std::vector<double> BackgroundLateUs() const { return {}; }
  virtual uint64_t background_attempted() const { return 0; }
  virtual uint64_t background_failed() const { return 0; }

  /// Final oracles, after the server stopped.
  virtual void Verify(Report* report) = 0;
  /// Directory holding a durable image of the set-up (a WAL copy taken
  /// right after it), for timing recovery.
  virtual std::string RecoveryImage(const std::string& run_dir) = 0;

  virtual TableProbe table_probe() = 0;
  /// Payload size for the standalone WAL probe of a workload whose
  /// timed phase commits nothing to a log.
  virtual size_t wal_payload_bytes() const { return 0; }
  /// Database holding the audit trail the monitoring queries read;
  /// null when the workload has none (the replay builds a small one).
  virtual sql::Database* audit_db() { return nullptr; }
  /// Runs `count` instances of the order process in process for the
  /// wfc probe; false when the workload has no engine (the replay then
  /// builds one).
  virtual bool RunProcessProbe(int /*count*/, std::vector<double>* /*us*/,
                               double* /*supplier_calls_per_instance*/) {
    return false;
  }
};

std::unique_ptr<Workload> MakeWorkload(const Options& options);

// --- shared fixtures ------------------------------------------------------------

/// The monitoring queries over the audit trail (sys.audit_events shape).
struct AnalyticsQuery {
  const char* name;
  const char* sql;
};
const std::vector<AnalyticsQuery>& AnalyticsQueries();

/// Creates audit_events + instances and loads `events` seeded events in
/// one transaction; `workflows_out` / `events_out` (nullable) receive
/// the generated rows for reference answers.
struct AuditEvent {
  int64_t id = 0;
  int64_t instance = 0;
  int64_t seq = 0;
  int activity = 0;
  int status = 0;
  int64_t duration_ms = 0;
};
inline constexpr int kEventsPerInstance = 20;
inline constexpr int kWorkflowKinds = 12;
extern const char* const kActivities[8];
extern const char* const kStatuses[6];
void LoadAuditTables(sql::Database* db, uint64_t seed, int64_t events,
                     std::vector<AuditEvent>* events_out,
                     std::vector<int>* workflows_out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
