// The four workloads: their seeded fixtures, closed-loop clients,
// correctness oracles and layer-probe specs.
#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <thread>

#include "harness.h"
#include "sql/checkpoint.h"
#include "sql/schema.h"
#include "sql/wal.h"
#include "wfc/service.h"
#include "workflows/durable_order.h"

namespace perfbench {

namespace workflows = sqlflow::workflows;

const char* const kActivities[8] = {"receive", "validate", "enrich",
                                    "approve", "invoke",   "compensate",
                                    "notify",  "archive"};
const char* const kStatuses[6] = {"ok", "ok", "ok", "ok", "retried", "failed"};

const std::vector<AnalyticsQuery>& AnalyticsQueries() {
  static const std::vector<AnalyticsQuery> queries = {
      {"group_agg",
       "SELECT status, COUNT(*), SUM(duration_ms), AVG(duration_ms) "
       "FROM audit_events GROUP BY status"},
      {"filter",
       "SELECT id, activity FROM audit_events "
       "WHERE duration_ms > 490 AND status = 'ok'"},
      {"join_agg",
       "SELECT i.workflow, COUNT(*), AVG(e.duration_ms) "
       "FROM audit_events e JOIN instances i ON e.instance_id = i.id "
       "GROUP BY i.workflow"},
      {"directly_follows",
       "SELECT a.activity, b.activity, COUNT(*) "
       "FROM audit_events a JOIN audit_events b "
       "ON a.instance_id = b.instance_id AND a.nxt = b.seq "
       "GROUP BY a.activity, b.activity"},
  };
  return queries;
}

namespace {

using Params = sql::Params;

std::string WorkflowName(int kind) { return "wf-" + std::to_string(kind); }

Params P(std::initializer_list<Value> values) {
  Params params;
  for (const Value& v : values) params.Add(v);
  return params;
}

std::unique_ptr<net::Client> Connect(uint16_t port, const std::string& name) {
  net::ClientOptions options;
  options.port = port;
  options.client_name = name;
  auto client = std::make_unique<net::Client>(options);
  Check(client->Connect(), "connect " + name);
  return client;
}

ReplayOp SqlOp(const char* op, bool read, std::string text,
               Params params = {}) {
  ReplayOp r;
  r.op = op;
  r.read = read;
  r.sql = text;
  r.params = params;
  r.request.type = net::MessageType::kExecuteSql;
  r.request.sql = std::move(text);
  r.request.params = std::move(params);
  return r;
}

/// Runs `call` as one timed client request under a root span.
template <typename Fn>
auto Timed(SpanRecorder::Track* track, Outcome* out, Fn&& call) {
  SpanRecorder::Scope span(track, "request", out->op);
  out->start_ns = NowNs();
  auto result = call();
  out->end_ns = NowNs();
  return result;
}

/// Sends a ReplayOp's request over the wire.
sqlflow::Result<sql::ResultSet> Send(net::Client& client, const ReplayOp& op) {
  const net::Request& r = op.request;
  switch (r.type) {
    case net::MessageType::kStartInstance:
      return client.StartInstance(r.target, r.args, r.idempotency_key);
    case net::MessageType::kQueryAudit:
      return client.QueryAudit(r.instance_id);
    default:
      return client.ExecuteSql(r.sql, r.params, r.idempotency_key);
  }
}

/// Sends `op` and times it. A request the server shed (kUnavailable on
/// a connection that stays up) was not executed, so it is sent again,
/// as a client would; the retries count in the op's latency.
Outcome SendTimed(net::Client& client, const ReplayOp& op,
                  SpanRecorder::Track* track,
                  sqlflow::Result<sql::ResultSet>* result) {
  Outcome out;
  out.op = op.op;
  out.read = op.read;
  *result = Timed(track, &out, [&] {
    auto r = Send(client, op);
    for (int i = 0; i < 5 && !r.ok() &&
                    r.status().code() == sqlflow::StatusCode::kUnavailable &&
                    client.connected();
         ++i) {
      r = Send(client, op);
    }
    return r;
  });
  out.ok = result->ok();
  if (!out.ok) out.error = result->status().ToString();
  return out;
}

// ============================================================================
// served_point: parameterized PK reads and updates on a 100k-row table.
// ============================================================================

constexpr char kPointSelect[] = "SELECT V FROM KV WHERE K = ?";
constexpr char kPointUpdate[] = "UPDATE KV SET V = ? WHERE K = ?";

std::string PointValue(int64_t key, uint32_t version) {
  return std::to_string(key) + ":" + std::to_string(version);
}

class ServedPoint : public Workload {
 public:
  explicit ServedPoint(const Options& opt)
      : opt_(opt), rows_(opt.smoke ? 4000 : 100000) {}

  void Setup(const std::string&) override {
    db_ = std::make_unique<sql::Database>("served_point");
    versions_ = std::make_unique<std::atomic<uint32_t>[]>(rows_);
    Load(db_.get(), versions_.get());
  }

  /// Schema plus seeded rows (G: a 1000-value secondary key; V: the
  /// key and its version, which updates advance). `versions`
  /// (nullable) receives the initial version of every key.
  void Load(sql::Database* db, std::atomic<uint32_t>* versions) {
    Check(db->ExecuteScript(
              "CREATE TABLE KV (K INTEGER PRIMARY KEY, G INTEGER, "
              "V VARCHAR(32));"
              "CREATE INDEX KV_G ON KV (G)"),
          "served_point schema");
    Rng rng(SubSeed(opt_.seed, 1));
    auto insert =
        Must(db->Prepare("INSERT INTO KV (K, G, V) VALUES (?, ?, ?)"),
             "prepare KV insert");
    Check(db->Begin(), "begin load");
    for (int64_t k = 0; k < rows_; ++k) {
      const uint32_t version = static_cast<uint32_t>(rng.Below(8));
      if (versions != nullptr) versions[k].store(version);
      Check(insert
                .Execute(P({Value::Integer(k),
                            Value::Integer(static_cast<int64_t>(
                                rng.Below(1000))),
                            Value::String(PointValue(k, version))}))
                .status(),
            "load KV");
    }
    Check(db->Commit(), "commit load");
  }

  size_t rows_loaded() const override { return rows_; }
  sql::Database* db() override { return db_.get(); }
  std::string wal_policy() const override { return "off"; }
  int connections() const override { return 2; }
  std::unique_ptr<Worker> MakeWorker(int index, uint16_t port) override;

  void Verify(Report* report) override {
    // Every acknowledged update is in the table.
    auto rs = Must(db_->Execute("SELECT K, V FROM KV"), "read back KV");
    int64_t mismatched = 0;
    for (const sql::Row& row : rs.rows()) {
      const int64_t k = row[0].AsInteger().value();
      if (row[1].AsString() != PointValue(k, versions_[k].load())) {
        ++mismatched;
      }
    }
    if (static_cast<int64_t>(rs.row_count()) != rows_ || mismatched > 0) {
      report->Fail("KV holds " + std::to_string(rs.row_count()) + " rows, " +
                   std::to_string(mismatched) + " off the model");
    }
  }

  std::string RecoveryImage(const std::string& run_dir) override {
    // The workload serves from memory; recovery is timed on a durable
    // image of the same set-up.
    const std::string image = run_dir + "/durable_image";
    FreshDir(image);
    sql::Database durable("served_point_image");
    Check(durable.EnableDurability(image), "image durability");
    Load(&durable, nullptr);
    return image;
  }

  TableProbe table_probe() override {
    TableProbe probe;
    const int64_t rows = rows_;
    probe.insert = [rows](Rng& rng) {
      const int64_t k = rows + 1 + static_cast<int64_t>(rng.Below(1000000));
      return std::make_pair(
          std::string("INSERT INTO KV (K, G, V) VALUES (?, ?, ?)"),
          P({Value::Integer(k), Value::Integer(k % 1000),
             Value::String(PointValue(k, 0))}));
    };
    probe.update = [rows](Rng& rng) {
      return std::make_pair(
          std::string(kPointUpdate),
          P({Value::String("probe"),
             Value::Integer(static_cast<int64_t>(rng.Below(rows)))}));
    };
    probe.remove = [rows](Rng& rng) {
      return std::make_pair(
          std::string("DELETE FROM KV WHERE K = ?"),
          P({Value::Integer(static_cast<int64_t>(rng.Below(rows)))}));
    };
    return probe;
  }

  size_t wal_payload_bytes() const override {
    return sql::WalUpdateRecord(
               "KV", 1,
               sql::Row{Value::Integer(rows_ - 1), Value::Integer(999),
                        Value::String(PointValue(rows_ - 1, 9))})
        .size();
  }

  const Options& opt_;
  const int64_t rows_;
  std::unique_ptr<sql::Database> db_;
  /// Acknowledged version of every key; only its owner advances it.
  std::unique_ptr<std::atomic<uint32_t>[]> versions_;
};

class PointWorker : public Worker {
 public:
  PointWorker(ServedPoint* w, int index, uint16_t port)
      : w_(w),
        index_(index),
        stride_(w->connections()),
        rng_(SubSeed(w->opt_.seed, 100 + index)),
        mix_({90, 10}),
        client_(Connect(port, "served-" + std::to_string(index))) {}

  Outcome Step(SpanRecorder::Track* track) override {
    Planned p = Plan();
    sqlflow::Result<sql::ResultSet> result = Status::OK();
    Outcome out = SendTimed(*client_, p.op, track, &result);
    if (!out.ok) {
      if (!p.op.read) Resync(p.key);
      return out;
    }
    if (p.op.read) {
      out.correct = CheckRead(p.key, p.low, *result);
    } else if (result->affected_rows() == 1) {
      w_->versions_[p.key].store(p.version, std::memory_order_release);
    } else {
      out.correct = false;
    }
    return out;
  }

  ReplayOp NextReplayOp() override {
    Planned p = Plan();
    if (!p.op.read) w_->versions_[p.key].store(p.version);
    return p.op;
  }

 private:
  struct Planned {
    ReplayOp op;
    int64_t key = 0;
    uint32_t low = 0;      // reads: version acknowledged before sending
    uint32_t version = 0;  // updates: the version written
  };

  Planned Plan() {
    Planned p;
    if (mix_.Next(rng_) == 0) {
      p.key = static_cast<int64_t>(rng_.Below(w_->rows_));
      p.low = w_->versions_[p.key].load(std::memory_order_acquire);
      p.op = SqlOp("point_select", true, kPointSelect,
                   P({Value::Integer(p.key)}));
    } else {
      // Each connection updates only its own partition of the keys.
      p.key = index_ + stride_ * static_cast<int64_t>(
                                     rng_.Below(w_->rows_ / stride_));
      p.version = w_->versions_[p.key].load() + 1;
      p.op = SqlOp("point_update", false, kPointUpdate,
                   P({Value::String(PointValue(p.key, p.version)),
                      Value::Integer(p.key)}));
    }
    return p;
  }

  /// A read sees a version between the one acknowledged before it was
  /// sent and the newest the owner may have in flight.
  bool CheckRead(int64_t key, uint32_t low, const sql::ResultSet& rs) {
    if (rs.row_count() != 1) return false;
    const std::string v = rs.rows()[0][0].AsString();
    const size_t colon = v.find(':');
    if (colon == std::string::npos ||
        v.substr(0, colon) != std::to_string(key)) {
      return false;
    }
    const uint32_t seen =
        static_cast<uint32_t>(std::stoul(v.substr(colon + 1)));
    const bool mine = key % stride_ == index_;
    const uint32_t high = w_->versions_[key].load(std::memory_order_acquire) +
                          (mine ? 0 : 1);
    return seen >= low && seen <= high;
  }

  /// After a failed update the model re-reads the row it owns.
  void Resync(int64_t key) {
    auto rs = client_->ExecuteSql(kPointSelect, P({Value::Integer(key)}));
    if (!rs.ok() || rs->row_count() != 1) return;
    const std::string v = rs->rows()[0][0].AsString();
    w_->versions_[key].store(
        static_cast<uint32_t>(std::stoul(v.substr(v.find(':') + 1))));
  }

  ServedPoint* w_;
  const int index_;
  const int stride_;
  Rng rng_;
  OpMix mix_;
  std::unique_ptr<net::Client> client_;
};

std::unique_ptr<Worker> ServedPoint::MakeWorker(int index, uint16_t port) {
  return std::make_unique<PointWorker>(this, index, port);
}

// ============================================================================
// durable_writes: keyed literal-SQL writes with retention on a WAL'd table.
// ============================================================================

struct OrderRow {
  int64_t id = 0;
  int64_t customer = 0;
  int status = 0;
  int64_t amount = 0;
};

std::string OrderStatus(int status) { return "S" + std::to_string(status); }

class DurableWrites : public Workload {
 public:
  explicit DurableWrites(const Options& opt)
      : opt_(opt), rows_(opt.smoke ? 2000 : 50000) {}

  void Setup(const std::string& dir) override {
    FreshDir(dir);
    data_dir_ = dir;
    db_ = std::make_unique<sql::Database>("durable_writes");
    sql::WalOptions wal;
    wal.fsync_policy = sql::FsyncPolicy::kEveryCommit;
    Check(db_->EnableDurability(dir, wal), "durable_writes durability");
    Check(db_->ExecuteScript(
              "CREATE TABLE ORDERS (ID INTEGER PRIMARY KEY, "
              "CUSTOMER INTEGER, STATUS VARCHAR(16), AMOUNT INTEGER);"
              "CREATE INDEX ORDERS_CUSTOMER ON ORDERS (CUSTOMER)"),
          "durable_writes schema");
    Rng rng(SubSeed(opt_.seed, 2));
    auto insert = Must(db_->Prepare("INSERT INTO ORDERS (ID, CUSTOMER, "
                                    "STATUS, AMOUNT) VALUES (?, ?, ?, ?)"),
                       "prepare ORDERS insert");
    owned_.assign(connections(), {});
    Check(db_->Begin(), "begin load");
    for (int64_t id = 0; id < rows_; ++id) {
      OrderRow row{id, static_cast<int64_t>(rng.Below(5000)),
                   static_cast<int>(rng.Below(10)),
                   static_cast<int64_t>(rng.Below(100000))};
      Check(insert
                .Execute(P({Value::Integer(row.id),
                            Value::Integer(row.customer),
                            Value::String(OrderStatus(row.status)),
                            Value::Integer(row.amount)}))
                .status(),
            "load ORDERS");
      owned_[id % connections()].push_back(row);
    }
    Check(db_->Commit(), "commit load");
  }

  void AfterSetup(const std::string& run_dir) override {
    CopyTree(data_dir_, run_dir + "/setup_image");
  }

  size_t rows_loaded() const override { return rows_; }
  sql::Database* db() override { return db_.get(); }
  std::string wal_policy() const override { return "kEveryCommit"; }
  int connections() const override { return 4; }
  std::unique_ptr<Worker> MakeWorker(int index, uint16_t port) override;

  void Verify(Report* report) override {
    // Recovery of the run's log reproduces the live database.
    uint64_t bytes = 0;
    const std::string copy = data_dir_ + "-verify";
    CopyTree(data_dir_, copy);
    bytes = TreeBytes(copy);
    auto recovered = sql::Database::Recover("verify", copy);
    if (!recovered.ok()) {
      report->Fail("recovery of the run's WAL failed: " +
                   recovered.status().ToString());
      return;
    }
    if (sql::CanonicalStateDump(**recovered) !=
        sql::CanonicalStateDump(*db_)) {
      report->Fail("recovered state differs from the live database (" +
                   std::to_string(bytes) + " WAL bytes)");
    }
    // And the live table is exactly the clients' model.
    std::vector<std::string> expected;
    for (const auto& rows : owned_) {
      for (const OrderRow& r : rows) {
        expected.push_back(std::to_string(r.id) + "|" +
                           std::to_string(r.customer) + "|" +
                           OrderStatus(r.status) + "|" +
                           std::to_string(r.amount));
      }
    }
    std::sort(expected.begin(), expected.end());
    auto rs = Must(db_->Execute("SELECT ID, CUSTOMER, STATUS, AMOUNT FROM "
                                "ORDERS"),
                   "read back ORDERS");
    if (CanonicalRows(rs) != expected) {
      report->Fail("ORDERS differs from the clients' model");
    }
  }

  std::string RecoveryImage(const std::string& run_dir) override {
    return run_dir + "/setup_image";
  }

  TableProbe table_probe() override {
    // Live keys, from the clients' model (the clients are idle now).
    auto existing = [this](Rng& rng) {
      const std::deque<OrderRow>& rows = owned_[rng.Below(owned_.size())];
      return rows[rng.Below(rows.size())].id;
    };
    TableProbe probe;
    probe.insert = [](Rng& rng) {
      const int64_t id =
          4'000'000'000LL + static_cast<int64_t>(rng.Below(1000000));
      return std::make_pair(
          std::string("INSERT INTO ORDERS (ID, CUSTOMER, STATUS, AMOUNT) "
                      "VALUES (?, ?, ?, ?)"),
          P({Value::Integer(id), Value::Integer(1), Value::String("S1"),
             Value::Integer(1)}));
    };
    probe.update = [existing](Rng& rng) {
      return std::make_pair(
          std::string("UPDATE ORDERS SET AMOUNT = ? WHERE ID = ?"),
          P({Value::Integer(7), Value::Integer(existing(rng))}));
    };
    probe.remove = [existing](Rng& rng) {
      return std::make_pair(std::string("DELETE FROM ORDERS WHERE ID = ?"),
                            P({Value::Integer(existing(rng))}));
    };
    return probe;
  }

  const Options& opt_;
  const int64_t rows_;
  std::string data_dir_;
  std::unique_ptr<sql::Database> db_;
  /// Each connection's rows, oldest first; only that connection
  /// touches them.
  std::vector<std::deque<OrderRow>> owned_;
};

class WriteWorker : public Worker {
 public:
  enum Kind { kUpdate, kInsert, kDelete, kSelect };

  WriteWorker(DurableWrites* w, int index, uint16_t port)
      : w_(w),
        index_(index),
        rows_(w->owned_[index]),
        next_id_(w->rows_ + index),
        rng_(SubSeed(w->opt_.seed, 200 + index)),
        mix_({65, 5, 5, 25}),
        client_(Connect(port, "writes-" + std::to_string(index))) {}

  Outcome Step(SpanRecorder::Track* track) override {
    Planned p = Plan();
    sqlflow::Result<sql::ResultSet> result = Status::OK();
    Outcome out = SendTimed(*client_, p.op, track, &result);
    if (!out.ok) {
      // A failed write leaves the model unsure of the row.
      out.correct = p.op.read;
      return out;
    }
    if (p.kind == kSelect) {
      out.correct = result->row_count() == 1 &&
                    CanonicalRows(*result)[0] ==
                        OrderStatus(p.row.status) + "|" +
                            std::to_string(p.row.amount);
    } else {
      out.correct = result->affected_rows() == 1;
      Apply(p);
    }
    return out;
  }

  ReplayOp NextReplayOp() override {
    Planned p = Plan();
    if (p.kind != kSelect) Apply(p);
    return p.op;
  }

 private:
  struct Planned {
    ReplayOp op;
    Kind kind = kSelect;
    size_t index = 0;
    OrderRow row;
  };

  Planned Plan() {
    Planned p;
    p.kind = static_cast<Kind>(mix_.Next(rng_));
    if (rows_.empty()) p.kind = kInsert;
    switch (p.kind) {
      case kUpdate:
        p.index = rng_.Below(rows_.size());
        p.row = rows_[p.index];
        p.row.status = static_cast<int>(rng_.Below(10));
        p.row.amount = static_cast<int64_t>(rng_.Below(100000));
        p.op = SqlOp("update", false,
                     "UPDATE ORDERS SET STATUS = '" +
                         OrderStatus(p.row.status) +
                         "', AMOUNT = " + std::to_string(p.row.amount) +
                         " WHERE ID = " + std::to_string(p.row.id));
        break;
      case kInsert:
        p.row = {next_id_, static_cast<int64_t>(rng_.Below(5000)),
                 static_cast<int>(rng_.Below(10)),
                 static_cast<int64_t>(rng_.Below(100000))};
        p.op = SqlOp("insert", false,
                     "INSERT INTO ORDERS (ID, CUSTOMER, STATUS, AMOUNT) "
                     "VALUES (" +
                         std::to_string(p.row.id) + ", " +
                         std::to_string(p.row.customer) + ", '" +
                         OrderStatus(p.row.status) + "', " +
                         std::to_string(p.row.amount) + ")");
        break;
      case kDelete:
        p.row = rows_.front();
        p.op = SqlOp("delete_oldest", false,
                     "DELETE FROM ORDERS WHERE ID = " +
                         std::to_string(p.row.id));
        break;
      case kSelect:
        p.index = rng_.Below(rows_.size());
        p.row = rows_[p.index];
        p.op = SqlOp("select", true,
                     "SELECT STATUS, AMOUNT FROM ORDERS WHERE ID = " +
                         std::to_string(p.row.id));
        break;
    }
    return p;
  }

  void Apply(const Planned& p) {
    switch (p.kind) {
      case kUpdate:
        rows_[p.index] = p.row;
        break;
      case kInsert:
        rows_.push_back(p.row);
        next_id_ += w_->connections();
        break;
      case kDelete:
        rows_.pop_front();
        break;
      case kSelect:
        break;
    }
  }

  DurableWrites* w_;
  const int index_;
  std::deque<OrderRow>& rows_;
  int64_t next_id_;
  Rng rng_;
  OpMix mix_;
  std::unique_ptr<net::Client> client_;
};

std::unique_ptr<Worker> DurableWrites::MakeWorker(int index, uint16_t port) {
  return std::make_unique<WriteWorker>(this, index, port);
}

// ============================================================================
// order_workflow: durable DurableOrderProcess instances over the wire.
// ============================================================================

std::string LedgerInsertSql(int64_t order, const std::string& item,
                            int64_t quantity) {
  return "INSERT INTO WfLedger (EntryID, OrderID, Stage, Item, Quantity, "
         "Confirmation) VALUES (NEXTVAL('WfLedgerSeq'), " +
         std::to_string(order) + ", 'reserved', " +
         sql::SqlLiteral(Value::String(item)) + ", " +
         std::to_string(quantity) + ", NULL)";
}

class OrderWorkflow : public Workload {
 public:
  explicit OrderWorkflow(const Options& opt)
      : opt_(opt), history_(opt.smoke ? 250 : 20000) {}

  void Setup(const std::string& dir) override {
    FreshDir(dir);
    data_dir_ = dir;
    db_ = std::make_unique<sql::Database>("order_workflow");
    sql::WalOptions wal;
    wal.fsync_policy = sql::FsyncPolicy::kEveryCommit;
    Check(db_->EnableDurability(dir, wal), "order_workflow durability");
    engine_ = std::make_unique<wfc::WorkflowEngine>("order-engine");
    Check(engine_->EnableDurability(db_.get()), "engine durability");
    Check(workflows::PrepareDurableOrderSchema(db_.get()), "ledger schema");
    supplier_ = workflows::MakeDurableSupplier();
    Check(workflows::RegisterDurableSupplier(engine_.get(), supplier_),
          "register supplier");
    Check(workflows::DeployDurableOrderProcess(engine_.get(), db_.get()),
          "deploy order process");
    // Past orders: a reserved and a confirmed ledger row each.
    Rng rng(SubSeed(opt_.seed, 3));
    auto insert = Must(
        db_->Prepare("INSERT INTO WfLedger (EntryID, OrderID, Stage, Item, "
                     "Quantity, Confirmation) VALUES "
                     "(NEXTVAL('WfLedgerSeq'), ?, ?, ?, ?, ?)"),
        "prepare ledger insert");
    Check(db_->Begin(), "begin history");
    for (int64_t order = 1; order <= history_; ++order) {
      const std::string item = Item(rng);
      const int64_t qty = 1 + static_cast<int64_t>(rng.Below(9));
      for (bool confirmed : {false, true}) {
        Check(insert
                  .Execute(P({Value::Integer(order),
                              Value::String(confirmed ? "confirmed"
                                                      : "reserved"),
                              Value::String(item), Value::Integer(qty),
                              confirmed ? Value::String("CONF-" + item)
                                        : Value::Null()}))
                  .status(),
              "load history");
      }
    }
    Check(db_->Commit(), "commit history");
    acked_.assign(connections(), {});
  }

  static std::string Item(Rng& rng) {
    return "item-" + std::to_string(rng.Below(50));
  }

  void AfterSetup(const std::string& run_dir) override {
    CopyTree(data_dir_, run_dir + "/setup_image");
  }

  size_t rows_loaded() const override { return 2 * history_; }
  Primary primary() const override { return Primary::kWrites; }
  sql::Database* db() override { return db_.get(); }
  wfc::WorkflowEngine* engine() override { return engine_.get(); }
  std::string wal_policy() const override { return "kEveryCommit"; }
  /// Instance starts serialize on the server's workflow lock, so two
  /// clients keep it busy; more only queue on it.
  int connections() const override { return 2; }
  std::unique_ptr<Worker> MakeWorker(int index, uint16_t port) override;

  void Verify(Report* report) override {
    // Exactly two ledger rows per acknowledged instance (and per past
    // order), and one supplier call per instance run.
    auto rs = Must(db_->Execute("SELECT OrderID, COUNT(*) FROM WfLedger "
                                "GROUP BY OrderID"),
                   "ledger counts");
    std::map<int64_t, int64_t> counts;
    int64_t total = 0;
    for (const sql::Row& row : rs.rows()) {
      counts[row[0].AsInteger().value()] = row[1].AsInteger().value();
      total += row[1].AsInteger().value();
    }
    std::vector<int64_t> orders = probe_orders_;
    for (const auto& list : acked_) {
      orders.insert(orders.end(), list.begin(), list.end());
    }
    const size_t instances = orders.size();
    for (int64_t order = 1; order <= history_; ++order) orders.push_back(order);
    size_t wrong = 0;
    for (int64_t order : orders) wrong += counts[order] != 2;
    if (wrong > 0 || total != 2 * static_cast<int64_t>(orders.size())) {
      report->Fail(std::to_string(wrong) + " orders without exactly two "
                   "ledger rows (" + std::to_string(total) + " rows for " +
                   std::to_string(orders.size()) + " orders)");
    }
    if (supplier_->inner_invocations() != instances) {
      report->Fail("supplier invoked " +
                   std::to_string(supplier_->inner_invocations()) +
                   " times for " + std::to_string(instances) + " instances");
    }
  }

  std::string RecoveryImage(const std::string& run_dir) override {
    return run_dir + "/setup_image";
  }

  TableProbe table_probe() override {
    const int64_t entries = 2 * history_;
    auto existing = [entries](Rng& rng) {
      return 1 + static_cast<int64_t>(rng.Below(entries));
    };
    TableProbe probe;
    probe.insert = [](Rng& rng) {
      return std::make_pair(
          LedgerInsertSql(-1 - static_cast<int64_t>(rng.Below(1000)),
                          "probe", 1),
          Params());
    };
    probe.update = [existing](Rng& rng) {
      return std::make_pair(
          std::string("UPDATE WfLedger SET Quantity = ? WHERE EntryID = ?"),
          P({Value::Integer(7), Value::Integer(existing(rng))}));
    };
    probe.remove = [existing](Rng& rng) {
      return std::make_pair(
          std::string("DELETE FROM WfLedger WHERE EntryID = ?"),
          P({Value::Integer(existing(rng))}));
    };
    return probe;
  }

  bool RunProcessProbe(int count, std::vector<double>* us,
                       double* supplier_calls_per_instance) override {
    const uint64_t calls0 = supplier_->inner_invocations();
    for (int i = 0; i < count; ++i) {
      const int64_t order = 3'000'000'000LL + i;
      std::map<std::string, wfc::VarValue> inputs = {
          {"OrderID", wfc::VarValue(Value::Integer(order))},
          {"Item", wfc::VarValue(Value::String("probe"))},
          {"Quantity", wfc::VarValue(Value::Integer(1 + i % 9))}};
      const int64_t t0 = NowNs();
      auto result =
          engine_->RunProcess(workflows::kDurableOrderProcess, inputs);
      us->push_back((NowNs() - t0) / 1e3);
      Check(result.status(), "run process probe");
      Check(result->status, "run process probe instance");
      probe_orders_.push_back(order);
    }
    *supplier_calls_per_instance =
        static_cast<double>(supplier_->inner_invocations() - calls0) / count;
    return true;
  }

  const Options& opt_;
  const int64_t history_;
  std::string data_dir_;
  std::unique_ptr<sql::Database> db_;
  std::unique_ptr<wfc::WorkflowEngine> engine_;
  std::shared_ptr<wfc::IdempotentService> supplier_;
  /// Orders whose instance start was acknowledged, per connection.
  std::vector<std::vector<int64_t>> acked_;
  std::vector<int64_t> probe_orders_;
};

class OrderWorker : public Worker {
 public:
  OrderWorker(OrderWorkflow* w, int index, uint16_t port)
      : w_(w),
        index_(index),
        acked_(w->acked_[index]),
        next_order_(w->history_ + 1 + index),
        rng_(SubSeed(w->opt_.seed, 300 + index)),
        client_(Connect(port, "orders-" + std::to_string(index))) {}

  Outcome Step(SpanRecorder::Track* track) override {
    const bool audit = pending_instance_ != 0;
    ReplayOp op = audit ? AuditOp(pending_instance_, pending_order_)
                        : StartOp();
    sqlflow::Result<sql::ResultSet> result = Status::OK();
    Outcome out = SendTimed(*client_, op, track, &result);
    if (audit) {
      pending_instance_ = 0;
      if (out.ok) out.correct = Completed(*result);
      return out;
    }
    if (!out.ok) return out;
    out.correct = result->row_count() == 1;
    if (out.correct) {
      acked_.push_back(pending_order_);
      pending_instance_ =
          static_cast<uint64_t>(result->rows()[0][0].AsInteger().value());
    }
    return out;
  }

  ReplayOp NextReplayOp() override {
    if (replay_instance_ != 0) {
      const uint64_t id = replay_instance_;
      replay_instance_ = 0;
      return AuditOp(id, pending_order_);
    }
    return StartOp();
  }

  void Acknowledge(const ReplayOp& op, const net::Response& response) override {
    if (op.request.type != net::MessageType::kStartInstance) return;
    acked_.push_back(pending_order_);
    replay_instance_ =
        static_cast<uint64_t>(response.result.rows()[0][0].AsInteger().value());
  }

 private:
  ReplayOp StartOp() {
    pending_order_ = next_order_;
    next_order_ += w_->connections();
    const std::string item = OrderWorkflow::Item(rng_);
    const int64_t qty = 1 + static_cast<int64_t>(rng_.Below(9));
    ReplayOp op;
    op.op = "start_instance";
    op.read = false;
    op.request.type = net::MessageType::kStartInstance;
    op.request.target = workflows::kDurableOrderProcess;
    op.request.args = {{"OrderID", Value::Integer(pending_order_)},
                       {"Item", Value::String(item)},
                       {"Quantity", Value::Integer(qty)}};
    // The statement the instance's first step runs.
    op.sql = LedgerInsertSql(pending_order_, item, qty);
    return op;
  }

  /// Reads back a finished instance; its SQL analogue reads the order's
  /// ledger rows.
  static ReplayOp AuditOp(uint64_t instance, int64_t order) {
    ReplayOp op;
    op.op = "query_audit";
    op.read = true;
    op.request.type = net::MessageType::kQueryAudit;
    op.request.instance_id = instance;
    op.sql = "SELECT EntryID, Stage FROM WfLedger WHERE OrderID = " +
             std::to_string(order);
    return op;
  }

  static bool Completed(const sql::ResultSet& audit) {
    for (const sql::Row& row : audit.rows()) {
      if (row[1].AsString() == "instance-completed") return true;
    }
    return false;
  }

  OrderWorkflow* w_;
  const int index_;
  std::vector<int64_t>& acked_;
  int64_t next_order_;
  int64_t pending_order_ = 0;
  uint64_t pending_instance_ = 0;
  uint64_t replay_instance_ = 0;
  Rng rng_;
  std::unique_ptr<net::Client> client_;
};

std::unique_ptr<Worker> OrderWorkflow::MakeWorker(int index, uint16_t port) {
  return std::make_unique<OrderWorker>(this, index, port);
}

// ============================================================================
// process_analytics: monitoring queries over a growing audit trail.
// ============================================================================

/// One scheduled append: a new instance row, or one event of it.
struct Append {
  bool instance = false;
  int workflow = 0;
  AuditEvent event;
  int prev_activity = -1;  // the instance's previous event, if any
};

/// Reference answers of the four monitoring queries, advanced one
/// append at a time.
class AnalyticsModel {
 public:
  void AddEvent(const AuditEvent& e, int workflow, int prev_activity) {
    const std::string status = kStatuses[e.status];
    auto& s = by_status_[status];
    s.first++;
    s.second += e.duration_ms;
    auto& w = by_workflow_[workflow];
    w.first++;
    w.second += e.duration_ms;
    if (prev_activity >= 0) follows_[{prev_activity, e.activity}]++;
    if (e.duration_ms > 490 && status == "ok") {
      filter_.push_back(std::to_string(e.id) + "|" + kActivities[e.activity]);
    }
  }

  void Apply(const Append& a) {
    if (!a.instance) AddEvent(a.event, a.workflow, a.prev_activity);
    ++applied_;
  }
  size_t applied() const { return applied_; }

  std::vector<std::string> Rows(size_t query) const {
    std::vector<std::string> rows;
    auto avg = [](const std::pair<int64_t, int64_t>& cs) {
      return CanonicalValue(Value::Double(static_cast<double>(cs.second) /
                                          static_cast<double>(cs.first)));
    };
    switch (query) {
      case 0:
        for (const auto& [status, cs] : by_status_) {
          rows.push_back(status + "|" + std::to_string(cs.first) + "|" +
                         std::to_string(cs.second) + "|" + avg(cs));
        }
        break;
      case 1:
        rows = filter_;
        break;
      case 2:
        for (const auto& [workflow, cs] : by_workflow_) {
          rows.push_back(WorkflowName(workflow) + "|" +
                         std::to_string(cs.first) + "|" + avg(cs));
        }
        break;
      default:
        for (const auto& [pair, count] : follows_) {
          rows.push_back(std::string(kActivities[pair.first]) + "|" +
                         kActivities[pair.second] + "|" +
                         std::to_string(count));
        }
        break;
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

 private:
  std::map<std::string, std::pair<int64_t, int64_t>> by_status_;
  std::map<int, std::pair<int64_t, int64_t>> by_workflow_;
  std::map<std::pair<int, int>, int64_t> follows_;
  std::vector<std::string> filter_;
  size_t applied_ = 0;
};

constexpr char kAppendEvent[] =
    "INSERT INTO audit_events VALUES (?, ?, ?, ?, ?, ?, ?)";
constexpr char kAppendInstance[] = "INSERT INTO instances VALUES (?, ?)";

ReplayOp AppendOp(const Append& a) {
  if (a.instance) {
    return SqlOp("append_instance", false, kAppendInstance,
                 P({Value::Integer(a.event.instance),
                    Value::String(WorkflowName(a.workflow))}));
  }
  const AuditEvent& e = a.event;
  return SqlOp("append_event", false, kAppendEvent,
               P({Value::Integer(e.id), Value::Integer(e.instance),
                  Value::Integer(e.seq), Value::Integer(e.seq + 1),
                  Value::String(kActivities[e.activity]),
                  Value::String(kStatuses[e.status]),
                  Value::Integer(e.duration_ms)}));
}

class ProcessAnalytics : public Workload {
 public:
  explicit ProcessAnalytics(const Options& opt)
      : opt_(opt),
        events_(opt.smoke ? 4000 : 10000),
        rate_per_s_(20) {}

  void Setup(const std::string& dir) override {
    FreshDir(dir);
    data_dir_ = dir;
    db_ = std::make_unique<sql::Database>("process_analytics");
    // Durable with the program's default WAL options.
    Check(db_->EnableDurability(dir), "process_analytics durability");
    LoadAuditTables(db_.get(), SubSeed(opt_.seed, 4), events_, &base_events_,
                    &workflows_);
  }

  void AfterSetup(const std::string& run_dir) override {
    CopyTree(data_dir_, run_dir + "/setup_image");
    for (const AuditEvent& e : base_events_) {
      base_.AddEvent(e, workflows_[e.instance],
                     e.seq > 0 ? base_events_[e.id - 1].activity : -1);
    }
    // The append schedule: new instances of 20 events each.
    Rng rng(SubSeed(opt_.seed, 5));
    const size_t count =
        static_cast<size_t>(rate_per_s_ * opt_.seconds) + 1;
    int64_t event_id = events_;
    for (int64_t instance = static_cast<int64_t>(workflows_.size());
         appends_.size() < count; ++instance) {
      Append head;
      head.instance = true;
      head.workflow = static_cast<int>(rng.Below(kWorkflowKinds));
      head.event.instance = instance;
      appends_.push_back(head);
      int prev = -1;
      for (int64_t seq = 0; seq < kEventsPerInstance; ++seq) {
        Append a;
        a.workflow = head.workflow;
        a.event = {event_id++, instance, seq,
                   static_cast<int>(rng.Below(8)),
                   static_cast<int>(rng.Below(6)),
                   1 + static_cast<int64_t>(rng.Below(500))};
        a.prev_activity = prev;
        prev = a.event.activity;
        appends_.push_back(a);
      }
    }
  }

  Primary primary() const override { return Primary::kReads; }

  size_t rows_loaded() const override {
    return base_events_.size() + workflows_.size();
  }
  sql::Database* db() override { return db_.get(); }
  sql::Database* audit_db() override { return db_.get(); }
  std::string wal_policy() const override {
    return sql::FsyncPolicyName(sql::WalOptions().fsync_policy);
  }
  int connections() const override { return 1; }
  std::unique_ptr<Worker> MakeWorker(int index, uint16_t port) override;

  /// Open-loop appender on a second connection: append i is due at
  /// start + i / rate, whether or not earlier ones finished.
  void StartBackground(uint16_t port, int64_t start_ns,
                       int64_t end_ns) override {
    appender_ = std::thread([this, port, start_ns, end_ns] {
      auto client = Connect(port, "appender");
      const double interval_ns = 1e9 / rate_per_s_;
      for (size_t i = 0; i < appends_.size(); ++i) {
        const int64_t due = start_ns + static_cast<int64_t>(i * interval_ns);
        if (due >= end_ns) break;
        while (NowNs() < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<int64_t>(due - NowNs(), 200'000)));
        }
        const int64_t sent = NowNs();
        ReplayOp op = AppendOp(appends_[i]);
        auto result = Send(*client, op);
        bg_attempted_++;
        for (int retry = 0; retry < 20 && !result.ok(); ++retry) {
          bg_failed_++;
          result = Send(*client, op);
        }
        if (!result.ok()) {
          append_broken_ = true;
          break;
        }
        write_us_.push_back((NowNs() - due) / 1e3);
        late_us_.push_back((sent - due) / 1e3);
        acked_.store(i + 1, std::memory_order_release);
      }
      client->Close();
    });
  }

  void StopBackground() override {
    if (appender_.joinable()) appender_.join();
  }
  std::vector<double> BackgroundWriteUs() const override { return write_us_; }
  std::vector<double> BackgroundLateUs() const override { return late_us_; }
  uint64_t background_attempted() const override { return bg_attempted_; }
  uint64_t background_failed() const override { return bg_failed_; }

  void Verify(Report* report) override {
    if (append_broken_) report->Fail("an append kept failing");
    const size_t acked = acked_.load();
    size_t events = base_events_.size() + replay_appends_;
    size_t instances = workflows_.size();
    for (size_t i = 0; i < acked; ++i) {
      (appends_[i].instance ? instances : events)++;
    }
    auto count = [&](const char* table) {
      auto rs = Must(db_->Execute(std::string("SELECT COUNT(*) FROM ") + table),
                     "count");
      return static_cast<size_t>(rs.rows()[0][0].AsInteger().value());
    };
    if (count("audit_events") != events || count("instances") != instances) {
      report->Fail("audit tables lost or duplicated appends");
    }
  }

  std::string RecoveryImage(const std::string& run_dir) override {
    return run_dir + "/setup_image";
  }

  TableProbe table_probe() override {
    const int64_t events = events_;
    auto existing = [events](Rng& rng) {
      return static_cast<int64_t>(rng.Below(events));
    };
    TableProbe probe;
    probe.insert = [](Rng& rng) {
      const int64_t id =
          5'000'000'000LL + static_cast<int64_t>(rng.Below(1000000));
      return std::make_pair(
          std::string(kAppendEvent),
          P({Value::Integer(id), Value::Integer(-1), Value::Integer(0),
             Value::Integer(1), Value::String("probe"), Value::String("ok"),
             Value::Integer(1)}));
    };
    probe.update = [existing](Rng& rng) {
      return std::make_pair(
          std::string("UPDATE audit_events SET duration_ms = ? WHERE id = ?"),
          P({Value::Integer(7), Value::Integer(existing(rng))}));
    };
    probe.remove = [existing](Rng& rng) {
      return std::make_pair(
          std::string("DELETE FROM audit_events WHERE id = ?"),
          P({Value::Integer(existing(rng))}));
    };
    return probe;
  }

  const Options& opt_;
  const int64_t events_;
  const double rate_per_s_;
  std::string data_dir_;
  std::unique_ptr<sql::Database> db_;
  std::vector<AuditEvent> base_events_;
  std::vector<int> workflows_;
  AnalyticsModel base_;
  std::vector<Append> appends_;
  std::atomic<size_t> acked_{0};
  std::thread appender_;
  std::vector<double> write_us_;
  std::vector<double> late_us_;
  uint64_t bg_attempted_ = 0;
  uint64_t bg_failed_ = 0;
  bool append_broken_ = false;
  /// Events appended by the layer replay of a traced run.
  size_t replay_appends_ = 0;
};

class QueryWorker : public Worker {
 public:
  QueryWorker(ProcessAnalytics* w, uint16_t port)
      : w_(w), model_(w->base_), client_(Connect(port, "monitor")) {}

  Outcome Step(SpanRecorder::Track* track) override {
    const size_t query = next_++ % AnalyticsQueries().size();
    const AnalyticsQuery& q = AnalyticsQueries()[query];
    const size_t low = w_->acked_.load(std::memory_order_acquire);
    sqlflow::Result<sql::ResultSet> result = Status::OK();
    Outcome out = SendTimed(*client_, SqlOp(q.name, true, q.sql), track,
                            &result);
    if (!out.ok) return out;
    const size_t high =
        std::min(w_->acked_.load(std::memory_order_acquire) + 1,
                 w_->appends_.size());
    out.correct = Matches(query, CanonicalRows(*result), low, high);
    return out;
  }

  ReplayOp NextReplayOp() override {
    // Four monitoring queries, then one append past the schedule.
    const size_t slot = next_++ % (AnalyticsQueries().size() + 1);
    if (slot < AnalyticsQueries().size()) {
      const AnalyticsQuery& q = AnalyticsQueries()[slot];
      return SqlOp(q.name, true, q.sql);
    }
    Append a;
    a.event = {10'000'000'000LL + static_cast<int64_t>(next_), -1, 0, 0, 0,
               1};
    return AppendOp(a);
  }

  void Acknowledge(const ReplayOp& op, const net::Response&) override {
    if (!op.read) w_->replay_appends_++;
  }

 private:
  /// The answer must equal the reference over some prefix of the
  /// appends that could have been visible: at least those acknowledged
  /// before the query was sent, at most one more than acknowledged after.
  bool Matches(size_t query, const std::vector<std::string>& rows,
               size_t low, size_t high) {
    while (model_.applied() < low) model_.Apply(w_->appends_[model_.applied()]);
    AnalyticsModel candidate = model_;
    for (size_t n = low;; ++n) {
      if (candidate.Rows(query) == rows) return true;
      if (n >= high) return false;
      candidate.Apply(w_->appends_[n]);
    }
  }

  ProcessAnalytics* w_;
  AnalyticsModel model_;
  size_t next_ = 0;
  std::unique_ptr<net::Client> client_;
};

std::unique_ptr<Worker> ProcessAnalytics::MakeWorker(int, uint16_t port) {
  return std::make_unique<QueryWorker>(this, port);
}

}  // namespace

void LoadAuditTables(sql::Database* db, uint64_t seed, int64_t events,
                     std::vector<AuditEvent>* events_out,
                     std::vector<int>* workflows_out) {
  Check(db->ExecuteScript(
            "CREATE TABLE audit_events (id INTEGER PRIMARY KEY, "
            "instance_id INTEGER, seq INTEGER, nxt INTEGER, "
            "activity VARCHAR(16), status VARCHAR(8), duration_ms INTEGER);"
            "CREATE TABLE instances (id INTEGER PRIMARY KEY, "
            "workflow VARCHAR(16))"),
        "audit schema");
  Rng rng(seed);
  const int64_t instances = events / kEventsPerInstance;
  auto insert_instance =
      Must(db->Prepare(kAppendInstance), "prepare instance insert");
  auto insert_event = Must(db->Prepare(kAppendEvent), "prepare event insert");
  Check(db->Begin(), "begin audit load");
  for (int64_t i = 0; i < instances; ++i) {
    const int workflow = static_cast<int>(rng.Below(kWorkflowKinds));
    if (workflows_out != nullptr) workflows_out->push_back(workflow);
    Check(insert_instance
              .Execute(P({Value::Integer(i),
                          Value::String(WorkflowName(workflow))}))
              .status(),
          "load instances");
  }
  for (int64_t i = 0; i < instances * kEventsPerInstance; ++i) {
    AuditEvent e{i, i / kEventsPerInstance, i % kEventsPerInstance,
                 static_cast<int>(rng.Below(8)),
                 static_cast<int>(rng.Below(6)),
                 1 + static_cast<int64_t>(rng.Below(500))};
    if (events_out != nullptr) events_out->push_back(e);
    Append a;
    a.event = e;
    ReplayOp op = AppendOp(a);
    Check(insert_event.Execute(op.params).status(), "load events");
  }
  Check(db->Commit(), "commit audit load");
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  const std::string& name = options.workload;
  if (name == "served_point") return std::make_unique<ServedPoint>(options);
  if (name == "durable_writes") return std::make_unique<DurableWrites>(options);
  if (name == "order_workflow") return std::make_unique<OrderWorkflow>(options);
  if (name == "process_analytics") {
    return std::make_unique<ProcessAnalytics>(options);
  }
  Die("unknown workload " + name);
}

}  // namespace perfbench
