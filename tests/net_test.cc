// Wire-protocol suite: message codec roundtrips, client/server
// end-to-end execution, protocol hardening (malformed frames, CRC
// mismatches, oversized messages, half-closes, garbage before the
// handshake), admission control and load shedding, inline-versus-queued
// dispatch under the execution-slot bound, deadline kills, graceful
// drain, sys.connections, the durable request ledger (exactly-once
// keyed requests), and the RemoteService bridge.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/remote_service.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "sql/introspect.h"
#include "sql/wal.h"
#include "wfc/engine.h"
#include "wfc/service.h"
#include "workflows/durable_order.h"

namespace sqlflow {
namespace {

namespace fs = std::filesystem;

using net::Client;
using net::ClientOptions;
using net::FrameIo;
using net::MessageType;
using net::Request;
using net::Response;
using net::Server;
using net::ServerOptions;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/sqlflow_net_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

/// A raw loopback TCP connection, for tests that speak (or violate) the
/// wire protocol below the Client abstraction.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void WriteAll(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return;  // peer already closed — fine for these tests
      off += static_cast<size_t>(n);
    }
  }

  /// Frame I/O over the raw fd (no injector, generous deadline).
  FrameIo Io() const {
    FrameIo io;
    io.fd = fd_;
    io.deadline_ms = 5000;
    return io;
  }

  /// Drains until EOF or error; true when the server closed within
  /// `budget_ms`. Any payload bytes still in flight are discarded.
  bool WaitForClose(int budget_ms = 5000) {
    struct timeval tv{};
    tv.tv_sec = budget_ms / 1000;
    tv.tv_usec = (budget_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char buf[512];
    while (true) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;   // clean close
      if (n < 0) return false;   // timeout — server kept it open
    }
  }

  /// Wraps `payload` in the protocol's [len][crc][payload] frame.
  static std::string Frame(std::string_view payload) {
    std::string wire;
    sql::WalPutU32(wire, static_cast<uint32_t>(payload.size()));
    sql::WalPutU32(wire, sql::WalCrc32(payload.data(), payload.size()));
    wire.append(payload);
    return wire;
  }

  /// Performs a valid handshake; true on kHelloOk.
  bool Handshake(const std::string& name = "raw") {
    if (net::SendFrame(Io(), net::EncodeHello(name)).ok() == false) {
      return false;
    }
    auto reply = net::RecvFrame(Io(), 5000);
    if (!reply.ok()) return false;
    return net::DecodeHelloOk(*reply).ok();
  }

 private:
  int fd_ = -1;
};

/// One database + workflow engine + running server, with defaults most
/// tests share. Tests tweak `options` before Start().
struct TestServer {
  sql::Database db{"netdb"};
  wfc::WorkflowEngine engine{"netengine"};
  ServerOptions options;
  std::unique_ptr<Server> server;

  Status Start() {
    server = std::make_unique<Server>(&db, &engine, options);
    return server->Start();
  }

  ClientOptions ClientFor(const std::string& name = "client",
                          int max_attempts = 1) const {
    ClientOptions copts;
    copts.port = server->port();
    copts.client_name = name;
    copts.max_attempts = max_attempts;
    copts.retry_backoff_ms = 1;
    return copts;
  }
};

/// Backs a workflow service that parks every call until Release() and
/// records how many calls were inside it at once.
class Latch {
 public:
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    ++inside_;
    peak_ = std::max(peak_, inside_);
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    --inside_;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  bool WaitEntered(int calls) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return entered_ >= calls; });
  }
  int entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }
  int peak() {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  /// A service named "Hold" whose every call passes this latch.
  std::shared_ptr<wfc::WebService> Service() {
    return std::make_shared<wfc::SimpleWebService>(
        "Hold", std::vector<std::string>{},
        [this](const std::vector<Value>&) -> Result<Value> {
          Pass();
          return Value::Integer(1);
        });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  int entered_ = 0;
  int inside_ = 0;
  int peak_ = 0;
};

/// Polls `done` every millisecond for up to five seconds.
bool WaitUntil(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --- codec roundtrips -------------------------------------------------------

TEST(NetProtocolTest, HelloRoundtripAndMagicCheck) {
  auto name = net::DecodeHello(net::EncodeHello("alice"));
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(*name, "alice");

  // Same layout, wrong magic: must be refused (this is what a
  // non-protocol peer's first frame decodes as at best).
  std::string bogus;
  bogus.push_back(static_cast<char>(MessageType::kHello));
  sql::WalPutU32(bogus, 0xDEADBEEF);
  sql::WalPutU32(bogus, net::kProtocolVersion);
  sql::WalPutString(bogus, "alice");
  EXPECT_FALSE(net::DecodeHello(bogus).ok());

  auto hello_ok = net::DecodeHelloOk(net::EncodeHelloOk("srv", 42));
  ASSERT_TRUE(hello_ok.ok());
  EXPECT_EQ(hello_ok->first, "srv");
  EXPECT_EQ(hello_ok->second, 42u);
}

TEST(NetProtocolTest, RequestRoundtripPreservesEveryField) {
  Request request;
  request.type = MessageType::kExecuteSql;
  request.request_id = 7;
  request.idempotency_key = "key-7";
  request.sql = "SELECT * FROM t WHERE a = ? AND b = :b";
  request.params.positional.push_back(Value::Integer(3));
  request.params.named["b"] = Value::String("x");

  auto decoded = net::DecodeRequest(net::EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kExecuteSql);
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->idempotency_key, "key-7");
  EXPECT_EQ(decoded->sql, request.sql);
  ASSERT_EQ(decoded->params.positional.size(), 1u);
  EXPECT_EQ(decoded->params.positional[0].AsString(), "3");
  ASSERT_EQ(decoded->params.named.count("b"), 1u);
  EXPECT_EQ(decoded->params.named.at("b").AsString(), "x");

  Request start;
  start.type = MessageType::kStartInstance;
  start.request_id = 9;
  start.idempotency_key = "wf-1";
  start.target = "OrderProcess";
  start.args.emplace_back("OrderID", Value::Integer(12));
  start.args.emplace_back("Item", Value::String("bolt"));
  auto start2 = net::DecodeRequest(net::EncodeRequest(start));
  ASSERT_TRUE(start2.ok());
  EXPECT_EQ(start2->type, MessageType::kStartInstance);
  EXPECT_EQ(start2->target, "OrderProcess");
  ASSERT_EQ(start2->args.size(), 2u);
  EXPECT_EQ(start2->args[0].first, "OrderID");
  EXPECT_EQ(start2->args[1].second.AsString(), "bolt");

  Request audit;
  audit.type = MessageType::kQueryAudit;
  audit.instance_id = 31;
  auto audit2 = net::DecodeRequest(net::EncodeRequest(audit));
  ASSERT_TRUE(audit2.ok());
  EXPECT_EQ(audit2->instance_id, 31u);
}

TEST(NetProtocolTest, ResponseRoundtripCarriesStatusAndRows) {
  Response response;
  response.request_id = 11;
  response.status = Status::NotFound("no such thing");
  auto decoded = net::DecodeResponse(net::EncodeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, 11u);
  EXPECT_EQ(decoded->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded->status.message(), "no such thing");

  Response rows;
  rows.request_id = 12;
  rows.result = sql::ResultSet({"A", "B"});
  rows.result.AddRow({Value::Integer(1), Value::String("x")});
  rows.result.AddRow({Value::Null(), Value::Boolean(true)});
  rows.result.set_affected_rows(2);
  auto decoded2 = net::DecodeResponse(net::EncodeResponse(rows));
  ASSERT_TRUE(decoded2.ok());
  ASSERT_EQ(decoded2->result.column_count(), 2u);
  EXPECT_EQ(decoded2->result.column_names()[1], "B");
  ASSERT_EQ(decoded2->result.row_count(), 2u);
  EXPECT_EQ(decoded2->result.rows()[0][0].AsString(), "1");
  EXPECT_EQ(decoded2->result.rows()[1][0].type(), ValueType::kNull);
  EXPECT_EQ(decoded2->result.affected_rows(), 2);
}

TEST(NetProtocolTest, LedgerOutcomeRoundtrips) {
  sql::ResultSet rs({"INSTANCE_ID"});
  rs.AddRow({Value::Integer(99)});
  std::string encoded =
      net::EncodeOutcome(Status::Unavailable("later"), rs);
  Status status;
  sql::ResultSet back;
  ASSERT_TRUE(net::DecodeOutcome(encoded, &status, &back).ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "later");
  ASSERT_EQ(back.row_count(), 1u);
  EXPECT_EQ(back.rows()[0][0].AsString(), "99");
}

// --- end-to-end execution ---------------------------------------------------

TEST(NetServerTest, PingAndSqlRoundtrip) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());

  Client client(ts.ClientFor("alice"));
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.server_name(), "sqlflow");
  EXPECT_GT(client.session_id(), 0u);
  ASSERT_TRUE(client.Ping().ok());

  ASSERT_TRUE(client
                  .ExecuteSql("CREATE TABLE t (id INTEGER, name VARCHAR)")
                  .ok());
  auto insert = client.ExecuteSql(
      "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->affected_rows(), 3);

  // Parameterized statements travel with their binding values.
  sql::Params params;
  params.positional.push_back(Value::Integer(2));
  auto rows = client.ExecuteSql("SELECT name FROM t WHERE id >= ? "
                                "ORDER BY id",
                                params);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->row_count(), 2u);
  EXPECT_EQ(rows->rows()[0][0].AsString(), "b");
  EXPECT_EQ(rows->rows()[1][0].AsString(), "c");

  // SQL errors come back in-band as statuses, not dead connections.
  auto bad = client.ExecuteSql("SELECT * FROM missing_table");
  EXPECT_FALSE(bad.ok());
  ASSERT_TRUE(client.Ping().ok());

  EXPECT_GE(ts.server->stats().requests, 5u);
  EXPECT_EQ(ts.server->stats().accepted, 1u);
}

TEST(NetServerTest, ConnectionsGetPrivateTransactions) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  Client a(ts.ClientFor("a"));
  Client b(ts.ClientFor("b"));
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());

  ASSERT_TRUE(a.ExecuteSql("CREATE TABLE t (id INTEGER)").ok());
  ASSERT_TRUE(a.ExecuteSql("BEGIN").ok());
  ASSERT_TRUE(a.ExecuteSql("INSERT INTO t VALUES (1)").ok());

  // b's session must not see a's uncommitted insert.
  auto before = b.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->rows()[0][0].AsString(), "0");

  ASSERT_TRUE(a.ExecuteSql("COMMIT").ok());
  auto after = b.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows()[0][0].AsString(), "1");
}

// --- the durable request ledger ---------------------------------------------

TEST(NetServerTest, KeyedSqlIsExactlyOnceAcrossRetriesAndRestart) {
  std::string dir = FreshDir("keyed_sql");
  TestServer ts;
  ASSERT_TRUE(ts.db.EnableDurability(dir).ok());
  ASSERT_TRUE(ts.Start().ok());

  Client client(ts.ClientFor());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.ExecuteSql("CREATE TABLE t (id INTEGER)").ok());

  auto first = client.ExecuteSql("INSERT INTO t VALUES (1)", {}, "k1");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->affected_rows(), 1);

  // The same key again — even from a different connection — replays the
  // recorded outcome instead of re-executing.
  Client other(ts.ClientFor("other"));
  ASSERT_TRUE(other.Connect().ok());
  auto replay = other.ExecuteSql("INSERT INTO t VALUES (1)", {}, "k1");
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->affected_rows(), 1);  // the *recorded* outcome
  auto count = client.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows()[0][0].AsString(), "1");

  // A failed keyed statement is not recorded: a retry re-executes (and
  // can succeed once the failure cause is gone).
  auto bad = client.ExecuteSql("INSERT INTO nope VALUES (1)", {}, "k2");
  EXPECT_FALSE(bad.ok());
  ASSERT_TRUE(client.ExecuteSql("CREATE TABLE nope (id INTEGER)").ok());
  auto retried = client.ExecuteSql("INSERT INTO nope VALUES (1)", {}, "k2");
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();

  // Crash-restart the whole stack: the ledger rides the WAL, so the
  // keys still dedupe on the recovered image.
  ts.server->Stop();
  auto recovered = sql::Database::Recover("netdb2", dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Server server2(recovered->get(), nullptr, ServerOptions{});
  ASSERT_TRUE(server2.Start().ok());
  ClientOptions copts;
  copts.port = server2.port();
  Client again(copts);
  ASSERT_TRUE(again.Connect().ok());
  auto replay2 = again.ExecuteSql("INSERT INTO t VALUES (1)", {}, "k1");
  ASSERT_TRUE(replay2.ok()) << replay2.status().ToString();
  auto count2 = again.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count2.ok());
  EXPECT_EQ(count2->rows()[0][0].AsString(), "1");
}

// --- workflow + service endpoints -------------------------------------------

TEST(NetServerTest, StartInstanceRunsWorkflowExactlyOnce) {
  std::string dir = FreshDir("wf_start");
  TestServer ts;
  ASSERT_TRUE(ts.db.EnableDurability(dir).ok());
  ASSERT_TRUE(ts.engine.EnableDurability(&ts.db).ok());
  ASSERT_TRUE(workflows::PrepareDurableOrderSchema(&ts.db).ok());
  auto supplier = workflows::MakeDurableSupplier();
  ASSERT_TRUE(
      workflows::RegisterDurableSupplier(&ts.engine, supplier).ok());
  ASSERT_TRUE(
      workflows::DeployDurableOrderProcess(&ts.engine, &ts.db).ok());
  ASSERT_TRUE(ts.Start().ok());

  Client client(ts.ClientFor());
  ASSERT_TRUE(client.Connect().ok());

  std::vector<std::pair<std::string, Value>> args = {
      {"OrderID", Value::Integer(1)},
      {"Item", Value::String("bolt")},
      {"Quantity", Value::Integer(5)}};
  auto started = client.StartInstance(workflows::kDurableOrderProcess,
                                      args, "order-1");
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_EQ(started->row_count(), 1u);
  auto id = started->rows()[0][0].AsInteger();
  ASSERT_TRUE(id.ok());

  auto ledger = workflows::ReadDurableLedger(&ts.db);
  ASSERT_TRUE(ledger.ok());
  EXPECT_EQ(ledger->row_count(), 2u);  // reserve + record
  EXPECT_EQ(supplier->inner_invocations(), 1u);

  // Keyed repeat: same instance id back, no new ledger rows, no new
  // supplier call.
  auto repeat = client.StartInstance(workflows::kDurableOrderProcess,
                                     args, "order-1");
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(repeat->rows()[0][0].AsString(),
            started->rows()[0][0].AsString());
  ledger = workflows::ReadDurableLedger(&ts.db);
  ASSERT_TRUE(ledger.ok());
  EXPECT_EQ(ledger->row_count(), 2u);
  EXPECT_EQ(supplier->inner_invocations(), 1u);

  // The audit trail of the finished instance is queryable over the wire.
  auto audit = client.QueryAudit(static_cast<uint64_t>(*id));
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_GT(audit->row_count(), 0u);
  bool saw_invoke = false;
  int activity_col = audit->FindColumn("ACTIVITY");
  ASSERT_GE(activity_col, 0);
  for (const sql::Row& row : audit->rows()) {
    if (row[static_cast<size_t>(activity_col)].AsString() ==
        workflows::kStepInvoke) {
      saw_invoke = true;
    }
  }
  EXPECT_TRUE(saw_invoke);

  auto missing = client.QueryAudit(999999);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(NetServerTest, InvokeServiceAndRemoteServiceBridge) {
  TestServer ts;
  auto adder = std::make_shared<wfc::SimpleWebService>(
      "Add", std::vector<std::string>{"A", "B"},
      [](const std::vector<Value>& args) -> Result<Value> {
        SQLFLOW_ASSIGN_OR_RETURN(int64_t a, args[0].AsInteger());
        SQLFLOW_ASSIGN_OR_RETURN(int64_t b, args[1].AsInteger());
        return Value::Integer(a + b);
      });
  auto dedup = std::make_shared<wfc::IdempotentService>(adder);
  ASSERT_TRUE(ts.engine.services().Register(dedup).ok());
  ASSERT_TRUE(ts.Start().ok());

  auto client = std::make_shared<Client>(ts.ClientFor());
  ASSERT_TRUE(client->Connect().ok());

  auto sum = client->InvokeService(
      "Add", {{"A", Value::Integer(2)}, {"B", Value::Integer(40)}});
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->AsString(), "42");

  auto missing = client->InvokeService("Nope", {});
  EXPECT_FALSE(missing.ok());

  // RemoteService: a second engine binds the far server's endpoint
  // under a local name; workflows (and direct invokes) can't tell the
  // difference. The idempotency key crosses the wire and dedupes at the
  // far end's IdempotentService.
  wfc::WorkflowEngine local("local");
  auto remote = std::make_shared<net::RemoteService>("AddHere", "Add",
                                                     client);
  ASSERT_TRUE(local.services().Register(remote).ok());
  auto found = local.services().Find("AddHere");
  ASSERT_TRUE(found.ok());

  const uint64_t before = adder->invocation_count();
  xml::NodePtr request = wfc::MakeRequest(
      {{"A", Value::Integer(1)},
       {"B", Value::Integer(2)},
       {wfc::IdempotentService::kKeyParam, Value::String("add-key-1")}});
  for (int i = 0; i < 2; ++i) {
    auto reply = (*found)->Invoke(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto value = wfc::GetResponseValue(*reply);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->AsString(), "3");
  }
  EXPECT_EQ(adder->invocation_count(), before + 1);  // deduped repeat
}

// --- admission control and load shedding ------------------------------------

TEST(NetServerTest, AdmissionLimitRefusesExtraConnections) {
  TestServer ts;
  ts.options.max_connections = 2;
  ASSERT_TRUE(ts.Start().ok());

  Client a(ts.ClientFor("a"));
  Client b(ts.ClientFor("b"));
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());
  ASSERT_TRUE(a.Ping().ok());

  Client c(ts.ClientFor("c"));
  Status refused = c.Connect();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.IsTransient()) << refused.ToString();
  EXPECT_GE(ts.server->stats().rejected_at_accept, 1u);

  // Admitted peers are unaffected by the refusals.
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());

  // Once a slot frees, the refused client's retry ladder gets in. The
  // reader notices the close within a poll tick; give it a few.
  a.Close();
  Status ok = Status::Unavailable("never tried");
  for (int i = 0; i < 100; ++i) {
    ok = c.Connect();
    if (ok.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  ASSERT_TRUE(c.Ping().ok());
}

TEST(NetServerTest, InflightCapShedsInsteadOfQueuing) {
  TestServer ts;
  ts.options.max_inflight_per_conn = 0;  // shed every request
  ASSERT_TRUE(ts.Start().ok());

  Client client(ts.ClientFor());
  ASSERT_TRUE(client.Connect().ok());
  Status shed = client.Ping();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsTransient()) << shed.ToString();
  EXPECT_GE(ts.server->stats().shed, 1u);
  EXPECT_EQ(ts.server->stats().requests, 0u);  // nothing executed

  // The connection survives shedding — it's backpressure, not a kick.
  Status again = client.Ping();
  EXPECT_TRUE(again.IsTransient());
}

TEST(NetServerTest, FullQueueShedsInsteadOfBuffering) {
  TestServer ts;
  ts.options.max_queue_depth = 0;  // the queue admits nothing
  ASSERT_TRUE(ts.Start().ok());

  Client client(ts.ClientFor());
  ASSERT_TRUE(client.Connect().ok());
  Status shed = client.Ping();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsTransient());
  EXPECT_GE(ts.server->stats().shed, 1u);
}

// --- dispatch: inline on the reader, overflow to the pool --------------------

TEST(NetServerTest, ReadersServeInlineAndOverflowQueuesWithinTheSlotBound) {
  TestServer ts;
  ts.options.worker_threads = 1;  // one execution slot
  Latch latch;
  ASSERT_TRUE(ts.engine.services().Register(latch.Service()).ok());
  ASSERT_TRUE(ts.Start().ok());
  ASSERT_TRUE(ts.server->RegisterSysConnections().ok());
  obs::Counter& inlined =
      obs::MetricsRegistry::Global().GetCounter("net.dispatch.inline");
  obs::Counter& queued =
      obs::MetricsRegistry::Global().GetCounter("net.dispatch.queued");

  // A lone sequential client always finds the slot free: every request
  // runs on its own reader, none waits for a worker.
  {
    const uint64_t inlined_before = inlined.value();
    const uint64_t queued_before = queued.value();
    Client solo(ts.ClientFor("solo"));
    ASSERT_TRUE(solo.Connect().ok());
    ASSERT_TRUE(solo.ExecuteSql("CREATE TABLE t (id INTEGER)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(solo.ExecuteSql("INSERT INTO t VALUES (1)").ok());
      ASSERT_TRUE(solo.Ping().ok());
    }
    EXPECT_EQ(inlined.value() - inlined_before, 41u);
    EXPECT_EQ(queued.value() - queued_before, 0u);
  }

  Client a(ts.ClientFor("a"));
  Client b(ts.ClientFor("b"));
  Client c(ts.ClientFor("c"));
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());
  ASSERT_TRUE(c.Connect().ok());
  const uint64_t queued_before = queued.value();

  // A's call takes the only slot, inline on A's reader.
  Status a_status, b_status, c_status;
  std::thread ta([&] { a_status = a.InvokeService("Hold", {}).status(); });
  ASSERT_TRUE(latch.WaitEntered(1));
  EXPECT_EQ(queued.value(), queued_before);

  // B's Ping finds no free slot and is queued; the pool's worker must
  // not start it while A holds the slot.
  std::atomic<bool> b_done{false};
  std::thread tb([&] {
    b_status = b.Ping();
    b_done.store(true);
  });
  ASSERT_TRUE(WaitUntil([&] { return queued.value() == queued_before + 1; }));
  auto depth =
      ts.db.Execute("SELECT DISTINCT QUEUE_DEPTH FROM sys.connections");
  ASSERT_TRUE(depth.ok()) << depth.status().ToString();
  ASSERT_EQ(depth->row_count(), 1u);
  EXPECT_EQ(depth->rows()[0][0].AsString(), "1");

  // C queues behind B; FIFO means it runs after B, and never beside A.
  std::thread tc([&] { c_status = c.InvokeService("Hold", {}).status(); });
  ASSERT_TRUE(WaitUntil([&] { return queued.value() == queued_before + 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(b_done.load());
  EXPECT_EQ(latch.entered(), 1);

  latch.Release();
  ta.join();
  tb.join();
  tc.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  EXPECT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_TRUE(c_status.ok()) << c_status.ToString();
  EXPECT_EQ(latch.entered(), 2);
  EXPECT_EQ(latch.peak(), 1);
  EXPECT_EQ(ts.server->stats().shed, 0u);
}

// --- protocol hardening -----------------------------------------------------

TEST(NetHardeningTest, GarbageBeforeHandshakeIsCutOff) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());

  RawConn raw(ts.server->port());
  ASSERT_TRUE(raw.ok());
  // An HTTP request's first bytes parse as an absurd frame length.
  raw.WriteAll("GET / HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_TRUE(raw.WaitForClose());
  EXPECT_GE(ts.server->stats().protocol_errors, 1u);

  // The server is unharmed: a well-behaved client still gets in.
  Client client(ts.ClientFor());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());
}

TEST(NetHardeningTest, CrcMismatchClosesTheStream) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());

  RawConn raw(ts.server->port());
  ASSERT_TRUE(raw.ok());
  std::string wire = RawConn::Frame(net::EncodeHello("mallory"));
  wire.back() ^= 0x40;  // corrupt the payload, keep the stated CRC
  raw.WriteAll(wire);
  EXPECT_TRUE(raw.WaitForClose());
  EXPECT_GE(ts.server->stats().protocol_errors, 1u);
}

TEST(NetHardeningTest, OversizedFrameIsRefusedUnread) {
  TestServer ts;
  ts.options.max_frame_bytes = 1024;
  ASSERT_TRUE(ts.Start().ok());

  RawConn raw(ts.server->port());
  ASSERT_TRUE(raw.ok());
  std::string header;
  sql::WalPutU32(header, 1024 * 1024);  // length far past the cap
  sql::WalPutU32(header, 0);
  raw.WriteAll(header);
  EXPECT_TRUE(raw.WaitForClose());
  EXPECT_GE(ts.server->stats().protocol_errors, 1u);
}

TEST(NetHardeningTest, WellFramedJunkPayloadGetsErrorFrame) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());

  RawConn raw(ts.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Handshake());
  // Framing and CRC are valid; the payload claims to be a request but
  // is truncated mid-field. The server answers with a decodable error
  // frame before closing — not a silent drop.
  std::string junk;
  junk.push_back(static_cast<char>(MessageType::kExecuteSql));
  junk.push_back('\x01');
  ASSERT_TRUE(net::SendFrame(raw.Io(), junk).ok());
  auto reply = net::RecvFrame(raw.Io(), 5000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = net::DecodeResponse(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->status.ok());
  EXPECT_TRUE(raw.WaitForClose());
  EXPECT_GE(ts.server->stats().protocol_errors, 1u);
}

TEST(NetHardeningTest, HalfCloseMidFrameTearsDownCleanly) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());

  RawConn raw(ts.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Handshake());
  // First half of a frame header, then FIN: the read side sees a torn
  // frame and must not wait forever for the rest.
  std::string header;
  sql::WalPutU32(header, 64);
  raw.WriteAll(header.substr(0, 3));
  ::shutdown(raw.fd(), SHUT_WR);
  EXPECT_TRUE(raw.WaitForClose());

  Client client(ts.ClientFor());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Ping().ok());
}

TEST(NetHardeningTest, SlowLorisIsKilledByTheFrameDeadline) {
  TestServer ts;
  ts.options.frame_deadline_ms = 200;
  ASSERT_TRUE(ts.Start().ok());

  RawConn raw(ts.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Handshake());
  // Trickle 3 bytes of an 8-byte header and stall. The frame deadline
  // (not the idle budget) must cut the peer off.
  std::string header;
  sql::WalPutU32(header, 16);
  raw.WriteAll(header.substr(0, 3));
  EXPECT_TRUE(raw.WaitForClose());
  EXPECT_GE(ts.server->stats().timeouts, 1u);
}

TEST(NetHardeningTest, IdleTimeoutReapsSilentConnections) {
  TestServer ts;
  ts.options.idle_timeout_ms = 150;
  ASSERT_TRUE(ts.Start().ok());

  RawConn raw(ts.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Handshake());
  EXPECT_TRUE(raw.WaitForClose());  // no request ever sent
  EXPECT_GE(ts.server->stats().timeouts, 1u);
}

// --- deadlines, drain, retry ------------------------------------------------

TEST(NetServerTest, StopDrainsGracefully) {
  TestServer ts;
  ASSERT_TRUE(ts.Start().ok());
  uint16_t port = ts.server->port();

  Client client(ts.ClientFor());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.ExecuteSql("CREATE TABLE t (id INTEGER)").ok());
  ASSERT_TRUE(client.ExecuteSql("INSERT INTO t VALUES (1)").ok());

  ts.server->Stop();
  EXPECT_FALSE(ts.server->running());
  ts.server->Stop();  // idempotent

  // Work accepted before the drain is fully applied.
  auto count = ts.db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows()[0][0].AsString(), "1");

  ClientOptions copts;
  copts.port = port;
  Client late(copts);
  EXPECT_FALSE(late.Connect().ok());
}

TEST(NetServerTest, StopFlushesInlineAndQueuedResponses) {
  TestServer ts;
  ts.options.worker_threads = 1;
  Latch latch;
  ASSERT_TRUE(ts.engine.services().Register(latch.Service()).ok());
  ASSERT_TRUE(ts.Start().ok());
  obs::Counter& queued =
      obs::MetricsRegistry::Global().GetCounter("net.dispatch.queued");

  Client a(ts.ClientFor("a"));
  Client b(ts.ClientFor("b"));
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());
  const uint64_t queued_before = queued.value();

  // A's call runs inline and holds the slot; B's Ping waits in the
  // queue.
  Status a_status, b_status;
  std::thread ta([&] { a_status = a.InvokeService("Hold", {}).status(); });
  ASSERT_TRUE(latch.WaitEntered(1));
  std::thread tb([&] { b_status = b.Ping(); });
  ASSERT_TRUE(WaitUntil([&] { return queued.value() == queued_before + 1; }));

  // Stop while both are pending; give B's reader time to see the stop
  // and exit. Neither client retries, so each must get its own reply
  // before its socket closes.
  std::thread stopper([&] { ts.server->Stop(); });
  ASSERT_TRUE(WaitUntil([&] { return !ts.server->running(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  latch.Release();
  stopper.join();
  ta.join();
  tb.join();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  EXPECT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_EQ(ts.server->stats().requests, 2u);
}

TEST(NetServerTest, RetryLadderReconnectsAfterServerSideClose) {
  TestServer ts;
  ts.options.idle_timeout_ms = 100;
  ASSERT_TRUE(ts.Start().ok());

  Client client(ts.ClientFor("retrier", /*max_attempts=*/5));
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.ExecuteSql("CREATE TABLE t (id INTEGER)").ok());

  // Let the server reap the idle connection, then call through the dead
  // socket: the ladder must reconnect and repeat (read-only + keyed
  // requests are safe).
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(client.stats().reconnects, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto keyed = client.ExecuteSql("INSERT INTO t VALUES (1)", {}, "");
  // Unkeyed writes must NOT ride the ladder: the client cannot know
  // whether the lost connection executed them.
  EXPECT_FALSE(keyed.ok());
  EXPECT_TRUE(keyed.status().IsTransient());

  ASSERT_TRUE(client.Ping().ok());  // reconnects again, read-only
  auto count = client.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows()[0][0].AsString(), "0");
}

// --- sys.connections --------------------------------------------------------

TEST(NetServerTest, SysConnectionsShowsLivePeersAndJoins) {
  TestServer ts;
  ASSERT_TRUE(sql::RegisterSysTables(&ts.db).ok());
  ASSERT_TRUE(ts.Start().ok());
  ASSERT_TRUE(ts.server->RegisterSysConnections().ok());

  Client alice(ts.ClientFor("alice"));
  Client bob(ts.ClientFor("bob"));
  ASSERT_TRUE(alice.Connect().ok());
  ASSERT_TRUE(bob.Connect().ok());
  ASSERT_TRUE(bob.Ping().ok());  // bob settles into idle

  // The scan runs inside alice's request: her row is active, bob's is
  // idle, and the whole table is visible over the wire like any other.
  auto rows = alice.ExecuteSql(
      "SELECT CLIENT, STATE, REQUESTS FROM sys.connections "
      "ORDER BY CONN_ID");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->row_count(), 2u);
  EXPECT_EQ(rows->rows()[0][0].AsString(), "alice");
  EXPECT_EQ(rows->rows()[0][1].AsString(), "active");
  EXPECT_EQ(rows->rows()[1][0].AsString(), "bob");
  EXPECT_EQ(rows->rows()[1][1].AsString(), "idle");

  // Joinable with the other sys.* tables (both sides are zero on a
  // fresh server, making the equi-join a cross product of 2 x 1 rows).
  auto joined = alice.ExecuteSql(
      "SELECT c.CLIENT, t.ACTIVE_TXNS FROM sys.connections c "
      "JOIN sys.transactions t ON c.SHED = t.ROLLED_BACK "
      "ORDER BY c.CONN_ID");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->row_count(), 2u);
  EXPECT_EQ(joined->rows()[0][0].AsString(), "alice");

  // A transaction opened over the wire is visible in IN_TXN.
  ASSERT_TRUE(bob.ExecuteSql("BEGIN").ok());
  auto in_txn = alice.ExecuteSql(
      "SELECT CLIENT FROM sys.connections WHERE IN_TXN = TRUE "
      "ORDER BY CONN_ID");
  ASSERT_TRUE(in_txn.ok()) << in_txn.status().ToString();
  ASSERT_EQ(in_txn->row_count(), 1u);
  EXPECT_EQ(in_txn->rows()[0][0].AsString(), "bob");
  ASSERT_TRUE(bob.ExecuteSql("ROLLBACK").ok());

  // Closed connections leave the table.
  bob.Close();
  for (int i = 0; i < 100; ++i) {
    auto left = alice.ExecuteSql("SELECT COUNT(*) FROM sys.connections");
    ASSERT_TRUE(left.ok());
    if (left->rows()[0][0].AsString() == "1") return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "bob's row never left sys.connections";
}

}  // namespace
}  // namespace sqlflow
