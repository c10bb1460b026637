#ifndef SQLFLOW_NET_SERVER_H_
#define SQLFLOW_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/session.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "wfc/engine.h"

namespace sqlflow::net {

struct ServerOptions {
  /// 0 = kernel-assigned ephemeral port; read the result from port().
  uint16_t port = 0;
  /// Admission control, outermost gate: connections beyond this are
  /// turned away at accept time with a transient refusal frame.
  uint32_t max_connections = 64;
  /// Per-connection in-flight cap: requests past it are shed without
  /// executing (kUnavailable), so one pipelining client cannot occupy
  /// every worker.
  uint32_t max_inflight_per_conn = 4;
  /// Bounded global work queue; a full queue sheds load instead of
  /// buffering it (the backpressure gate).
  uint32_t max_queue_depth = 128;
  /// Execution slots: at most this many requests execute at once,
  /// counting both reader threads that serve their own request inline
  /// and pool workers serving queued ones (0 is treated as 1).
  uint32_t worker_threads = 4;
  /// Budget for a peer to *finish* a frame once its first byte arrived,
  /// and for writes to drain — the slow-loris killer. -1 disables.
  int frame_deadline_ms = 2000;
  /// Budget for a connection to send its next request (-1 = forever).
  int idle_timeout_ms = -1;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::string server_name = "sqlflow";
  /// Network-layer chaos for server-side frame I/O (FaultLayer::kNetwork
  /// must be armed on the injector). The injector's database filter
  /// matches `fault_label`.
  sql::FaultInjector* injector = nullptr;
  std::string fault_label = "server";
};

/// Monotonic counters; snapshot via Server::stats().
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_at_accept = 0;  // over max_connections
  uint64_t shed = 0;                // in-flight cap or full queue
  uint64_t requests = 0;            // executed (not shed)
  uint64_t protocol_errors = 0;     // framing/CRC/handshake violations
  uint64_t timeouts = 0;            // deadline kills (slow loris / idle)
};

/// The wire-protocol front of one database (+ optional workflow
/// engine): a TCP listener, one reader thread per connection, and a
/// bounded worker pool, executing requests through per-connection
/// Sessions. A reader that decodes an admitted request while the queue
/// is empty and an execution slot is free serves it itself; otherwise
/// the request is queued for the pool. Stop() drains gracefully —
/// accepting stops, inline and queued work finishes, responses flush,
/// then sockets close.
class Server {
 public:
  Server(sql::Database* db, wfc::WorkflowEngine* engine,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  /// Graceful drain; idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  ServerStats stats() const;

  /// Feeds the outcomes of WorkflowEngine::ResumeInstances into the
  /// workflow state, so retried keyed starts map onto the resumed
  /// instances instead of running duplicates. Call after recovery,
  /// before serving.
  void NoteResumedInstances(
      const std::vector<Result<wfc::InstanceResult>>& resumed);

  /// Registers sys.connections on the database: one row per live
  /// connection (CONN_ID, CLIENT, STATE, SESSION_TXN, IN_TXN, IN_FLIGHT,
  /// QUEUE_DEPTH, BYTES_IN, BYTES_OUT, REQUESTS, SHED), joinable with
  /// the other sys.* tables. Safe to call once per database.
  Status RegisterSysConnections();

 private:
  enum class ConnState { kHandshake, kIdle, kActive, kClosing };
  static const char* ConnStateName(ConnState state);

  struct Connection {
    uint64_t id = 0;
    /// Swapped to -1 exactly once when the socket is released (after
    /// the reader exited and the last in-flight response flushed).
    std::atomic<int> fd{-1};
    std::string client_name;
    std::unique_ptr<Session> session;
    std::atomic<ConnState> state{ConnState::kHandshake};
    std::atomic<int> inflight{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> shed{0};
    /// Workers and the reader both write frames; one at a time.
    std::mutex write_mutex;
    std::thread reader;
  };

  struct WorkItem {
    std::shared_ptr<Connection> conn;
    Request request;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  uint32_t SlotLimit() const;
  /// Returns an execution slot and wakes a worker if work is queued.
  void ReleaseSlot();
  /// Handles one request end-to-end (execute + respond).
  void ServeRequest(const std::shared_ptr<Connection>& conn,
                    const Request& request);
  Status SendResponse(const std::shared_ptr<Connection>& conn,
                      const Response& response);
  FrameIo IoFor(const Connection& conn) const;
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Closes the fd once the connection is closing and nothing is in
  /// flight; safe to call from any thread, idempotent.
  void MaybeReleaseFd(const std::shared_ptr<Connection>& conn);

  sql::Database* db_;
  ServerOptions options_;
  WorkflowState wf_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex conns_mutex_;
  std::map<uint64_t, std::shared_ptr<Connection>> conns_;
  /// Finished connections whose reader threads Stop() still has to
  /// join (a thread cannot join itself on the way out).
  std::vector<std::shared_ptr<Connection>> zombies_;
  uint64_t next_conn_id_ = 1;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  /// Requests executing now, inline on readers or on workers; never
  /// above SlotLimit().
  uint32_t executing_ = 0;
  obs::Counter& dispatch_inline_;
  obs::Counter& dispatch_queued_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace sqlflow::net

#endif  // SQLFLOW_NET_SERVER_H_
