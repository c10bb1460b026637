#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "sql/table.h"

namespace sqlflow::net {

namespace {

/// Reader threads and the accept loop poll in short ticks so Stop() is
/// observed promptly even on otherwise-silent connections.
constexpr int kPollTickMs = 50;

sql::TableSchema MakeSchema(
    std::string name,
    std::vector<std::pair<std::string, ValueType>> cols) {
  std::vector<sql::ColumnDef> defs;
  defs.reserve(cols.size());
  for (auto& [col_name, type] : cols) {
    sql::ColumnDef def;
    def.name = std::move(col_name);
    def.type = type;
    defs.push_back(std::move(def));
  }
  return sql::TableSchema(std::move(name), std::move(defs));
}

}  // namespace

const char* Server::ConnStateName(ConnState state) {
  switch (state) {
    case ConnState::kHandshake:
      return "handshake";
    case ConnState::kIdle:
      return "idle";
    case ConnState::kActive:
      return "active";
    case ConnState::kClosing:
      return "closing";
  }
  return "unknown";
}

Server::Server(sql::Database* db, wfc::WorkflowEngine* engine,
               ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      dispatch_inline_(
          obs::MetricsRegistry::Global().GetCounter("net.dispatch.inline")),
      dispatch_queued_(
          obs::MetricsRegistry::Global().GetCounter("net.dispatch.queued")) {
  wf_.engine = engine;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::ExecutionError("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket failed: ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(std::string("bind failed: ") +
                               std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable(std::string("listen failed: ") +
                               std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const uint32_t workers = SlotLimit();
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  {
    // Under the queue mutex: the workers' wait predicate reads it.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true);
  }

  // 1. Stop accepting.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Stop reading: reader threads observe stopping_ on their next
  // poll tick (after finishing any request they are serving inline)
  // and exit, so no new work enters the queue. A reader
  // moves its connection to the zombie list on the way out (inside
  // conns_mutex_), so the snapshot below sees every connection in
  // exactly one of the two containers.
  std::vector<std::shared_ptr<Connection>> all;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) all.push_back(conn);
    for (auto& conn : zombies_) all.push_back(conn);
  }
  for (auto& conn : all) {
    if (conn->reader.joinable()) conn->reader.join();
  }

  // 3. Drain: workers finish everything still queued (responses flush
  // over the still-open sockets), then exit.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 4. Only now do the sockets close.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) all.push_back(conn);
    conns_.clear();
    zombies_.clear();
  }
  for (auto& conn : all) {
    int fd = conn->fd.exchange(-1);
    if (fd >= 0) ::close(fd);
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Server::NoteResumedInstances(
    const std::vector<Result<wfc::InstanceResult>>& resumed) {
  std::lock_guard<std::mutex> lock(wf_.mutex);
  for (const auto& entry : resumed) {
    if (!entry.ok()) continue;
    wf_.results[entry->instance_id] = *entry;
  }
}

FrameIo Server::IoFor(const Connection& conn) const {
  FrameIo io;
  io.fd = conn.fd.load();
  io.deadline_ms = options_.frame_deadline_ms;
  io.max_frame_bytes = options_.max_frame_bytes;
  io.injector = options_.injector;
  io.label = options_.fault_label;
  io.side = "server";
  io.bytes_out = const_cast<std::atomic<uint64_t>*>(&conn.bytes_out);
  io.bytes_in = const_cast<std::atomic<uint64_t>*>(&conn.bytes_in);
  return io;
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    struct pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    int rc = ::poll(&p, 1, kPollTickMs);
    if (rc <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Replies are small and written back to back; Nagle would hold the
    // second behind the first one's ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    size_t live;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      live = conns_.size();
    }
    if (live >= options_.max_connections) {
      // Admission refusal: a transient error frame instead of a silent
      // close, so the client backs off and retries rather than
      // diagnosing a dead server.
      // Count the decision before delivering it: a client that has
      // read the refusal frame must already see it in stats().
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.rejected_at_accept += 1;
      }
      obs::MetricsRegistry::Global()
          .GetCounter("net.conn.rejected")
          .Increment();
      Response refusal;
      refusal.status = Status::Unavailable(
          "server at its connection limit (" +
          std::to_string(options_.max_connections) + ")");
      FrameIo io;
      io.fd = fd;
      io.deadline_ms = options_.frame_deadline_ms;
      (void)SendFrame(io, EncodeResponse(refusal));
      ::close(fd);
      continue;
    }

    auto conn = std::make_shared<Connection>();
    conn->fd.store(fd);
    conn->session = std::make_unique<Session>(db_->CreateConnection(),
                                              &wf_);
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.accepted += 1;
    }
    obs::MetricsRegistry::Global()
        .GetCounter("net.conn.accepted")
        .Increment();
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  conn->state.store(ConnState::kClosing);
  // While stopping, queued requests of this connection may still owe
  // their responses; Stop() closes the socket once they have flushed.
  if (!stopping_.load()) {
    int fd = conn->fd.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  // Leave the live map (sys.connections shows live peers only); the
  // zombie list keeps the thread handle for Stop() to join. One
  // critical section, so Stop's snapshot can't miss the connection.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(conn->id);
    if (it != conns_.end()) {
      zombies_.push_back(it->second);
      conns_.erase(it);
    }
  }
  MaybeReleaseFd(conn);
}

void Server::MaybeReleaseFd(const std::shared_ptr<Connection>& conn) {
  // The socket may only close once no response can still be written to
  // it: the reader has exited (state kClosing) and no request is queued
  // or executing. Early close would let the kernel recycle the fd
  // number under a worker mid-write — cross-connection corruption.
  if (stopping_.load()) return;  // Stop() owns the ordered teardown
  if (conn->state.load() != ConnState::kClosing) return;
  if (conn->inflight.load() != 0) return;
  int fd = conn->fd.exchange(-1);
  if (fd >= 0) ::close(fd);
}

Status Server::SendResponse(const std::shared_ptr<Connection>& conn,
                            const Response& response) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  Status sent = SendFrame(IoFor(*conn), EncodeResponse(response));
  if (!sent.ok()) {
    // The response cannot reach the peer; wake the reader so the
    // connection tears down instead of idling half-dead.
    int fd = conn->fd.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  return sent;
}

void Server::ServeRequest(const std::shared_ptr<Connection>& conn,
                          const Request& request) {
  conn->state.store(ConnState::kActive);
  Response response = conn->session->Handle(request);
  conn->requests.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.requests += 1;
  }
  // Settle the state before the response leaves: a client that has
  // read its reply must already see this connection idle in
  // sys.connections.
  if (conn->state.load() == ConnState::kActive) {
    conn->state.store(ConnState::kIdle);
  }
  (void)SendResponse(conn, response);
  conn->inflight.fetch_sub(1);
  MaybeReleaseFd(conn);
}

uint32_t Server::SlotLimit() const {
  return options_.worker_threads == 0 ? 1 : options_.worker_threads;
}

void Server::ReleaseSlot() {
  bool queued;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    executing_ -= 1;
    queued = !queue_.empty();
  }
  if (queued) queue_cv_.notify_one();
}

void Server::WorkerLoop() {
  while (true) {
    WorkItem item;
    {
      // Queued work waits for a slot (readers may hold them all); an
      // idle worker exits only once stopping and the queue is drained.
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return queue_.empty() ? stopping_.load() : executing_ < SlotLimit();
      });
      if (queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      executing_ += 1;
    }
    ServeRequest(item.conn, item.request);
    ReleaseSlot();
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  // Handshake: the first frame must be a well-formed kHello. Anything
  // else — garbage bytes, a request, a bad magic — is answered with one
  // error frame (best effort) and a close, before any session work.
  // The first byte is awaited in poll ticks (Stop() stays responsive);
  // a peer that connects and sends nothing is cut off after the frame
  // deadline.
  {
    const int budget =
        options_.frame_deadline_ms >= 0 ? options_.frame_deadline_ms : 5000;
    auto started = std::chrono::steady_clock::now();
    bool readable = false;
    while (!stopping_.load()) {
      struct pollfd p{};
      p.fd = conn->fd.load();
      p.events = POLLIN;
      int rc = ::poll(&p, 1, kPollTickMs);
      if (rc > 0) {
        readable = true;
        break;
      }
      auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - started)
                        .count();
      if (rc < 0 && errno != EINTR) break;
      if (waited >= budget) break;
    }
    if (!readable) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.timeouts += 1;
      }
      CloseConnection(conn);
      return;
    }
    auto first = RecvFrame(IoFor(*conn), options_.frame_deadline_ms);
    Status handshake = first.ok() ? Status::OK() : first.status();
    std::string client_name;
    if (handshake.ok()) {
      auto hello = DecodeHello(*first);
      if (hello.ok()) {
        client_name = std::move(*hello);
      } else {
        handshake = hello.status();
      }
    }
    if (!handshake.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.protocol_errors += 1;
      }
      metrics.GetCounter("net.protocol.errors").Increment();
      Response err;
      err.status = std::move(handshake);
      (void)SendResponse(conn, err);
      CloseConnection(conn);
      return;
    }
    conn->client_name = std::move(client_name);
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!SendFrame(IoFor(*conn),
                   EncodeHelloOk(options_.server_name, conn->id))
             .ok()) {
      CloseConnection(conn);
      return;
    }
  }
  conn->state.store(ConnState::kIdle);

  auto idle_since = std::chrono::steady_clock::now();
  while (!stopping_.load()) {
    // Idle wait in short ticks: reacts to Stop() and enforces the idle
    // budget without committing to a long blocking read.
    struct pollfd p{};
    p.fd = conn->fd.load();
    p.events = POLLIN;
    int rc = ::poll(&p, 1, kPollTickMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      if (options_.idle_timeout_ms >= 0) {
        auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - idle_since)
                        .count();
        if (idle >= options_.idle_timeout_ms) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.timeouts += 1;
          break;
        }
      }
      continue;
    }

    // Data (or EOF) is ready: the whole frame must now arrive within
    // frame_deadline_ms — a peer trickling bytes is cut off.
    auto frame = RecvFrame(IoFor(*conn), options_.frame_deadline_ms);
    if (!frame.ok()) {
      const Status& st = frame.status();
      if (IsCleanEof(st)) break;
      if (st.code() == StatusCode::kTimeout) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.timeouts += 1;
        }
        metrics.GetCounter("net.timeouts").Increment();
      } else if (st.code() == StatusCode::kDataLoss) {
        // CRC mismatch or oversized frame: the stream cannot be
        // resynced. One error frame, then close.
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.protocol_errors += 1;
        }
        metrics.GetCounter("net.protocol.errors").Increment();
        Response err;
        err.status = st;
        (void)SendResponse(conn, err);
      }
      break;
    }
    idle_since = std::chrono::steady_clock::now();

    auto request = DecodeRequest(*frame);
    if (!request.ok()) {
      // Framing was sound but the payload is not a request the server
      // understands; the stream itself is suspect from here on.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.protocol_errors += 1;
      }
      metrics.GetCounter("net.protocol.errors").Increment();
      Response err;
      err.status = request.status();
      (void)SendResponse(conn, err);
      break;
    }

    // Load shedding, innermost gates: per-connection in-flight cap,
    // then the bounded global queue. Shed requests are answered
    // immediately with a transient error — cheap for the server, a
    // clear back-off signal for the client. An admitted request runs
    // right here when nothing is queued ahead of it and a slot is free
    // (one thread wake-up per round trip); otherwise it joins the
    // queue, which keeps queued work FIFO.
    bool shed = false;
    bool run_inline = false;
    std::string reason;
    if (conn->inflight.load() >=
        static_cast<int>(options_.max_inflight_per_conn)) {
      shed = true;
      reason = "connection in-flight cap reached";
    } else {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() >= options_.max_queue_depth) {
        shed = true;
        reason = "server request queue is full";
      } else {
        conn->inflight.fetch_add(1);
        if (queue_.empty() && executing_ < SlotLimit()) {
          executing_ += 1;
          run_inline = true;
        } else {
          queue_.push_back(WorkItem{conn, std::move(*request)});
        }
      }
    }
    if (shed) {
      conn->shed.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.shed += 1;
      }
      metrics.GetCounter("net.shed").Increment();
      Response busy;
      busy.request_id = request->request_id;
      busy.status = Status::Unavailable(reason + "; retry");
      (void)SendResponse(conn, busy);
    } else if (run_inline) {
      dispatch_inline_.Increment();
      ServeRequest(conn, *request);
      ReleaseSlot();
      // The idle budget restarts once the client holds its reply.
      idle_since = std::chrono::steady_clock::now();
    } else {
      dispatch_queued_.Increment();
      queue_cv_.notify_one();
    }
  }
  CloseConnection(conn);
}

Status Server::RegisterSysConnections() {
  // The generator reads only atomics and the conns_ map under its
  // mutex; the server must outlive statements that scan the table.
  auto generator = [this]() {
    std::vector<sql::Row> rows;
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      depth = queue_.size();
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& [id, conn] : conns_) {
      rows.push_back(
          {Value::Integer(static_cast<int64_t>(conn->id)),
           Value::String(conn->client_name),
           Value::String(ConnStateName(conn->state.load())),
           Value::Integer(static_cast<int64_t>(
               conn->session->session_txn())),
           Value::Boolean(conn->session->in_txn_cached()),
           Value::Integer(conn->inflight.load()),
           Value::Integer(static_cast<int64_t>(depth)),
           Value::Integer(static_cast<int64_t>(
               conn->bytes_in.load(std::memory_order_relaxed))),
           Value::Integer(static_cast<int64_t>(
               conn->bytes_out.load(std::memory_order_relaxed))),
           Value::Integer(static_cast<int64_t>(
               conn->requests.load(std::memory_order_relaxed))),
           Value::Integer(static_cast<int64_t>(
               conn->shed.load(std::memory_order_relaxed)))});
    }
    return rows;
  };
  return db_->catalog().RegisterVirtualTable(
      MakeSchema("sys.connections",
                 {{"CONN_ID", ValueType::kInteger},
                  {"CLIENT", ValueType::kString},
                  {"STATE", ValueType::kString},
                  {"SESSION_TXN", ValueType::kInteger},
                  {"IN_TXN", ValueType::kBoolean},
                  {"IN_FLIGHT", ValueType::kInteger},
                  {"QUEUE_DEPTH", ValueType::kInteger},
                  {"BYTES_IN", ValueType::kInteger},
                  {"BYTES_OUT", ValueType::kInteger},
                  {"REQUESTS", ValueType::kInteger},
                  {"SHED", ValueType::kInteger}}),
      std::move(generator));
}

}  // namespace sqlflow::net
