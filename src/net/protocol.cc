#include "net/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace sqlflow::net {

namespace {

using sql::WalPutString;
using sql::WalPutU32;
using sql::WalPutU64;
using sql::WalPutValue;
using sql::WalReader;

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutStatus(std::string& out, const Status& status) {
  PutU8(out, static_cast<uint8_t>(status.code()));
  WalPutString(out, status.message());
}

Status ReadStatus(WalReader& r, Status& out) {
  SQLFLOW_ASSIGN_OR_RETURN(uint8_t code, r.U8());
  SQLFLOW_ASSIGN_OR_RETURN(std::string message, r.Str());
  out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void PutNamedValues(std::string& out,
                    const std::vector<std::pair<std::string, Value>>& args) {
  WalPutU32(out, static_cast<uint32_t>(args.size()));
  for (const auto& [name, value] : args) {
    WalPutString(out, name);
    WalPutValue(out, value);
  }
}

Result<std::vector<std::pair<std::string, Value>>> ReadNamedValues(
    WalReader& r) {
  SQLFLOW_ASSIGN_OR_RETURN(uint32_t n, r.U32());
  std::vector<std::pair<std::string, Value>> args;
  args.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(std::string name, r.Str());
    SQLFLOW_ASSIGN_OR_RETURN(Value value, r.Val());
    args.emplace_back(std::move(name), std::move(value));
  }
  return args;
}

}  // namespace

// --- message codecs --------------------------------------------------------

std::string EncodeHello(std::string_view client_name) {
  std::string out;
  PutU8(out, static_cast<uint8_t>(MessageType::kHello));
  WalPutU32(out, kProtocolMagic);
  WalPutU32(out, kProtocolVersion);
  WalPutString(out, client_name);
  return out;
}

Result<std::string> DecodeHello(std::string_view payload) {
  WalReader r(payload);
  SQLFLOW_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (static_cast<MessageType>(type) != MessageType::kHello) {
    return Status::InvalidArgument("first frame is not a handshake");
  }
  SQLFLOW_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kProtocolMagic) {
    return Status::InvalidArgument("bad protocol magic");
  }
  SQLFLOW_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kProtocolVersion) {
    return Status::Unsupported("protocol version " +
                               std::to_string(version) + " not supported");
  }
  SQLFLOW_ASSIGN_OR_RETURN(std::string name, r.Str());
  return name;
}

std::string EncodeHelloOk(std::string_view server_name,
                          uint64_t session_id) {
  std::string out;
  PutU8(out, static_cast<uint8_t>(MessageType::kHelloOk));
  WalPutString(out, server_name);
  WalPutU64(out, session_id);
  return out;
}

Result<std::pair<std::string, uint64_t>> DecodeHelloOk(
    std::string_view payload) {
  WalReader r(payload);
  SQLFLOW_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (static_cast<MessageType>(type) != MessageType::kHelloOk) {
    return Status::InvalidArgument("handshake reply has wrong type");
  }
  SQLFLOW_ASSIGN_OR_RETURN(std::string name, r.Str());
  SQLFLOW_ASSIGN_OR_RETURN(uint64_t session_id, r.U64());
  return std::make_pair(std::move(name), session_id);
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  PutU8(out, static_cast<uint8_t>(request.type));
  WalPutU64(out, request.request_id);
  WalPutString(out, request.idempotency_key);
  switch (request.type) {
    case MessageType::kExecuteSql: {
      WalPutString(out, request.sql);
      WalPutU32(out,
                static_cast<uint32_t>(request.params.positional.size()));
      for (const Value& v : request.params.positional) {
        WalPutValue(out, v);
      }
      WalPutU32(out, static_cast<uint32_t>(request.params.named.size()));
      for (const auto& [name, value] : request.params.named) {
        WalPutString(out, name);
        WalPutValue(out, value);
      }
      break;
    }
    case MessageType::kStartInstance:
    case MessageType::kInvokeService: {
      WalPutString(out, request.target);
      PutNamedValues(out, request.args);
      break;
    }
    case MessageType::kQueryAudit:
      WalPutU64(out, request.instance_id);
      break;
    default:
      break;  // kPing carries no body
  }
  return out;
}

Result<Request> DecodeRequest(std::string_view payload) {
  WalReader r(payload);
  SQLFLOW_ASSIGN_OR_RETURN(uint8_t raw_type, r.U8());
  Request request;
  request.type = static_cast<MessageType>(raw_type);
  switch (request.type) {
    case MessageType::kExecuteSql:
    case MessageType::kStartInstance:
    case MessageType::kInvokeService:
    case MessageType::kQueryAudit:
    case MessageType::kPing:
      break;
    default:
      return Status::InvalidArgument("unknown request type " +
                                     std::to_string(raw_type));
  }
  SQLFLOW_ASSIGN_OR_RETURN(request.request_id, r.U64());
  SQLFLOW_ASSIGN_OR_RETURN(request.idempotency_key, r.Str());
  switch (request.type) {
    case MessageType::kExecuteSql: {
      SQLFLOW_ASSIGN_OR_RETURN(request.sql, r.Str());
      SQLFLOW_ASSIGN_OR_RETURN(uint32_t npos, r.U32());
      for (uint32_t i = 0; i < npos; ++i) {
        SQLFLOW_ASSIGN_OR_RETURN(Value v, r.Val());
        request.params.positional.push_back(std::move(v));
      }
      SQLFLOW_ASSIGN_OR_RETURN(uint32_t nnamed, r.U32());
      for (uint32_t i = 0; i < nnamed; ++i) {
        SQLFLOW_ASSIGN_OR_RETURN(std::string name, r.Str());
        SQLFLOW_ASSIGN_OR_RETURN(Value v, r.Val());
        request.params.named[std::move(name)] = std::move(v);
      }
      break;
    }
    case MessageType::kStartInstance:
    case MessageType::kInvokeService: {
      SQLFLOW_ASSIGN_OR_RETURN(request.target, r.Str());
      SQLFLOW_ASSIGN_OR_RETURN(request.args, ReadNamedValues(r));
      break;
    }
    case MessageType::kQueryAudit: {
      SQLFLOW_ASSIGN_OR_RETURN(request.instance_id, r.U64());
      break;
    }
    default:
      break;
  }
  return request;
}

void PutResultSet(std::string& out, const sql::ResultSet& rs) {
  WalPutU32(out, static_cast<uint32_t>(rs.column_count()));
  for (const std::string& name : rs.column_names()) {
    WalPutString(out, name);
  }
  WalPutU64(out, rs.row_count());
  for (const sql::Row& row : rs.rows()) {
    WalPutU32(out, static_cast<uint32_t>(row.size()));
    for (const Value& v : row) WalPutValue(out, v);
  }
  WalPutU64(out, static_cast<uint64_t>(rs.affected_rows()));
}

Result<sql::ResultSet> ReadResultSet(sql::WalReader& reader) {
  SQLFLOW_ASSIGN_OR_RETURN(uint32_t ncols, reader.U32());
  std::vector<std::string> names;
  names.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(std::string name, reader.Str());
    names.push_back(std::move(name));
  }
  sql::ResultSet rs(std::move(names));
  SQLFLOW_ASSIGN_OR_RETURN(uint64_t nrows, reader.U64());
  for (uint64_t i = 0; i < nrows; ++i) {
    SQLFLOW_ASSIGN_OR_RETURN(uint32_t nvals, reader.U32());
    sql::Row row;
    row.reserve(nvals);
    for (uint32_t j = 0; j < nvals; ++j) {
      SQLFLOW_ASSIGN_OR_RETURN(Value v, reader.Val());
      row.push_back(std::move(v));
    }
    rs.AddRow(std::move(row));
  }
  SQLFLOW_ASSIGN_OR_RETURN(uint64_t affected, reader.U64());
  rs.set_affected_rows(static_cast<int64_t>(affected));
  return rs;
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  PutU8(out, static_cast<uint8_t>(MessageType::kResult));
  WalPutU64(out, response.request_id);
  PutStatus(out, response.status);
  PutResultSet(out, response.result);
  return out;
}

Result<Response> DecodeResponse(std::string_view payload) {
  WalReader r(payload);
  SQLFLOW_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (static_cast<MessageType>(type) != MessageType::kResult) {
    return Status::InvalidArgument("reply frame has wrong type " +
                                   std::to_string(type));
  }
  Response response;
  SQLFLOW_ASSIGN_OR_RETURN(response.request_id, r.U64());
  SQLFLOW_RETURN_IF_ERROR(ReadStatus(r, response.status));
  SQLFLOW_ASSIGN_OR_RETURN(response.result, ReadResultSet(r));
  return response;
}

// --- frame I/O -------------------------------------------------------------

namespace {

constexpr const char* kEofMessage = "eof";

/// Milliseconds left until `deadline` (for poll); -1 when no deadline.
int RemainingMs(
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  if (!deadline.has_value()) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  *deadline - std::chrono::steady_clock::now())
                  .count();
  return left <= 0 ? 0 : static_cast<int>(left);
}

Status WaitFor(int fd, short events, int timeout_ms, const char* what) {
  struct pollfd p{};
  p.fd = fd;
  p.events = events;
  while (true) {
    int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::Timeout(std::string(what) + " deadline expired");
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(std::string(what) + " poll failed: " +
                               std::strerror(errno));
  }
}

/// Reads exactly `n` bytes. Each read is tried without blocking first;
/// only when nothing is buffered does it poll, for `idle_ms_first`
/// before the first byte and bounded by `deadline` (when set) after.
/// EOF inside the span is a torn frame unless `eof_ok_at_start` says
/// byte 0 may be a clean close.
Status ReadFull(
    int fd, char* buf, size_t n,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    bool eof_ok_at_start, std::atomic<uint64_t>* bytes_in,
    int idle_ms_first) {
  size_t got = 0;
  bool first = true;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        int wait_ms = first ? idle_ms_first : RemainingMs(deadline);
        SQLFLOW_RETURN_IF_ERROR(WaitFor(fd, POLLIN, wait_ms, "read"));
        continue;
      }
      return Status::Unavailable(std::string("read failed: ") +
                                 std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_ok_at_start) {
        return Status::Unavailable(kEofMessage);
      }
      return Status::Unavailable("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
    if (bytes_in != nullptr) {
      bytes_in->fetch_add(static_cast<uint64_t>(r),
                          std::memory_order_relaxed);
    }
    first = false;
  }
  return Status::OK();
}

/// Writes all `n` bytes, trying each send without blocking first and
/// polling (bounded by `deadline`) only while the socket buffer is full.
Status WriteFull(
    int fd, const char* buf, size_t n,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::atomic<uint64_t>* bytes_out) {
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that closed mid-exchange must surface as
    // EPIPE, not kill the server process with SIGPIPE.
    ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        SQLFLOW_RETURN_IF_ERROR(
            WaitFor(fd, POLLOUT, RemainingMs(deadline), "write"));
        continue;
      }
      return Status::Unavailable(std::string("write failed: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(r);
    if (bytes_out != nullptr) {
      bytes_out->fetch_add(static_cast<uint64_t>(r),
                          std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

std::optional<std::chrono::steady_clock::time_point> DeadlineFrom(
    int deadline_ms) {
  if (deadline_ms < 0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(deadline_ms);
}

/// Applies an injected network fault to a frame about to be sent.
/// Returns nullopt when the frame should proceed untouched (possibly
/// after an injected delay); otherwise the transient status the caller
/// must surface, with the socket-side damage already done.
std::optional<Status> ApplySendFault(const FrameIo& io,
                                     std::string_view wire_bytes) {
  if (io.injector == nullptr) return std::nullopt;
  sql::FaultSite site{io.label, "net send " + io.side,
                      sql::FaultLayer::kNetwork};
  auto fault = io.injector->MaybeNetworkFault(site, wire_bytes.size());
  if (!fault.has_value()) return std::nullopt;
  switch (fault->kind) {
    case sql::NetFault::Kind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault->delay_ms));
      return std::nullopt;
    case sql::NetFault::Kind::kDrop:
      // The frame vanishes en route: nothing reaches the peer, and the
      // sender must treat the connection as dead (its framing state and
      // the peer's have diverged).
      return Status::Unavailable("injected network drop (frame lost)");
    case sql::NetFault::Kind::kPartialWrite: {
      auto deadline = DeadlineFrom(io.deadline_ms);
      (void)WriteFull(io.fd, wire_bytes.data(),
                      static_cast<size_t>(fault->partial_bytes), deadline,
                      io.bytes_out);
      ::shutdown(io.fd, SHUT_RDWR);
      return Status::Unavailable(
          "injected partial write (" +
          std::to_string(fault->partial_bytes) + " of " +
          std::to_string(wire_bytes.size()) + " bytes)");
    }
    case sql::NetFault::Kind::kAbruptClose:
      ::shutdown(io.fd, SHUT_RDWR);
      return Status::Unavailable("injected abrupt close");
  }
  return std::nullopt;
}

std::optional<Status> ApplyRecvFault(const FrameIo& io) {
  if (io.injector == nullptr) return std::nullopt;
  sql::FaultSite site{io.label, "net recv " + io.side,
                      sql::FaultLayer::kNetwork};
  auto fault = io.injector->MaybeNetworkFault(site, 0);
  if (!fault.has_value()) return std::nullopt;
  switch (fault->kind) {
    case sql::NetFault::Kind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(fault->delay_ms));
      return std::nullopt;
    case sql::NetFault::Kind::kDrop:
    case sql::NetFault::Kind::kPartialWrite:
      // Receive-side loss: the frame never arrives; the reader gives up
      // on the connection.
      return Status::Unavailable("injected network drop (recv)");
    case sql::NetFault::Kind::kAbruptClose:
      ::shutdown(io.fd, SHUT_RDWR);
      return Status::Unavailable("injected abrupt close (recv)");
  }
  return std::nullopt;
}

}  // namespace

Status SendFrame(const FrameIo& io, std::string_view payload) {
  std::string wire;
  sql::WalPutU32(wire, static_cast<uint32_t>(payload.size()));
  sql::WalPutU32(wire, sql::WalCrc32(payload.data(), payload.size()));
  wire.append(payload.data(), payload.size());
  if (auto injected = ApplySendFault(io, wire)) return *injected;
  auto deadline = DeadlineFrom(io.deadline_ms);
  return WriteFull(io.fd, wire.data(), wire.size(), deadline,
                   io.bytes_out);
}

Result<std::string> RecvFrame(const FrameIo& io, int idle_ms) {
  if (auto injected = ApplyRecvFault(io)) return *injected;
  char header[8];
  auto deadline = DeadlineFrom(io.deadline_ms);
  SQLFLOW_RETURN_IF_ERROR(ReadFull(io.fd, header, sizeof(header), deadline,
                                   /*eof_ok_at_start=*/true, io.bytes_in,
                                   idle_ms));
  auto read_u32 = [&header](int at) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(header[at + i]))
           << (8 * i);
    }
    return v;
  };
  uint32_t len = read_u32(0);
  uint32_t crc = read_u32(4);
  if (len > io.max_frame_bytes) {
    return Status::DataLoss("frame of " + std::to_string(len) +
                            " bytes exceeds the " +
                            std::to_string(io.max_frame_bytes) +
                            "-byte limit");
  }
  std::string payload(len, '\0');
  SQLFLOW_RETURN_IF_ERROR(ReadFull(io.fd, payload.data(), len, deadline,
                                   /*eof_ok_at_start=*/false, io.bytes_in,
                                   RemainingMs(deadline)));
  if (sql::WalCrc32(payload.data(), payload.size()) != crc) {
    return Status::DataLoss("frame failed CRC check");
  }
  return payload;
}

bool IsCleanEof(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message() == kEofMessage;
}

}  // namespace sqlflow::net
