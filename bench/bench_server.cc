// Wire-protocol server throughput — the client/server regime the paper's
// workflow products actually run in (§2: engines and designers talk to
// the database tier over a network protocol, not in-process calls).
// Each request crosses the loopback TCP socket, the length-prefixed
// CRC-framed codec, the admission gates, and a per-connection Session
// before touching the SQL engine; the workload is 3:1 read/write so the
// exclusive statement latch and the shared read path both show up.
//
// Emits BENCH_server.json on a full run: QPS and p50/p99 request latency
// at 1 / 8 / 64 client connections, plus an overload run offering 2x the
// admission limit which must shed cleanly — every refusal transient, p99
// of the admitted work bounded, and the server alive and serving
// afterwards (the "zero crashes" bar). `--quick` runs a smoke pass with
// fewer requests per connection and skips the JSON; the binary aborts
// in either mode if the overload envelope breaks.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "wfc/engine.h"

namespace sqlflow {
namespace {

bool g_quick = false;

constexpr char kReadSql[] = "SELECT V FROM KV WHERE K = 7";
constexpr char kWriteSql[] = "INSERT INTO KVLOG (K) VALUES (1)";

struct LevelSummary {
  size_t connections = 0;
  size_t requests = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
};

struct OverloadSummary {
  uint32_t admission_limit = 0;
  size_t offered_connections = 0;
  size_t succeeded_requests = 0;
  size_t transient_failures = 0;
  size_t non_transient_failures = 0;
  uint64_t server_shed = 0;
  uint64_t server_rejected_at_accept = 0;
  double p99_us = 0;
  bool server_alive_after = false;
};

std::map<size_t, LevelSummary> g_levels;
OverloadSummary g_overload;

/// Server fixture: in-memory database with a tiny KV table plus an
/// append-only log table, fronted by a freshly started Server on an
/// ephemeral loopback port.
struct ServerFixture {
  sql::Database db;
  wfc::WorkflowEngine engine;
  std::unique_ptr<net::Server> server;

  ServerFixture(const std::string& name, net::ServerOptions options)
      : db(name), engine(name + "-engine") {
    bench::CheckOk(
        db.Execute("CREATE TABLE KV (K INTEGER NOT NULL, V VARCHAR(32))")
            .status(),
        "CREATE KV");
    bench::CheckOk(
        db.Execute("CREATE TABLE KVLOG (K INTEGER NOT NULL)").status(),
        "CREATE KVLOG");
    for (int k = 0; k < 16; ++k) {
      bench::CheckOk(db.Execute("INSERT INTO KV (K, V) VALUES (" +
                                std::to_string(k) + ", 'v" +
                                std::to_string(k) + "')")
                         .status(),
                     "seed KV");
    }
    server = std::make_unique<net::Server>(&db, &engine, options);
    bench::CheckOk(server->Start(), "server Start");
  }
};

net::ClientOptions MakeClientOptions(const ServerFixture& fixture,
                                     const std::string& name,
                                     int max_attempts) {
  net::ClientOptions options;
  options.port = fixture.server->port();
  options.client_name = name;
  options.max_attempts = max_attempts;
  options.retry_backoff_ms = 1;
  return options;
}

/// QPS and request latency at a fixed connection count. Every client
/// thread drives its own connection synchronously (the driver is
/// request/response), so concurrency == connections; the worker pool
/// and the statement latch decide how far the wall-clock compresses.
void BM_RequestsAtConnectionCount(benchmark::State& state) {
  const size_t connections = static_cast<size_t>(state.range(0));
  const size_t per_conn = g_quick ? 25 : 200;

  net::ServerOptions options;
  options.max_connections = 128;
  options.worker_threads = 4;
  ServerFixture fixture("benchnet-" + std::to_string(connections), options);

  obs::Histogram latency;
  double total_seconds = 0;
  size_t total_requests = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < connections; ++i) {
      threads.emplace_back([&, i] {
        net::Client client(MakeClientOptions(
            fixture, "bench-" + std::to_string(i), /*max_attempts=*/5));
        bench::CheckOk(client.Connect(), "client Connect");
        for (size_t j = 0; j < per_conn; ++j) {
          const char* sql = (j % 4 == 3) ? kWriteSql : kReadSql;
          auto t0 = std::chrono::steady_clock::now();
          auto result = client.ExecuteSql(sql);
          bench::CheckOk(result.status(), "ExecuteSql");
          latency.Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    total_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    total_requests += connections * per_conn;
  }
  fixture.server->Stop();

  LevelSummary summary;
  summary.connections = connections;
  summary.requests = total_requests;
  summary.qps = total_seconds > 0
                    ? static_cast<double>(total_requests) / total_seconds
                    : 0;
  summary.p50_us = static_cast<double>(latency.p50()) / 1e3;
  summary.p99_us = static_cast<double>(latency.p99()) / 1e3;
  g_levels[connections] = summary;

  state.counters["qps"] = summary.qps;
  bench::ReportLatencyPercentiles(state, latency);
}
BENCHMARK(BM_RequestsAtConnectionCount)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Overload: offer 2x the admission limit. The server must stay in its
/// envelope — extra connections refused with a transient status (the
/// ladder may later squeeze them into freed slots), shed requests
/// surfaced as kUnavailable rather than queued without bound, admitted
/// work finishing with a bounded p99, and the server serving a fresh
/// client afterwards as if nothing happened.
void BM_OverloadAtTwiceAdmissionLimit(benchmark::State& state) {
  const uint32_t admission_limit = 8;
  const size_t offered = admission_limit * 2;
  const size_t per_conn = g_quick ? 20 : 100;

  net::ServerOptions options;
  options.max_connections = admission_limit;
  options.max_inflight_per_conn = 2;
  options.max_queue_depth = 16;
  options.worker_threads = 4;
  ServerFixture fixture("benchnet-overload", options);

  obs::Histogram latency;
  std::atomic<size_t> succeeded{0};
  std::atomic<size_t> transient_failures{0};
  std::atomic<size_t> non_transient_failures{0};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(offered);
    for (size_t i = 0; i < offered; ++i) {
      threads.emplace_back([&, i] {
        // A finite ladder: admission refusals and sheds are retried a
        // few times, then reported as the transient failures they are.
        net::Client client(MakeClientOptions(
            fixture, "ov-" + std::to_string(i), /*max_attempts=*/6));
        Status connect = client.Connect();
        if (!connect.ok()) {
          (connect.IsTransient() ? transient_failures
                                 : non_transient_failures)++;
          return;
        }
        for (size_t j = 0; j < per_conn; ++j) {
          // Keyed requests are safe to repeat, so the ladder absorbs
          // sheds mid-run instead of failing the whole connection.
          auto t0 = std::chrono::steady_clock::now();
          auto result = client.ExecuteSql(
              kReadSql, {},
              "ov-" + std::to_string(i) + "-" + std::to_string(j));
          if (result.ok()) {
            succeeded++;
            latency.Record(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
          } else {
            (result.status().IsTransient() ? transient_failures
                                           : non_transient_failures)++;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // The zero-crashes bar: after the storm the server still accepts a
  // fresh connection and serves it.
  bool alive = fixture.server->running();
  if (alive) {
    net::Client probe(
        MakeClientOptions(fixture, "probe", /*max_attempts=*/10));
    alive = probe.Connect().ok() && probe.Ping().ok() &&
            probe.ExecuteSql(kReadSql).ok();
  }
  if (!alive || non_transient_failures.load() != 0) {
    std::fprintf(stderr,
                 "overload run broke the envelope: alive=%d "
                 "non_transient_failures=%zu\n",
                 alive ? 1 : 0, non_transient_failures.load());
    std::abort();
  }
  net::ServerStats stats = fixture.server->stats();
  fixture.server->Stop();

  g_overload.admission_limit = admission_limit;
  g_overload.offered_connections = offered;
  g_overload.succeeded_requests = succeeded.load();
  g_overload.transient_failures = transient_failures.load();
  g_overload.non_transient_failures = non_transient_failures.load();
  g_overload.server_shed = stats.shed;
  g_overload.server_rejected_at_accept = stats.rejected_at_accept;
  g_overload.p99_us = static_cast<double>(latency.p99()) / 1e3;
  g_overload.server_alive_after = alive;

  state.counters["succeeded"] = static_cast<double>(succeeded.load());
  state.counters["transient_failures"] =
      static_cast<double>(transient_failures.load());
  bench::ReportLatencyPercentiles(state, latency);
}
BENCHMARK(BM_OverloadAtTwiceAdmissionLimit)->Unit(benchmark::kMillisecond);

void WriteServerJson(const char* path) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"server\",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"levels\": [\n";
  bool first = true;
  for (const auto& [connections, level] : g_levels) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"connections\": " << connections
        << ", \"requests\": " << level.requests << ", \"qps\": " << level.qps
        << ", \"p50_us\": " << level.p50_us
        << ", \"p99_us\": " << level.p99_us << "}";
  }
  out << "\n  ],\n";
  out << "  \"overload\": {\n";
  out << "    \"admission_limit\": " << g_overload.admission_limit << ",\n";
  out << "    \"offered_connections\": " << g_overload.offered_connections
      << ",\n";
  out << "    \"succeeded_requests\": " << g_overload.succeeded_requests
      << ",\n";
  out << "    \"transient_failures\": " << g_overload.transient_failures
      << ",\n";
  out << "    \"non_transient_failures\": "
      << g_overload.non_transient_failures << ",\n";
  out << "    \"server_shed\": " << g_overload.server_shed << ",\n";
  out << "    \"server_rejected_at_accept\": "
      << g_overload.server_rejected_at_accept << ",\n";
  out << "    \"p99_us\": " << g_overload.p99_us << ",\n";
  out << "    \"server_alive_after\": "
      << (g_overload.server_alive_after ? "true" : "false") << "\n";
  out << "  }\n}\n";
  std::printf("wrote %s (overload: %zu ok / %zu transient / %zu hard, "
              "p99 %.0fus, alive=%d)\n",
              path, g_overload.succeeded_requests,
              g_overload.transient_failures,
              g_overload.non_transient_failures, g_overload.p99_us,
              g_overload.server_alive_after ? 1 : 0);
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
  sqlflow::g_quick = quick;
  int adjusted_argc = static_cast<int>(args.size());

  sqlflow::bench::PrintBanner(
      "Wire-protocol server — QPS and request latency by connection count, "
      "plus overload at 2x the admission limit",
      "QPS grows from 1 to 8 connections (workers overlap socket turns), "
      "64 connections queue but hold a bounded p99, and the overload run "
      "sheds transiently with the server alive afterwards");
  benchmark::Initialize(&adjusted_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  if (!quick) sqlflow::WriteServerJson("BENCH_server.json");
  return 0;
}
