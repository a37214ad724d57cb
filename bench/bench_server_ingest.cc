// Serving-layer ingest throughput: what group commit buys on the WAL
// hot path, and what sharding adds on top. Configurations over the same
// value stream:
//
//   per_request_fsync   DurableSketchStore::IngestValue, one fsync per
//                       acknowledged record (the durability baseline a
//                       naive server would ship);
//   group_commit_N      IngestBatch with batch size N — N acknowledged
//                       records per fsync (a committer's drain path);
//   socket_4conns       the full daemon: sketchd serving core + 4
//                       pipelined SketchClient connections over
//                       loopback, group commit at batch 64, at
//                       shards = 1 and shards = 4 (per-shard committers
//                       fsync in parallel; ISSUE 5's scaling axis);
//   socket_Nconns       the event-loop scaling axis (ISSUE 6): the same
//                       4 hot connections with N-4 idle ones parked on
//                       the epoll loops. Parked connections must be
//                       nearly free — the hot-minority rate stays
//                       within ~10% of the bare 4-conn number and the
//                       process RSS stays flat (rss_delta_kb column);
//   socket_overload     deliberate overload: a one-record staged-bytes
//                       budget with client retries disabled. Refusals
//                       surface as BUSY, and the bench verifies zero
//                       lost acks by reopening the store and recounting.
//
// The acceptance bar (ISSUE 3): group_commit_64 ingests at >= 5x the
// per-request-fsync rate. The fsyncs column shows why — the fsync count
// collapses by the batch factor while the bytes written stay identical.
//
// Every socket row also reports the server's own INGEST ack-latency
// percentiles (srv_p50/p99/p999_us): sketchd sketches its request
// latencies into per-op DDSketches (protocol v4 STATS), so the bench
// shows both sides — client-observed throughput and server-measured
// tail latency — from one run.
//
// JSON for CI trend tracking (uploaded as part of the BENCH artifact):
//   bench_server_ingest [--json FILE]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/common/table.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "timeseries/durable_store.h"
#include "timeseries/wal.h"
#include "util/file_io.h"

namespace dd::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Local DD_BENCH_FULL check (bench/common/params.h pulls in dd_data
/// headers; this bench deliberately sticks to the production stack).
bool FullScaleRun() {
  const char* env = std::getenv("DD_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

struct RunResult {
  std::string mode;
  size_t shards = 1;
  double seconds = 0;
  uint64_t fsyncs = 0;
  uint64_t busy_rejections = 0;
  long rss_delta_kb = 0;
  /// Records actually acknowledged; 0 means "all n" (only the overload
  /// row acks fewer than it attempts).
  size_t records = 0;
  /// Server-side INGEST ack-latency percentiles (protocol v4 STATS,
  /// microseconds) — the daemon measuring itself, alongside the
  /// client-side rate. Zero for the store-only (no server) modes.
  uint64_t srv_lat_count = 0;
  double srv_p50_us = 0;
  double srv_p99_us = 0;
  double srv_p999_us = 0;
};

/// Pulls the server's own INGEST latency row over the wire (one extra
/// STATS connection, after the timed region).
void FillServerLatency(SketchServer* server, RunResult* result) {
  auto client = SketchClient::Connect("127.0.0.1", server->port());
  if (!client.ok()) return;
  auto stats = client.value().Stats();
  if (!stats.ok()) return;
  const OpLatencyStats& row =
      stats.value().op_latencies[static_cast<size_t>(LatencyOp::kIngest)];
  result->srv_lat_count = row.count;
  result->srv_p50_us = row.p50_us;
  result->srv_p99_us = row.p99_us;
  result->srv_p999_us = row.p999_us;
}

/// A deterministic value stream (no dd_data dependency: this bench links
/// the production serving stack plus dd_server only).
double ValueAt(size_t i) { return 1.0 + static_cast<double>((i * 31) % 997); }

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dd_bench_server_" + name);
  fs::remove_all(dir);
  return dir;
}

RunResult RunPerRequestFsync(size_t n) {
  const fs::path dir = FreshDir("per_request");
  DurableSketchStoreOptions options;
  auto store = std::move(DurableSketchStore::Open(dir.string(), options)).value();
  const uint64_t fsyncs_before = TotalFsyncCount();
  const auto start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    if (!store.IngestValue("svc", static_cast<int64_t>(i % 600), ValueAt(i))
             .ok()) {
      std::abort();
    }
  }
  const auto stop = Clock::now();
  RunResult result;
  result.mode = "per_request_fsync";
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.fsyncs = TotalFsyncCount() - fsyncs_before;
  fs::remove_all(dir);
  return result;
}

RunResult RunGroupCommit(size_t n, size_t batch) {
  const fs::path dir = FreshDir("group_" + std::to_string(batch));
  auto store = std::move(DurableSketchStore::Open(dir.string(), {})).value();
  const uint64_t fsyncs_before = TotalFsyncCount();
  const auto start = Clock::now();
  std::vector<WalRecord> records;
  records.reserve(batch);
  for (size_t i = 0; i < n;) {
    records.clear();
    for (size_t j = 0; j < batch && i < n; ++j, ++i) {
      WalRecord record;
      record.type = WalRecord::Type::kIngestValue;
      record.series = "svc";
      record.timestamp = static_cast<int64_t>(i % 600);
      record.value = ValueAt(i);
      records.push_back(std::move(record));
    }
    if (!store.IngestBatch(records).ok()) std::abort();
  }
  const auto stop = Clock::now();
  RunResult result;
  result.mode = "group_commit_" + std::to_string(batch);
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.fsyncs = TotalFsyncCount() - fsyncs_before;
  fs::remove_all(dir);
  return result;
}

RunResult RunSocket(size_t n, size_t connections, size_t shards) {
  const fs::path dir = FreshDir("socket_s" + std::to_string(shards));
  SketchServerOptions options;
  options.commit_batch = 64;
  options.shards = shards;
  auto server = std::move(SketchServer::Start(dir.string(), options)).value();
  const size_t per_conn = n / connections;
  const uint64_t fsyncs_before = TotalFsyncCount();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&server, c, per_conn] {
      auto client = SketchClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) std::abort();
      std::vector<std::pair<int64_t, double>> points;
      points.reserve(per_conn);
      for (size_t i = 0; i < per_conn; ++i) {
        const size_t k = c * per_conn + i;
        points.emplace_back(static_cast<int64_t>(k % 600), ValueAt(k));
      }
      // One series per connection: with shards > 1 the hash spreads the
      // series over shards, exercising the parallel committers.
      if (!client.value()
               .IngestValues("svc." + std::to_string(c), points)
               .ok()) {
        std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto stop = Clock::now();
  RunResult result;
  result.mode = "socket_" + std::to_string(connections) + "conns";
  result.shards = shards;
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.fsyncs = TotalFsyncCount() - fsyncs_before;
  FillServerLatency(server.get(), &result);
  server->Stop();
  fs::remove_all(dir);
  return result;
}

long RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Raises the fd soft limit toward the hard limit and reports whether
/// `needed` descriptors fit (the 1024-connection row needs ~2.3k: both
/// socket ends live in this process).
bool EnsureFdLimit(rlim_t needed) {
  struct rlimit lim;
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur < needed && lim.rlim_max > lim.rlim_cur) {
    lim.rlim_cur = lim.rlim_max < needed ? lim.rlim_max : needed;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return lim.rlim_cur >= needed;
}

/// The event-loop scaling row: `total_conns` connections of which 4 are
/// hot (splitting the n records) and the rest are parked idle — hello
/// completed, then silent. Also reports the RSS delta across the run:
/// parked connections must cost epoll registrations, not stacks.
RunResult RunSocketParked(size_t n, size_t total_conns) {
  constexpr size_t kHot = 4;
  const fs::path dir = FreshDir("parked_" + std::to_string(total_conns));
  SketchServerOptions options;
  options.commit_batch = 64;
  auto server = std::move(SketchServer::Start(dir.string(), options)).value();

  const std::string hello = EncodeHello();
  std::vector<int> parked;
  parked.reserve(total_conns - kHot);
  for (size_t i = kHot; i < total_conns; ++i) {
    auto fd = ConnectTcp("127.0.0.1", server->port());
    if (!fd.ok()) std::abort();
    if (::send(fd.value(), hello.data(), hello.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(hello.size())) {
      std::abort();
    }
    parked.push_back(fd.value());
  }

  const long rss_before = RssKb();
  const uint64_t fsyncs_before = TotalFsyncCount();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kHot; ++c) {
    threads.emplace_back([&server, c, n] {
      const size_t per_conn = n / kHot;
      auto client = SketchClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) std::abort();
      std::vector<std::pair<int64_t, double>> points;
      points.reserve(per_conn);
      for (size_t i = 0; i < per_conn; ++i) {
        const size_t k = c * per_conn + i;
        points.emplace_back(static_cast<int64_t>(k % 600), ValueAt(k));
      }
      if (!client.value()
               .IngestValues("svc." + std::to_string(c), points)
               .ok()) {
        std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto stop = Clock::now();
  RunResult result;
  result.mode = "socket_" + std::to_string(total_conns) + "conns";
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.fsyncs = TotalFsyncCount() - fsyncs_before;
  result.rss_delta_kb = RssKb() - rss_before;
  FillServerLatency(server.get(), &result);
  for (int fd : parked) ::close(fd);
  server->Stop();
  fs::remove_all(dir);
  return result;
}

/// Deliberate overload: a budget of ~one staged record and no client
/// retries, so refusals surface as BUSY. The invariant checked here is
/// the serving layer's core promise — an acked record is never lost, a
/// refused one is never committed — verified by reopening the store and
/// recounting. The reported rate is acked records over wall clock.
RunResult RunSocketOverload(size_t n) {
  constexpr size_t kConns = 4;
  const fs::path dir = FreshDir("overload");
  SketchServerOptions options;
  options.commit_batch = 64;
  options.staged_bytes_budget = 160;
  options.commit_interval_us = 1000;
  auto server = std::move(SketchServer::Start(dir.string(), options)).value();
  std::vector<uint64_t> acked(kConns, 0);
  std::vector<uint64_t> busy(kConns, 0);
  const uint64_t fsyncs_before = TotalFsyncCount();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConns; ++c) {
    threads.emplace_back([&server, &acked, &busy, c, n] {
      auto client = SketchClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) std::abort();
      client.value().set_busy_retries(0);
      const std::string series = "svc." + std::to_string(c);
      for (size_t i = 0; i < n / kConns; ++i) {
        const Status status = client.value().IngestValue(
            series, static_cast<int64_t>(i % 600), ValueAt(i));
        if (status.ok()) {
          ++acked[c];
        } else if (status.code() == StatusCode::kBusy) {
          ++busy[c];
        } else {
          std::abort();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto stop = Clock::now();
  RunResult result;
  FillServerLatency(server.get(), &result);
  server->Stop();

  uint64_t total_acked = 0;
  uint64_t total_busy = 0;
  for (size_t c = 0; c < kConns; ++c) {
    total_acked += acked[c];
    total_busy += busy[c];
  }
  // Zero lost acks: the reopened store must hold exactly what was acked.
  auto reopened = DurableSketchStore::Open(dir.string(), {});
  if (!reopened.ok()) std::abort();
  double recovered = 0;
  for (size_t c = 0; c < kConns; ++c) {
    auto range = reopened.value().QueryRange("svc." + std::to_string(c), 0,
                                             1 << 20);
    if (range.ok()) recovered += range.value().count();
  }
  if (recovered != static_cast<double>(total_acked)) {
    std::fprintf(stderr,
                 "overload run lost acked records: acked %llu, recovered "
                 "%.0f\n",
                 static_cast<unsigned long long>(total_acked), recovered);
    std::abort();
  }
  result.mode = "socket_overload";
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.fsyncs = TotalFsyncCount() - fsyncs_before;
  result.busy_rejections = total_busy;
  result.records = static_cast<size_t>(total_acked);
  fs::remove_all(dir);
  return result;
}

/// Emits the rows as a small JSON document (part of CI's BENCH artifact)
/// so the serving-path trajectory is diffable across commits.
void WriteJson(const std::string& path, size_t n,
               const std::vector<RunResult>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"server_ingest\",\n"
               "  \"n\": %zu,\n"
               "  \"unit\": \"records_per_sec\",\n"
               "  \"rows\": [\n",
               n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    const size_t records = r.records ? r.records : n;
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"shards\": %zu, "
                 "\"records_per_sec\": %.0f, \"fsyncs\": %llu, "
                 "\"busy_rejections\": %llu, \"rss_delta_kb\": %ld, "
                 "\"srv_ingest_count\": %llu, \"srv_p50_us\": %.3f, "
                 "\"srv_p99_us\": %.3f, \"srv_p999_us\": %.3f}%s\n",
                 r.mode.c_str(), r.shards,
                 static_cast<double>(records) / r.seconds,
                 static_cast<unsigned long long>(r.fsyncs),
                 static_cast<unsigned long long>(r.busy_rejections),
                 r.rss_delta_kb,
                 static_cast<unsigned long long>(r.srv_lat_count), r.srv_p50_us,
                 r.srv_p99_us, r.srv_p999_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace dd::bench

int main(int argc, char** argv) {
  using namespace dd::bench;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const size_t n = FullScaleRun() ? 200000 : 20000;
  std::printf(
      "=== Serving-layer ingest: group commit vs per-request fsync "
      "(n = %zu values) ===\n",
      n);

  std::vector<RunResult> rows;
  rows.push_back(RunPerRequestFsync(n));
  const double base_rate = static_cast<double>(n) / rows[0].seconds;
  for (size_t batch : {8u, 64u, 256u}) {
    rows.push_back(RunGroupCommit(n, batch));
  }
  double four_conn_rate = 0;  // the 4-conn single-shard reference point
  for (size_t shards : {1u, 4u}) {
    rows.push_back(RunSocket(n, 4, shards));
    if (shards == 1) four_conn_rate = static_cast<double>(n) / rows.back().seconds;
  }

  // The event-loop scaling axis: the same 4 hot connections with an
  // idle majority parked on the loops. connections = {4, 256, 1024}
  // (the 4-conn point is the socket_4conns row above).
  for (size_t total : {256u, 1024u}) {
    // Both socket ends plus the store live in this process.
    if (!EnsureFdLimit(2 * total + 256)) {
      std::printf("skipping %zu-conn row: fd limit too low\n", total);
      continue;
    }
    rows.push_back(RunSocketParked(n, total));
    const double rate = static_cast<double>(n) / rows.back().seconds;
    std::printf("%zu parked conns: hot-minority rate at %.0f%% of the "
                "4-conn rate, rss %+ld kB\n",
                total - 4, 100.0 * rate / four_conn_rate,
                rows.back().rss_delta_kb);
  }
  rows.push_back(RunSocketOverload(n));

  Table table({"mode", "shards", "records_per_sec", "fsyncs",
               "records_per_fsync", "speedup_vs_fsync", "busy",
               "rss_delta_kb", "srv_p50_us", "srv_p99_us", "srv_p999_us"});
  for (const RunResult& r : rows) {
    const size_t records = r.records ? r.records : n;
    const double rate = static_cast<double>(records) / r.seconds;
    table.AddRow({r.mode, FmtInt(r.shards), Fmt(rate, "%.0f"),
                  FmtInt(r.fsyncs),
                  Fmt(static_cast<double>(records) /
                          static_cast<double>(r.fsyncs ? r.fsyncs : 1),
                      "%.1f"),
                  Fmt(rate / base_rate, "%.2f"), FmtInt(r.busy_rejections),
                  FmtInt(static_cast<uint64_t>(
                      r.rss_delta_kb > 0 ? r.rss_delta_kb : 0)),
                  Fmt(r.srv_p50_us, "%.1f"), Fmt(r.srv_p99_us, "%.1f"),
                  Fmt(r.srv_p999_us, "%.1f")});
  }
  table.Print("server_ingest");
  if (!json_path.empty()) WriteJson(json_path, n, rows);
  return 0;
}
