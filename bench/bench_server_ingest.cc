// Serving-layer ingest: the two costs that nothing else times, each gated
// by a ratio taken within one run. Rows over the same value stream:
//
//   per_request_fsync   DurableSketchStore::IngestValue, one fsync per
//                       acknowledged record (the durability baseline a
//                       naive server would ship);
//   group_commit_N      IngestBatch with batch size N: N acknowledged
//                       records per fsync (a committer's drain path);
//   socket_4conns       the full daemon: sketchd's serving core and 4 hot
//                       pipelined SketchClient connections over loopback,
//                       group commit at batch 64;
//   socket_4conns_1020parked
//                       the same, with 1020 idle connections parked on the
//                       event loops (hello done, then silent).
//
// Checks (the bench exits 1 when one fails):
//
//   group commit  group_commit_64 ingests at >= 5x the per_request_fsync
//                 rate (the serving layer's acceptance bar). The fsyncs
//                 column shows why: the fsync count collapses by the batch
//                 factor while the bytes written stay identical. Needs a
//                 real file system under fs::temp_directory_path(); on
//                 tmpfs an fsync costs nothing and the ratio means nothing.
//   parked conns  the parked run's process CPU per record is <=
//                 kParkedCeiling times the bare run's. A parked connection
//                 must cost an epoll registration, not work per frame. CPU,
//                 not rate: with spare cores the event loops absorb extra
//                 per-frame work and the commit latency still sets the
//                 rate.
//
// Both compare numbers taken in this run, so the verdict does not depend
// on how fast the host or its disk is. Neither catches a constant-factor
// slowdown on one host; perfbench's alternating parent/change pairs own
// that. perfbench also covers the socket path at 4 shards, and
// tests/smoke_sketchd.sh act 3 bounds the RSS of 1000 parked connections.
//
// DD_BENCH_FULL=1 raises n from 20k to 200k values.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench/common/table.h"
#include "server/client.h"
#include "server/server.h"
#include "timeseries/durable_store.h"
#include "timeseries/wal.h"
#include "util/file_io.h"

namespace dd::bench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr double kGroupCommitFloor = 5.0;
constexpr size_t kParked = 1020;
// Parked ÷ bare CPU per record read 0.93-1.16 over 30 runs on a 4-core x86
// host (pinned to an idle core, pinned beside a busy loop, or unpinned),
// and 2.03-2.70 when the event loop walked every connection for each
// frame. The rate ratio missed that walk unpinned (0.81-1.04).
constexpr double kParkedCeiling = 1.5;
constexpr int kSocketReps = 5;

/// Local DD_BENCH_FULL check (bench/common/params.h pulls in dd_data
/// headers; this bench deliberately sticks to the production stack).
bool FullScaleRun() {
  const char* env = std::getenv("DD_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

struct RunResult {
  std::string mode;
  double seconds = 0;
  double cpu_seconds = 0;  // every thread of this process, user + system
  uint64_t fsyncs = 0;
};

double ProcessCpuSeconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Reads the clocks and the fsync count at construction; Stop() turns
/// their deltas into the run's result.
struct RunMeter {
  Clock::time_point start = Clock::now();
  double cpu = ProcessCpuSeconds();
  uint64_t fsyncs = TotalFsyncCount();

  RunResult Stop(std::string mode) const {
    return {std::move(mode),
            std::chrono::duration<double>(Clock::now() - start).count(),
            ProcessCpuSeconds() - cpu, TotalFsyncCount() - fsyncs};
  }
};

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
  auto store = std::move(DurableSketchStore::Open(dir.string(), {})).value();
  const RunMeter meter;
  for (size_t i = 0; i < n; ++i) {
    if (!store.IngestValue("svc", static_cast<int64_t>(i % 600), ValueAt(i))
             .ok()) {
      std::abort();
    }
  }
  RunResult result = meter.Stop("per_request_fsync");
  fs::remove_all(dir);
  return result;
}

RunResult RunGroupCommit(size_t n, size_t batch) {
  const fs::path dir = FreshDir("group_" + std::to_string(batch));
  auto store = std::move(DurableSketchStore::Open(dir.string(), {})).value();
  const RunMeter meter;
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
  RunResult result = meter.Stop("group_commit_" + std::to_string(batch));
  fs::remove_all(dir);
  return result;
}

/// The full daemon: 4 hot pipelined connections split the n records, one
/// series each, while `parked` idle connections sit on the event loops.
/// Every parked connection has finished its hello before the clock
/// starts.
RunResult RunSocket(size_t n, size_t parked) {
  constexpr size_t kHot = 4;
  const fs::path dir = FreshDir("socket");
  SketchServerOptions options;
  options.commit_batch = 64;
  auto server = std::move(SketchServer::Start(dir.string(), options)).value();
  std::vector<SketchClient> idle;
  idle.reserve(parked);
  for (size_t i = 0; i < parked; ++i) {
    idle.push_back(
        std::move(SketchClient::Connect("127.0.0.1", server->port())).value());
  }

  const size_t per_conn = n / kHot;
  const RunMeter meter;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kHot; ++c) {
    threads.emplace_back([&server, c, per_conn] {
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
  RunResult result = meter.Stop(
      parked == 0 ? "socket_4conns"
                  : "socket_4conns_" + std::to_string(parked) + "parked");
  idle.clear();
  server->Stop();
  fs::remove_all(dir);
  return result;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

RunResult MedianRun(std::vector<RunResult> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.seconds < b.seconds;
            });
  return runs[runs.size() / 2];
}

/// Raises the fd soft limit toward the hard limit and reports whether
/// `needed` descriptors fit (the parked run needs ~2.3k: both socket ends
/// live in this process).
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

}  // namespace
}  // namespace dd::bench

int main() {
  using namespace dd::bench;
  const size_t n = FullScaleRun() ? 200000 : 20000;
  std::printf(
      "=== Serving-layer ingest: group commit vs per-request fsync "
      "(n = %zu values) ===\n",
      n);
  // Both socket ends plus the store live in this process.
  if (!EnsureFdLimit(2 * kParked + 256)) {
    std::fprintf(stderr, "the parked run needs %zu fds; raise ulimit -n\n",
                 2 * kParked + 256);
    return 1;
  }

  std::vector<RunResult> rows;
  rows.push_back(RunPerRequestFsync(n));
  for (size_t batch : {8u, 64u, 256u}) rows.push_back(RunGroupCommit(n, batch));
  // The pair runs kSocketReps times, alternating which side goes first;
  // the check takes the median CPU ratio and the table each mode's median
  // run.
  std::vector<RunResult> bare, with_parked;
  std::vector<double> cpu_ratios;
  for (int rep = 0; rep < kSocketReps; ++rep) {
    if (rep % 2 == 0) bare.push_back(RunSocket(n, 0));
    with_parked.push_back(RunSocket(n, kParked));
    if (rep % 2 == 1) bare.push_back(RunSocket(n, 0));
    cpu_ratios.push_back(with_parked.back().cpu_seconds /
                         bare.back().cpu_seconds);
  }
  rows.push_back(MedianRun(bare));
  rows.push_back(MedianRun(with_parked));

  auto rate = [n](const RunResult& r) {
    return static_cast<double>(n) / r.seconds;
  };
  Table table({"mode", "records_per_sec", "cpu_us_per_record", "fsyncs",
               "records_per_fsync", "speedup_vs_fsync"});
  for (const RunResult& r : rows) {
    table.AddRow({r.mode, Fmt(rate(r), "%.0f"),
                  Fmt(r.cpu_seconds * 1e6 / static_cast<double>(n), "%.2f"),
                  FmtInt(r.fsyncs),
                  Fmt(static_cast<double>(n) /
                          static_cast<double>(r.fsyncs ? r.fsyncs : 1),
                      "%.1f"),
                  Fmt(rate(r) / rate(rows[0]), "%.2f")});
  }
  table.Print("server_ingest");

  const double group_commit = rate(rows[2]) / rate(rows[0]);  // 64 vs 1
  const double parked = Median(cpu_ratios);
  const bool group_ok = group_commit >= kGroupCommitFloor;
  const bool parked_ok = parked <= kParkedCeiling;
  std::printf("\nchecks (same run):\n");
  std::printf("  %s  group commit: group_commit_64 / per_request_fsync = "
              "%.1fx (floor %.0fx)\n",
              group_ok ? "ok  " : "FAIL", group_commit, kGroupCommitFloor);
  std::printf("  %s  parked conns: CPU per record with %zu parked / bare = "
              "%.2fx (ceiling %.2fx)\n",
              parked_ok ? "ok  " : "FAIL", kParked, parked, kParkedCeiling);
  const bool ok = group_ok && parked_ok;
  std::printf("%s\n", ok ? "all checks passed" : "a check FAILED");
  return ok ? 0 : 1;
}
