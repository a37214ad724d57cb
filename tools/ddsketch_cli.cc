// ddsketch_cli: build, inspect, merge and query DDSketches from the shell.
//
// Usage:
//   ddsketch_cli build [--alpha A] [--buckets M] [--out FILE] < values.txt
//       Reads one value per line from stdin, writes a serialized sketch.
//       Any other line is skipped and counted as unparseable.
//   ddsketch_cli query FILE [q1 q2 ...]
//       Prints quantile estimates (default: p50 p75 p90 p95 p99 p99.9).
//   ddsketch_cli merge OUT IN1 IN2 [IN3 ...]
//       Merges serialized sketches into OUT.
//   ddsketch_cli info FILE
//       Prints count/min/max/mean/buckets/footprint.
//   ddsketch_cli generate DATASET N [SEED]
//       Emits N values of a built-in data set (pareto|span|power|
//       web_latency) to stdout, one per line — pipe into `build`.
//
// Durable time-series mode (persists to a data directory with per-shard
// write-ahead logs + snapshots; see src/timeseries/sharded_store.h).
// Sharded directories (created by `sketchd --shards N` or `ingest
// --shards N`) are auto-detected via their SHARDS manifest and writes
// route by the same stable series hash sketchd uses; legacy flat
// directories keep working unchanged:
//   ddsketch_cli ingest --data-dir DIR --series NAME [--timestamp T]
//                       [--alpha A] [--shards N] < values.txt
//       Reads "value" or "timestamp value" lines from stdin and ingests
//       them durably (plain values land at --timestamp, default 0), one
//       fsync per 4096-line window. Any other line is skipped and counted
//       as unparseable. --shards N creates a fresh directory with N
//       shards.
//   ddsketch_cli query --data-dir DIR --series NAME --start S --end E
//                      [--alpha A] [q1 q2 ...]
//       Quantiles of the merged sketch over [S, E).
//   ddsketch_cli compact --data-dir DIR --now T [--alpha A]
//       Rolls up old intervals, snapshots, and truncates the log
//       (every shard).
//
// Remote mode (talks to a running sketchd daemon over its wire protocol,
// docs/PROTOCOL.md; see tools/sketchd.cc):
//   ddsketch_cli remote-ingest --port P [--host H] --series NAME
//                              [--timestamp T] < values.txt
//       Streams "value" or "timestamp value" lines to the daemon
//       (pipelined, so the server's group commit batches the fsyncs).
//   ddsketch_cli remote-query --port P [--host H] --series NAME
//                             --start S --end E [q1 q2 ...]
//       Quantiles over [S, E), answered by the daemon.
//   ddsketch_cli remote-stats --port P [--host H]
//       Aggregate and per-shard store statistics (docs/OPERATIONS.md
//       documents every field).
//   ddsketch_cli remote-compact --port P [--host H] [--now T]
//       Runs rollup + retention on every shard and checkpoints (v6).
//       Without --now the fold is purely data-driven (the server clamps
//       the clock to the newest ingested timestamp regardless).
//   ddsketch_cli remote-promote --port P [--host H]
//       Promotes a follower to primary (v5 failover): bumps the fencing
//       token, stops tailing, fences the old primary.
//
// Example round trip:
//   ddsketch_cli generate pareto 1000000 | ddsketch_cli build --out s.dds
//   ddsketch_cli query s.dds 0.5 0.99

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/ddsketch.h"
#include "data/datasets.h"
#include "parse_number.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "timeseries/sharded_store.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "ddsketch_cli: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ddsketch_cli build [--alpha A] [--buckets M] [--out FILE]\n"
      "  ddsketch_cli query FILE [q1 q2 ...]\n"
      "  ddsketch_cli merge OUT IN1 IN2 [IN3 ...]\n"
      "  ddsketch_cli info FILE\n"
      "  ddsketch_cli generate DATASET N [SEED]\n"
      "durable time-series mode (sharded dirs auto-detected):\n"
      "  ddsketch_cli ingest --data-dir DIR --series NAME [--timestamp T]\n"
      "                      [--alpha A] [--shards N]\n"
      "                      (values on stdin)\n"
      "  ddsketch_cli query --data-dir DIR --series NAME --start S --end E\n"
      "                      [--alpha A] [q1 q2 ...]\n"
      "  ddsketch_cli compact --data-dir DIR --now T [--alpha A]\n"
      "remote mode (against a running sketchd):\n"
      "  ddsketch_cli remote-ingest --port P [--host H] --series NAME\n"
      "                      [--timestamp T]   (values on stdin)\n"
      "  ddsketch_cli remote-query --port P [--host H] --series NAME\n"
      "                      --start S --end E [q1 q2 ...]\n"
      "  ddsketch_cli remote-stats --port P [--host H]\n"
      "  ddsketch_cli remote-compact --port P [--host H] [--now T]\n"
      "  ddsketch_cli remote-promote --port P [--host H]\n"
      "  ddsketch_cli remote-stress --port P [--host H] [--series NAME]\n"
      "                      [--idle-conns N] [--hot-conns K] [--count M]\n"
      "                      [--tag NAME]  (charge hot conns to an\n"
      "                      admission tag; prints a per-tag summary)\n");
  return 2;
}

/// ParseArg for one ddsketch_cli argument; on false the caller exits 2.
template <typename T>
bool ParseValue(std::string_view name, const char* text, T* out,
                T lo = std::numeric_limits<T>::lowest(),
                T hi = std::numeric_limits<T>::max()) {
  return dd::ParseArg("ddsketch_cli", name, text, lo, hi, out);
}

/// Parses positional quantiles (default: p50 p75 p90 p95 p99 p99.9).
/// Returns false after reporting a malformed one.
bool ParseQuantiles(const std::vector<std::string>& args,
                    std::vector<double>* qs) {
  for (const std::string& arg : args) {
    double q = 0;
    if (!ParseValue("quantile", arg.c_str(), &q, 0.0, 1.0)) return false;
    qs->push_back(q);
  }
  if (qs->empty()) *qs = {0.5, 0.75, 0.9, 0.95, 0.99, 0.999};
  return true;
}

/// Parses one stdin line: a bare "value", or also "timestamp value" when
/// `timestamp` is non-null (a bare value leaves it unchanged). The line is
/// split on whitespace and each token must parse whole as a finite
/// number, so "2.5x", "7 3.0 junk" and "nan" are unparseable lines, never
/// other numbers. The timestamp parses as an integer: a double would
/// round timestamps above 2^53 (e.g. epoch nanoseconds).
bool ParseLine(std::string_view line, int64_t* timestamp, double* value) {
  constexpr std::string_view kSpace = " \t\r\v\f";
  std::string_view tokens[2];
  size_t count = 0;
  for (size_t i = line.find_first_not_of(kSpace);
       i != std::string_view::npos; i = line.find_first_not_of(kSpace, i)) {
    if (count == 2) return false;
    const size_t end = std::min(line.find_first_of(kSpace, i), line.size());
    tokens[count++] = line.substr(i, end - i);
    i = end;
  }
  constexpr double kMax = std::numeric_limits<double>::max();
  if (count == 1) return dd::ParseNumber(tokens[0], -kMax, kMax, value);
  return count == 2 && timestamp != nullptr &&
         dd::ParseNumber(tokens[0], std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max(), timestamp) &&
         dd::ParseNumber(tokens[1], -kMax, kMax, value);
}

dd::Result<dd::DDSketch> LoadSketch(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return dd::Status::InvalidArgument("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return dd::DDSketch::Deserialize(buffer.str());
}

bool SaveSketch(const dd::DDSketch& sketch, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string payload = sketch.Serialize();
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return static_cast<bool>(out);
}

int CmdBuild(int argc, char** argv) {
  double alpha = 0.01;
  int32_t buckets = 2048;
  std::string out_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--alpha" && i + 1 < argc) {
      if (!ParseValue(arg, argv[++i], &alpha, 0.0, 1.0)) return Usage();
    } else if (arg == "--buckets" && i + 1 < argc) {
      if (!ParseValue<int32_t>(arg, argv[++i], &buckets, 0)) return Usage();
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return Fail("unknown build option: " + arg);
    }
  }
  auto result = dd::DDSketch::Create(alpha, buckets);
  if (!result.ok()) return Fail(result.status().ToString());
  dd::DDSketch sketch = std::move(result).value();

  std::string line;
  uint64_t lines = 0, bad = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    double v = 0;
    if (!ParseLine(line, nullptr, &v)) {
      ++bad;
      continue;
    }
    sketch.Add(v);
    ++lines;
  }
  std::fprintf(stderr, "built sketch: %llu values (%llu unparseable lines)\n",
               static_cast<unsigned long long>(lines),
               static_cast<unsigned long long>(bad));
  if (out_path.empty()) {
    std::fprintf(stderr, "no --out given; printing summary only\n");
    std::printf("count=%llu p50=%.6g p99=%.6g\n",
                static_cast<unsigned long long>(sketch.count()),
                sketch.QuantileOrNaN(0.5), sketch.QuantileOrNaN(0.99));
    return 0;
  }
  if (!SaveSketch(sketch, out_path)) return Fail("cannot write " + out_path);
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::vector<double> qs;
  if (!ParseQuantiles(std::vector<std::string>(argv + 1, argv + argc), &qs)) {
    return Usage();
  }
  auto sketch = LoadSketch(argv[0]);
  if (!sketch.ok()) return Fail(sketch.status().ToString());
  for (double q : qs) {
    auto r = sketch.value().Quantile(q);
    if (!r.ok()) return Fail(r.status().ToString());
    std::printf("p%-7g %.10g\n", q * 100, r.value());
  }
  return 0;
}

int CmdMerge(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string out_path = argv[0];
  auto merged = LoadSketch(argv[1]);
  if (!merged.ok()) return Fail(merged.status().ToString());
  dd::DDSketch sketch = std::move(merged).value();
  for (int i = 2; i < argc; ++i) {
    auto next = LoadSketch(argv[i]);
    if (!next.ok()) return Fail(next.status().ToString());
    if (dd::Status s = sketch.MergeFrom(next.value()); !s.ok()) {
      return Fail(std::string(argv[i]) + ": " + s.ToString());
    }
  }
  if (!SaveSketch(sketch, out_path)) return Fail("cannot write " + out_path);
  std::fprintf(stderr, "merged %d sketches: %llu values\n", argc - 1,
               static_cast<unsigned long long>(sketch.count()));
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto sketch = LoadSketch(argv[0]);
  if (!sketch.ok()) return Fail(sketch.status().ToString());
  const dd::DDSketch& s = sketch.value();
  std::printf("count:            %llu\n",
              static_cast<unsigned long long>(s.count()));
  std::printf("zero_count:       %llu\n",
              static_cast<unsigned long long>(s.zero_count()));
  std::printf("rejected:         %llu\n",
              static_cast<unsigned long long>(s.rejected_count()));
  std::printf("min / max / mean: %.6g / %.6g / %.6g\n", s.min(), s.max(),
              s.mean());
  std::printf("alpha:            %.6g\n", s.relative_accuracy());
  std::printf("mapping:          %s\n",
              dd::MappingTypeToString(s.mapping().type()));
  std::printf("buckets:          %zu\n", s.num_buckets());
  std::printf("memory:           %.1f kB\n",
              static_cast<double>(s.size_in_bytes()) / 1024.0);
  return 0;
}

// Shared flag parsing for the durable subcommands. Returns 0, or the
// exit code after reporting: 1 for an unknown or missing flag, 2 for a
// malformed number. `extra` collects positional arguments.
struct DurableArgs {
  std::string data_dir;
  std::string series;
  std::string host = "127.0.0.1";
  int port = 0;
  int64_t timestamp = 0;
  int64_t start = 0;
  int64_t end = 0;
  int64_t now = 0;
  bool now_given = false;
  double alpha = 0.01;
  size_t shards = 0;  // 0 = auto-detect the directory's layout
  std::vector<std::string> extra;
};

int ParseDurableArgs(int argc, char** argv, DurableArgs* out,
                     bool require_data_dir = true) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    bool parsed = true;
    if (arg == "--data-dir" && i + 1 < argc) {
      out->data_dir = argv[++i];
    } else if (arg == "--series" && i + 1 < argc) {
      out->series = argv[++i];
    } else if (arg == "--timestamp" && i + 1 < argc) {
      parsed = ParseValue(arg, argv[++i], &out->timestamp);
    } else if (arg == "--start" && i + 1 < argc) {
      parsed = ParseValue(arg, argv[++i], &out->start);
    } else if (arg == "--end" && i + 1 < argc) {
      parsed = ParseValue(arg, argv[++i], &out->end);
    } else if (arg == "--now" && i + 1 < argc) {
      parsed = ParseValue(arg, argv[++i], &out->now);
      out->now_given = true;
    } else if (arg == "--host" && i + 1 < argc) {
      out->host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      parsed = ParseValue(arg, argv[++i], &out->port, 0, 65535);
    } else if (arg == "--alpha" && i + 1 < argc) {
      parsed = ParseValue(arg, argv[++i], &out->alpha, 0.0, 1.0);
    } else if (arg == "--shards" && i + 1 < argc) {
      parsed = ParseValue(arg, argv[++i], &out->shards);
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown option: " + arg);
    } else {
      out->extra.push_back(arg);
    }
    if (!parsed) return Usage();
  }
  if (require_data_dir && out->data_dir.empty()) {
    return Fail("--data-dir is required");
  }
  return 0;
}

/// Flag parsing for the remote subcommands: same flag set and exit
/// codes, but --port and --series are what is required instead of
/// --data-dir.
int ParseRemoteArgs(int argc, char** argv, DurableArgs* out) {
  if (int rc = ParseDurableArgs(argc, argv, out, /*require_data_dir=*/false);
      rc != 0) {
    return rc;
  }
  if (out->port <= 0 || out->port > 65535) {
    return Fail("--port is required (1-65535)");
  }
  if (out->series.empty()) return Fail("--series is required");
  return 0;
}

dd::Result<dd::ShardedDurableStore> OpenDurable(const DurableArgs& args) {
  dd::ShardedDurableStoreOptions options;
  options.durable.store.sketch.relative_accuracy = args.alpha;
  // 0 auto-detects: a SHARDS manifest routes by the shard hash, a legacy
  // flat directory opens in place, a fresh directory is single-shard
  // (unless --shards asked for more).
  options.shards = args.shards;
  return dd::ShardedDurableStore::Open(args.data_dir, options);
}

int CmdIngest(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseDurableArgs(argc, argv, &args); rc != 0) return rc;
  if (args.series.empty()) return Fail("--series is required");
  auto opened = OpenDurable(args);
  if (!opened.ok()) return Fail(opened.status().ToString());
  dd::ShardedDurableStore store = std::move(opened).value();
  dd::DurableSketchStore& shard = store.shard(store.ShardOf(args.series));

  // Commit in bounded windows, as remote-ingest streams them: memory
  // stays O(window) however large the pipe, and each window is one
  // group commit (one write, one fsync). Within a window, each run of
  // lines at one timestamp is one WAL record, as sketchd logs a
  // pipelined burst.
  constexpr size_t kWindow = 4096;
  std::vector<dd::WalRecord> window;
  std::string line;
  uint64_t ingested = 0, bad = 0;
  auto flush = [&] {
    const dd::Status s = shard.IngestBatch(window);
    window.clear();
    return s;
  };
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    int64_t timestamp = args.timestamp;
    double value = 0;
    if (!ParseLine(line, &timestamp, &value)) {
      ++bad;
      continue;
    }
    if (window.empty() || window.back().timestamp != timestamp) {
      dd::WalRecord& record = window.emplace_back();
      record.type = dd::WalRecord::Type::kIngestValues;
      record.series = args.series;
      record.timestamp = timestamp;
    }
    window.back().values.push_back(value);
    if (++ingested % kWindow == 0) {
      if (dd::Status s = flush(); !s.ok()) return Fail(s.ToString());
    }
  }
  if (dd::Status s = flush(); !s.ok()) return Fail(s.ToString());
  std::fprintf(stderr,
               "ingested %llu values into %s (%llu unparseable lines), "
               "shard %zu/%zu wal at %llu bytes\n",
               static_cast<unsigned long long>(ingested), args.series.c_str(),
               static_cast<unsigned long long>(bad),
               store.ShardOf(args.series), store.num_shards(),
               static_cast<unsigned long long>(shard.wal_offset()));
  return 0;
}

int CmdQueryDurable(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseDurableArgs(argc, argv, &args); rc != 0) return rc;
  if (args.series.empty()) return Fail("--series is required");
  if (args.end <= args.start) return Fail("--start/--end must be a window");
  std::vector<double> qs;
  if (!ParseQuantiles(args.extra, &qs)) return Usage();
  auto opened = OpenDurable(args);
  if (!opened.ok()) return Fail(opened.status().ToString());
  const dd::ShardedDurableStore store = std::move(opened).value();
  for (double q : qs) {
    auto r = store.QueryQuantile(args.series, args.start, args.end, q);
    if (!r.ok()) return Fail(r.status().ToString());
    std::printf("p%-7g %.10g\n", q * 100, r.value());
  }
  return 0;
}

int CmdCompact(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseDurableArgs(argc, argv, &args); rc != 0) return rc;
  auto opened = OpenDurable(args);
  if (!opened.ok()) return Fail(opened.status().ToString());
  dd::ShardedDurableStore store = std::move(opened).value();
  auto compacted = store.Compact(args.now);
  if (!compacted.ok()) return Fail(compacted.status().ToString());
  std::fprintf(stderr,
               "compacted %zu intervals; store holds %zu across %zu series "
               "(%zu shards)\n",
               compacted.value(), store.TotalIntervals(), store.TotalSeries(),
               store.num_shards());
  return 0;
}

int CmdRemoteIngest(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseRemoteArgs(argc, argv, &args); rc != 0) return rc;
  auto connected =
      dd::SketchClient::Connect(args.host, static_cast<uint16_t>(args.port));
  if (!connected.ok()) return Fail(connected.status().ToString());
  dd::SketchClient client = std::move(connected).value();

  // Same stdin grammar as `ingest`: bare values land at --timestamp,
  // "timestamp value" pairs carry their own. Stream in bounded windows
  // (memory stays O(window) however large the pipe) — each window is
  // pipelined by IngestValues, so the server still sees full commit
  // batches.
  constexpr size_t kWindow = 4096;
  std::vector<std::pair<int64_t, double>> points;
  points.reserve(kWindow);
  std::string line;
  uint64_t ingested = 0, bad = 0;
  auto flush = [&]() -> dd::Status {
    const dd::Status s = client.IngestValues(args.series, points);
    if (s.ok()) ingested += points.size();
    points.clear();
    return s;
  };
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    int64_t ts = args.timestamp;
    double value = 0;
    if (!ParseLine(line, &ts, &value)) {
      ++bad;
      continue;
    }
    points.emplace_back(ts, value);
    if (points.size() >= kWindow) {
      if (dd::Status s = flush(); !s.ok()) return Fail(s.ToString());
    }
  }
  if (dd::Status s = flush(); !s.ok()) return Fail(s.ToString());
  auto stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status().ToString());
  std::fprintf(stderr,
               "ingested %llu values into %s (%llu unparseable lines), "
               "wal at %llu bytes after %llu group commits\n",
               static_cast<unsigned long long>(ingested), args.series.c_str(),
               static_cast<unsigned long long>(bad),
               static_cast<unsigned long long>(stats.value().wal_offset),
               static_cast<unsigned long long>(stats.value().batch_commits));
  return 0;
}

int CmdRemoteQuery(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseRemoteArgs(argc, argv, &args); rc != 0) return rc;
  if (args.end <= args.start) return Fail("--start/--end must be a window");
  std::vector<double> qs;
  if (!ParseQuantiles(args.extra, &qs)) return Usage();
  auto connected =
      dd::SketchClient::Connect(args.host, static_cast<uint16_t>(args.port));
  if (!connected.ok()) return Fail(connected.status().ToString());
  dd::SketchClient client = std::move(connected).value();
  auto values = client.Query(args.series, args.start, args.end, qs);
  if (!values.ok()) return Fail(values.status().ToString());
  for (size_t i = 0; i < qs.size(); ++i) {
    std::printf("p%-7g %.10g\n", qs[i] * 100, values.value()[i]);
  }
  return 0;
}

int CmdRemoteStats(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseDurableArgs(argc, argv, &args, /*require_data_dir=*/false);
      rc != 0) {
    return rc;
  }
  if (args.port <= 0 || args.port > 65535) {
    return Fail("--port is required (1-65535)");
  }
  auto connected =
      dd::SketchClient::Connect(args.host, static_cast<uint16_t>(args.port));
  if (!connected.ok()) return Fail(connected.status().ToString());
  dd::SketchClient client = std::move(connected).value();
  auto stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status().ToString());
  // Grep-friendly `name value` lines, then one line per row
  // (tests/smoke_sketchd.sh watches the shard epochs to observe
  // background checkpoints). docs/OPERATIONS.md documents every field.
  const std::string text = dd::StatsText(stats.value());
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}

int CmdRemoteCompact(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseDurableArgs(argc, argv, &args, /*require_data_dir=*/false);
      rc != 0) {
    return rc;
  }
  if (args.port <= 0 || args.port > 65535) {
    return Fail("--port is required (1-65535)");
  }
  auto connected =
      dd::SketchClient::Connect(args.host, static_cast<uint16_t>(args.port));
  if (!connected.ok()) return Fail(connected.status().ToString());
  dd::SketchClient client = std::move(connected).value();
  // Without --now, fold everything eligible by data time (the server
  // clamps to the data horizon either way, so INT64_MAX saturates into
  // the same deterministic fold a scheduled checkpoint runs).
  const int64_t now =
      args.now_given ? args.now : std::numeric_limits<int64_t>::max();
  auto compacted = client.Compact(now);
  if (!compacted.ok()) return Fail(compacted.status().ToString());
  std::printf("compacted %llu intervals\n",
              static_cast<unsigned long long>(compacted.value()));
  return 0;
}

int CmdRemotePromote(int argc, char** argv) {
  DurableArgs args;
  if (int rc = ParseDurableArgs(argc, argv, &args, /*require_data_dir=*/false);
      rc != 0) {
    return rc;
  }
  if (args.port <= 0 || args.port > 65535) {
    return Fail("--port is required (1-65535)");
  }
  auto connected =
      dd::SketchClient::Connect(args.host, static_cast<uint16_t>(args.port));
  if (!connected.ok()) return Fail(connected.status().ToString());
  dd::SketchClient client = std::move(connected).value();
  auto token = client.Promote();
  if (!token.ok()) return Fail(token.status().ToString());
  std::printf("promoted: fence_token %llu\n",
              static_cast<unsigned long long>(token.value()));
  return 0;
}

/// Load shape for exercising the event-loop server: a large parked
/// majority of idle connections (hello done, then silent) plus a hot
/// minority ingesting flat out. Prints grep-friendly counters so
/// tests/smoke_sketchd.sh can assert the server kept serving, shed
/// nothing it should not have, and refused with BUSY rather than
/// losing acks. BUSY refusals here are re-driven by the client's
/// built-in backoff; only retry exhaustion counts as refused.
int CmdRemoteStress(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string series = "stress";
  std::string tag;
  int port = 0;
  int idle_conns = 1000;
  int hot_conns = 4;
  long long count = 2000;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    bool parsed = true;
    if (arg == "--host") {
      host = value;
    } else if (arg == "--port") {
      parsed = ParseValue(arg, value, &port, 0, 65535);
    } else if (arg == "--series") {
      series = value;
    } else if (arg == "--tag") {
      tag = value;
    } else if (arg == "--idle-conns") {
      parsed = ParseValue(arg, value, &idle_conns, 0);
    } else if (arg == "--hot-conns") {
      parsed = ParseValue(arg, value, &hot_conns, 0);
    } else if (arg == "--count") {
      parsed = ParseValue(arg, value, &count, 0LL);
    } else {
      return Fail("unknown flag: " + arg);
    }
    if (!parsed) return Usage();
    ++i;
  }
  if (port <= 0 || port > 65535) return Fail("--port is required (1-65535)");

  // Park the idle majority first: connect, complete the hello, then go
  // silent. They must cost the server nothing but epoll registrations.
  const std::string hello = dd::EncodeHello();
  std::vector<int> parked;
  parked.reserve(static_cast<size_t>(idle_conns));
  for (int i = 0; i < idle_conns; ++i) {
    auto fd = dd::ConnectTcp(host, static_cast<uint16_t>(port));
    if (!fd.ok()) break;  // fd limit reached: park what we can
    if (::send(fd.value(), hello.data(), hello.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(hello.size())) {
      ::close(fd.value());
      break;
    }
    parked.push_back(fd.value());
  }

  std::atomic<long long> acked{0};
  std::atomic<long long> refused{0};
  std::atomic<bool> hard_error{false};
  std::vector<std::thread> hot;
  for (int t = 0; t < hot_conns; ++t) {
    hot.emplace_back([&, t] {
      auto connected =
          dd::SketchClient::Connect(host, static_cast<uint16_t>(port));
      if (!connected.ok()) {
        hard_error.store(true);
        return;
      }
      dd::SketchClient client = std::move(connected).value();
      if (!tag.empty()) {
        if (const dd::Status s = client.SetTag(tag); !s.ok()) {
          std::fprintf(stderr, "remote-stress: SET_TAG: %s\n",
                       s.ToString().c_str());
          hard_error.store(true);
          return;
        }
      }
      const std::string name = series + "." + std::to_string(t);
      for (long long i = 0; i < count; ++i) {
        const dd::Status status =
            client.IngestValue(name, i % 1000, 1.0 + static_cast<double>(i % 97));
        if (status.ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        } else if (status.code() == dd::StatusCode::kBusy) {
          refused.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::fprintf(stderr, "remote-stress: %s\n",
                       status.ToString().c_str());
          hard_error.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : hot) t.join();
  for (int fd : parked) ::close(fd);

  std::printf("parked_conns %zu\n", parked.size());
  std::printf("acked %lld\n", acked.load());
  std::printf("refused_busy %lld\n", refused.load());
  // Per-tag summary: which ledger the hot connections were charged to
  // (untagged traffic lands on the server's built-in "default" tag).
  std::printf("tag_summary %s acked=%lld refused_busy=%lld\n",
              tag.empty() ? "default" : tag.c_str(), acked.load(),
              refused.load());
  if (hard_error.load()) return Fail("a hot connection saw a hard error");
  return 0;
}

bool HasDataDirFlag(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--data-dir") == 0) return true;
  }
  return false;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[0];
  size_t n = 0;
  uint64_t seed = dd::kDefaultSeed;
  if (!ParseValue("N", argv[1], &n) ||
      (argc > 2 && !ParseValue("SEED", argv[2], &seed))) {
    return Usage();
  }
  for (dd::DatasetId id :
       {dd::DatasetId::kPareto, dd::DatasetId::kSpan, dd::DatasetId::kPower,
        dd::DatasetId::kWebLatency}) {
    if (name == dd::DatasetIdToString(id)) {
      dd::DataStream stream(dd::MakeDataset(id), seed);
      for (size_t i = 0; i < n; ++i) std::printf("%.17g\n", stream.Next());
      return 0;
    }
  }
  return Fail("unknown data set: " + name +
              " (try pareto, span, power, web_latency)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "build") return CmdBuild(argc - 2, argv + 2);
  if (command == "query") {
    // `query FILE [q...]` inspects a sketch file; `query --data-dir ...`
    // queries a durable store.
    if (HasDataDirFlag(argc - 2, argv + 2)) {
      return CmdQueryDurable(argc - 2, argv + 2);
    }
    return CmdQuery(argc - 2, argv + 2);
  }
  if (command == "ingest") return CmdIngest(argc - 2, argv + 2);
  if (command == "remote-ingest") return CmdRemoteIngest(argc - 2, argv + 2);
  if (command == "remote-query") return CmdRemoteQuery(argc - 2, argv + 2);
  if (command == "remote-stats") return CmdRemoteStats(argc - 2, argv + 2);
  if (command == "remote-compact") return CmdRemoteCompact(argc - 2, argv + 2);
  if (command == "remote-promote") return CmdRemotePromote(argc - 2, argv + 2);
  if (command == "remote-stress") return CmdRemoteStress(argc - 2, argv + 2);
  if (command == "compact") return CmdCompact(argc - 2, argv + 2);
  if (command == "merge") return CmdMerge(argc - 2, argv + 2);
  if (command == "info") return CmdInfo(argc - 2, argv + 2);
  if (command == "generate") return CmdGenerate(argc - 2, argv + 2);
  return Usage();
}
