// sketchd: the DDSketch serving daemon. Fronts a sharded durable
// time-series sketch store (per-shard WAL + snapshots,
// src/timeseries/) with the binary wire protocol of docs/PROTOCOL.md,
// serving thousands of connections from a small epoll event-loop pool
// with admission control (staged-bytes budget → BUSY, deadline
// shedding), batching concurrent ingest fsyncs via per-shard group
// commit, and checkpointing shards in the background
// (src/server/server.h). Operator documentation — flags, data-dir
// layout, admission tuning, crash recovery — lives in
// docs/OPERATIONS.md.
//
// Usage:
//   sketchd --data-dir DIR [--host 127.0.0.1] [--port 0] [--alpha 0.01]
//           [--shards 0] [--commit-batch 64] [--commit-interval-us 0]
//           [--checkpoint-wal-bytes 0] [--checkpoint-interval-s 0]
//           [--event-loops 0] [--staged-bytes-budget 67108864]
//           [--idle-timeout-s 300] [--stall-timeout-ms 10000]
//           [--tag-budget tag=weight,..] [--tag-p99-target-us 0]
//           [--rollup-levels 10s,1m,1h] [--retention 1h,1d,inf]
//           [--port-file FILE] [--role primary|follower]
//           [--follow HOST:PORT] [--repl-ack-timeout-ms 1000]
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// printed on stdout and, with --port-file, written atomically to FILE so
// scripts can wait for it. The daemon runs until SIGINT/SIGTERM, then
// shuts down cleanly (staged ingests are committed before exit; the WAL
// makes even a SIGKILL recoverable).
//
// Replication (protocol v5, docs/PROTOCOL.md): `--role follower
// --follow HOST:PORT` starts a read-only replica that bootstraps from
// the primary's snapshots and tails its WAL segments. SIGUSR1 (or the
// PROMOTE op via `ddsketch_cli remote-promote`) promotes a follower to
// primary: it bumps the fencing token, stops tailing, and fences the
// old primary so its late writes are refused with FENCED.
//
// Talk to it with `ddsketch_cli remote-ingest / remote-query /
// remote-stats`, or any SketchClient (src/server/client.h).

#include <csignal>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "parse_number.h"
#include "server/server.h"
#include "util/file_io.h"

namespace {

using dd::ParseNumber;

/// ParseArg for a flag's value in [0, hi].
template <typename T>
bool ParseFlag(const std::string& flag, const char* text, T* out,
               T hi = std::numeric_limits<T>::max()) {
  return dd::ParseArg("sketchd", flag, text, T{0}, hi, out);
}

/// Parses "10s", "1m", "1h", "2d", or a bare second count into seconds.
/// Returns -1 on malformed or overflowing input.
int64_t ParseDurationSeconds(std::string_view text) {
  int64_t scale = 1;
  if (!text.empty() && (text.back() < '0' || text.back() > '9')) {
    switch (text.back()) {
      case 's': scale = 1; break;
      case 'm': scale = 60; break;
      case 'h': scale = 3600; break;
      case 'd': scale = 86400; break;
      default: return -1;
    }
    text.remove_suffix(1);
  }
  int64_t n = 0;
  const int64_t max = std::numeric_limits<int64_t>::max() / scale;
  return ParseNumber<int64_t>(text, 0, max, &n) ? n * scale : -1;
}

/// Parses a --tag-budget spec: "tag=weight,tag=weight,...". Weights are
/// positive integers; tag names follow the wire rules (1-64 chars of
/// [A-Za-z0-9._-], validated server-side). Returns false on malformed
/// input.
bool ParseTagBudget(const std::string& text,
                    std::vector<std::pair<std::string, uint64_t>>* out) {
  out->clear();
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const size_t eq = item.find('=');
    uint64_t weight = 0;
    if (eq == std::string::npos || eq == 0 ||
        !ParseNumber<uint64_t>(std::string_view(item).substr(eq + 1), 1,
                               std::numeric_limits<uint64_t>::max(),
                               &weight)) {
      return false;
    }
    out->emplace_back(item.substr(0, eq), weight);
    start = comma + 1;
  }
  return !out->empty();
}

/// Splits a comma-separated list of durations. "inf" (retention only)
/// maps to 0 = keep forever. Returns false on any malformed entry.
bool ParseDurationList(const std::string& text, bool allow_inf,
                       std::vector<int64_t>* out) {
  out->clear();
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    if (allow_inf && (item == "inf" || item == "forever")) {
      out->push_back(0);
    } else {
      const int64_t seconds = ParseDurationSeconds(item);
      if (seconds <= 0 && !(allow_inf && seconds == 0)) return false;
      out->push_back(seconds);
    }
    start = comma + 1;
  }
  return !out->empty();
}

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_promote = 0;

void HandleStopSignal(int) { g_stop = 1; }

void HandlePromoteSignal(int) { g_promote = 1; }

int Fail(const std::string& message) {
  std::fprintf(stderr, "sketchd: %s\n", message.c_str());
  return 1;
}

// The one source of truth for the flag list; --help prints it to stdout
// (exit 0) and errors print it to stderr (exit 2). docs/OPERATIONS.md
// documents the same set, and tests/smoke_sketchd.sh greps this output
// for every flag the manual names — keep the three in sync.
void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: sketchd --data-dir DIR [options]\n"
      "\n"
      "  --data-dir DIR            data directory (created/recovered on "
      "start)\n"
      "  --host H                  bind address            (default "
      "127.0.0.1)\n"
      "  --port P                  TCP port; 0 = ephemeral (default 0)\n"
      "  --port-file FILE          write the bound port atomically to FILE\n"
      "  --alpha A                 DDSketch relative accuracy (default "
      "0.01)\n"
      "  --shards N                shard count; 0 = auto-detect from the\n"
      "                            directory, fresh dirs open single-shard\n"
      "                            (default 0)\n"
      "  --commit-batch N          max records per group commit, per shard\n"
      "                            (default 64)\n"
      "  --commit-interval-us N    extra wait for a partial batch to fill\n"
      "                            (default 0)\n"
      "  --checkpoint-wal-bytes N  background-checkpoint a shard once its\n"
      "                            WAL exceeds N bytes; 0 = off (default "
      "0)\n"
      "  --checkpoint-interval-s N background-checkpoint a shard once its\n"
      "                            WAL has held records for N seconds;\n"
      "                            0 = off (default 0)\n"
      "  --event-loops N           epoll event-loop threads serving all\n"
      "                            connections; 0 = auto (default 0)\n"
      "  --staged-bytes-budget N   admission control: global cap on bytes\n"
      "                            staged but not yet durable; past it new\n"
      "                            records get BUSY; 0 = unlimited\n"
      "                            (default 67108864)\n"
      "  --idle-timeout-s N        shed a connection idle for N seconds;\n"
      "                            0 = never (default 300)\n"
      "  --stall-timeout-ms N      shed a connection whose hello, frame, or\n"
      "                            response drain stalls past N ms;\n"
      "                            0 = never (default 10000)\n"
      "  --tag-budget SPEC         per-tag admission weights as\n"
      "                            tag=weight,tag=weight,... (e.g.\n"
      "                            gold=3,bronze=1). Each tag's floor is\n"
      "                            its weighted slice of half the staged\n"
      "                            budget; the rest is borrowable. Tags\n"
      "                            not listed (and untagged peers) share\n"
      "                            the built-in default tag\n"
      "  --tag-p99-target-us N     throttle a tag once its ack p99\n"
      "                            exceeds N microseconds: its borrowable\n"
      "                            share halves per breach and recovers\n"
      "                            on good ticks; 0 = throttling off\n"
      "                            (default 0)\n"
      "  --rollup-levels L1,L2,..  resolution ladder: comma-separated\n"
      "                            interval widths, finest first, each a\n"
      "                            multiple of the previous (e.g.\n"
      "                            10s,1m,1h; suffixes s/m/h/d). Paired\n"
      "                            with --retention. Omit both to adopt\n"
      "                            the directory's ladder (fresh dirs get\n"
      "                            10s,1m,1h)\n"
      "  --retention R1,R2,..      per-level retention before data rolls\n"
      "                            up into the next level (same count and\n"
      "                            suffixes as --rollup-levels; the last\n"
      "                            entry may be inf to keep forever, e.g.\n"
      "                            1h,1d,inf). Rollup and trimming run\n"
      "                            only at checkpoint boundaries\n"
      "  --role R                  primary | follower (default primary);\n"
      "                            followers refuse writes with FENCED and\n"
      "                            replicate from --follow\n"
      "  --follow HOST:PORT        primary to replicate from (required\n"
      "                            when --role follower)\n"
      "  --repl-ack-timeout-ms N   semi-sync replication: hold client acks\n"
      "                            until every subscriber confirms, drop\n"
      "                            subscribers lagging past N ms; 0 acks\n"
      "                            without waiting (default 1000)\n"
      "  --help                    print this help and exit\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  std::string port_file;
  std::vector<int64_t> rollup_intervals;
  std::vector<int64_t> rollup_retention;
  dd::SketchServerOptions options;
  // Seconds-valued flags are stored in milliseconds.
  constexpr int64_t kMaxSeconds = std::numeric_limits<int64_t>::max() / 1000;
  int64_t seconds = 0;
  bool parsed = true;  // false once a numeric flag's value is refused
  for (int i = 1; i < argc && parsed; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--data-dir" && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.port);
    } else if (arg == "--alpha" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i],
                         &options.durable.store.sketch.relative_accuracy, 1.0);
    } else if (arg == "--shards" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.shards);
    } else if (arg == "--commit-batch" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.commit_batch);
    } else if (arg == "--commit-interval-us" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.commit_interval_us);
    } else if (arg == "--checkpoint-wal-bytes" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.checkpoint_wal_bytes);
    } else if (arg == "--checkpoint-interval-s" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &seconds, kMaxSeconds);
      options.checkpoint_interval_ms = seconds * 1000;
    } else if (arg == "--event-loops" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.event_loops);
    } else if (arg == "--staged-bytes-budget" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.staged_bytes_budget);
    } else if (arg == "--idle-timeout-s" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &seconds, kMaxSeconds);
      options.idle_timeout_ms = seconds * 1000;
    } else if (arg == "--stall-timeout-ms" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.stall_timeout_ms);
    } else if (arg == "--tag-budget" && i + 1 < argc) {
      if (!ParseTagBudget(argv[++i], &options.tag_weights)) {
        std::fprintf(stderr,
                     "sketchd: --tag-budget wants tag=weight,tag=weight,... "
                     "with positive integer weights (e.g. gold=3,bronze=1)\n");
        return Usage();
      }
    } else if (arg == "--tag-p99-target-us" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.tag_p99_target_us);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--rollup-levels" && i + 1 < argc) {
      if (!ParseDurationList(argv[++i], /*allow_inf=*/false,
                             &rollup_intervals)) {
        std::fprintf(stderr,
                     "sketchd: --rollup-levels wants a comma-separated list "
                     "of durations (e.g. 10s,1m,1h)\n");
        return Usage();
      }
    } else if (arg == "--retention" && i + 1 < argc) {
      if (!ParseDurationList(argv[++i], /*allow_inf=*/true,
                             &rollup_retention)) {
        std::fprintf(stderr,
                     "sketchd: --retention wants a comma-separated list of "
                     "durations, last may be inf (e.g. 1h,1d,inf)\n");
        return Usage();
      }
    } else if (arg == "--role" && i + 1 < argc) {
      const std::string role = argv[++i];
      if (role == "primary") {
        options.durable.role = dd::StoreRole::kPrimary;
      } else if (role == "follower") {
        options.durable.role = dd::StoreRole::kFollower;
      } else {
        std::fprintf(stderr, "sketchd: --role must be primary or follower\n");
        return Usage();
      }
    } else if (arg == "--follow" && i + 1 < argc) {
      const std::string target = argv[++i];
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          !ParseNumber<uint16_t>(std::string_view(target).substr(colon + 1), 1,
                                 65535, &options.follow_port)) {
        std::fprintf(stderr, "sketchd: --follow wants HOST:PORT\n");
        return Usage();
      }
      options.follow_host = target.substr(0, colon);
    } else if (arg == "--repl-ack-timeout-ms" && i + 1 < argc) {
      parsed = ParseFlag(arg, argv[++i], &options.repl_ack_timeout_ms);
    } else {
      std::fprintf(stderr, "sketchd: unknown option: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (!parsed) return Usage();
  if (data_dir.empty()) {
    std::fprintf(stderr, "sketchd: --data-dir is required\n");
    return Usage();
  }
  if (rollup_intervals.size() != rollup_retention.size()) {
    std::fprintf(stderr,
                 "sketchd: --rollup-levels and --retention must be given "
                 "together with the same number of entries\n");
    return Usage();
  }
  for (size_t k = 0; k < rollup_intervals.size(); ++k) {
    options.durable.store.levels.push_back(
        {rollup_intervals[k], rollup_retention[k]});
  }
  if (dd::Status s = dd::SketchStore::ValidateLevels(options.durable.store.levels);
      !options.durable.store.levels.empty() && !s.ok()) {
    std::fprintf(stderr, "sketchd: %s\n", s.ToString().c_str());
    return Usage();
  }

  auto server = dd::SketchServer::Start(data_dir, options);
  if (!server.ok()) return Fail(server.status().ToString());

  std::printf("sketchd: listening on %s:%u (data-dir=%s, shards=%zu)\n",
              options.host.c_str(), server.value()->port(), data_dir.c_str(),
              server.value()->num_shards());
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Atomic so a watcher never reads a half-written port number.
    const std::string contents = std::to_string(server.value()->port()) + "\n";
    if (dd::Status s = dd::WriteFileAtomic(port_file, contents); !s.ok()) {
      server.value()->Stop();
      return Fail(s.ToString());
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGUSR1, HandlePromoteSignal);
  while (!g_stop) {
    if (g_promote) {
      g_promote = 0;
      auto token = server.value()->Promote();
      if (token.ok()) {
        std::printf("sketchd: promoted to primary (fence token %llu)\n",
                    static_cast<unsigned long long>(token.value()));
      } else {
        std::fprintf(stderr, "sketchd: promote failed: %s\n",
                     token.status().ToString().c_str());
      }
      std::fflush(stdout);
    }
    ::usleep(50 * 1000);
  }

  std::printf("sketchd: shutting down\n");
  server.value()->Stop();
  return 0;
}
