// sketchd_loadgen: runs one benchmark workload against a sketchd child
// process and prints every metric by name with its unit; the last line
// of stdout is the JSON result. See perfbench/README.md.
//
//   sketchd_loadgen --workload ingest_raw|ingest_sketches|query_mixed
//                   --seed N --seconds S --trace 0|1
//                   --sketchd PATH --work-dir DIR
//
// A run: generate inputs from the seed; set up (sketchd launch ->
// connections -> preload) several times and keep the last instance;
// warm up; measure one segment of --seconds with tracing off, CHECKPOINTs
// at fixed points of it; with --trace 1 measure a second, traced segment;
// on the ingest workloads let the dashboard read back what was written;
// SIGKILL sketchd and reopen its data; with --trace 1 replay the inputs
// in-process layer by layer; check every output; print. Every workload
// reports every metric of its kind (end-to-end or per-layer).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include <sched.h>
#include <sys/mount.h>
#include <sys/prctl.h>
#include <unistd.h>

#include "common.h"
#include "daemon.h"
#include "inputs.h"
#include "replay.h"
#include "verify.h"
#include "workloads.h"

namespace pb {
namespace {

namespace fs = std::filesystem;

constexpr double kWarmupS = 1.0;
constexpr int kIngestSetups = 21;
constexpr int kQuerySetups = 5;
// CHECKPOINT period. A query_mixed checkpoint stalls event loop 0 for
// ~140 ms, so it comes every 5 s; an ingest workload's takes ~20 ms and
// comes every second, enough samples for a steady median.
constexpr double kQueryCheckpointEveryS = 5.0;
constexpr double kIngestCheckpointEveryS = 1.0;
constexpr double kReadBackS = 6.0;  // ingest workloads' dashboard read-back
constexpr double kSliceS = 0.5;  // rates and percentiles: median over slices
constexpr int64_t kSloLimitNs = 50'000'000;  // live ingest ack deadline
// query_mixed's live data must keep the data horizon below kTimeBase +
// 60 s, so that the checkpoints' data-time rollup folds nothing beyond
// what set-up's COMPACT folded (the STATS interval check relies on it).
constexpr double kMaxLiveSpanS = 50.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string sketchd;
  std::string work_dir;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--sketchd") {
      args.sketchd = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw BenchError("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.sketchd.empty() || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    throw BenchError(
        "usage: sketchd_loadgen --workload W --seed N --seconds S --trace 0|1 "
        "--sketchd PATH --work-dir DIR");
  }
  return args;
}

void WriteProcFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

/// Mounts a tmpfs at `dir` inside a mount namespace private to this
/// process and its children (sketchd): the data directories keep a path
/// inside the work directory but live in memory, so an fsync returns at
/// once, and the mount vanishes when the last of these processes exits.
/// Without namespace support the directory stays on its own file system
/// (returns false).
bool MountPrivateTmpfs(const std::string& dir) {
  if (::unshare(CLONE_NEWNS) != 0) {
    const std::string uid = std::to_string(::getuid());
    const std::string gid = std::to_string(::getgid());
    if (::unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) return false;
    WriteProcFile("/proc/self/setgroups", "deny");
    WriteProcFile("/proc/self/uid_map", "0 " + uid + " 1");
    WriteProcFile("/proc/self/gid_map", "0 " + gid + " 1");
  }
  // Never propagate this namespace's mounts back to the host's.
  if (::mount("none", "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=2g,mode=0700") == 0;
}

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(ns)));
}

/// A segment boundary: time, sketchd CPU, and STATS.
struct Mark {
  int64_t ns = 0;
  double cpu_s = 0;
  dd::StoreStats stats;
};

Mark TakeMark(Session* session) {
  Mark mark;
  mark.ns = NowNs();
  mark.cpu_s = session->daemon->CpuSeconds();
  mark.stats = Check(session->control->Stats(), "STATS");
  return mark;
}

/// Bytes of the regular files under `dir`; a file that vanishes while
/// being counted (a checkpoint's rename) is skipped.
uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const uintmax_t size = it->file_size(ec);
    if (!ec && it->is_regular_file(ec)) bytes += size;
    ec.clear();
  }
  return bytes;
}

/// sketchd's CPU clock at a point of the run.
struct Tick {
  int64_t ns = 0;
  double cpu_s = 0;
};

/// What the generator measured between two ticks.
struct Segment {
  double seconds = 0;
  double cpu_s = 0;
  uint64_t values = 0;        // values acked OK
  uint64_t frames = 0;        // ingest requests attempted
  uint64_t failed_frames = 0;
  uint64_t slo_miss_values = 0;
  std::vector<double> ack_us;   // per window, from write (closed) or due (open)
  std::vector<double> late_ms;  // open-loop writes and CHECKPOINTs past due
  std::vector<double> query_us;
  uint64_t failed_queries = 0;
  std::vector<double> checkpoint_ms;
  uint64_t failed_checkpoints = 0;
  uint64_t attempted() const {
    return frames + query_us.size() + failed_queries + checkpoint_ms.size() +
           failed_checkpoints;
  }
  uint64_t failed() const {
    return failed_frames + failed_queries + failed_checkpoints;
  }
};

Segment Summarize(const LoadLog& log, const Tick& from, const Tick& to,
                  bool open_loop) {
  auto in = [&](int64_t t) { return t >= from.ns && t < to.ns; };
  Segment seg;
  seg.seconds = NsToS(to.ns - from.ns);
  seg.cpu_s = to.cpu_s - from.cpu_s;
  for (const WindowLog& w : log.windows) {
    // Closed loop: a window counts where it completed. Open loop: where it
    // was due, so a stall is charged to the time that suffered it.
    if (!in(open_loop ? w.due_ns : w.done_ns)) continue;
    seg.values += w.ok_values;
    seg.frames += w.frames;
    seg.failed_frames += w.failed.size();
    const int64_t ack_ns = w.done_ns - w.due_ns;
    seg.ack_us.push_back(NsToUs(ack_ns));
    seg.slo_miss_values += ack_ns > kSloLimitNs ? w.frames : w.failed.size();
    if (open_loop) seg.late_ms.push_back(NsToMs(w.write_ns - w.due_ns));
  }
  for (const OpLog& q : log.queries) {
    if (!in(q.start_ns)) continue;
    if (q.ok) {
      seg.query_us.push_back(NsToUs(q.end_ns - q.start_ns));
    } else {
      ++seg.failed_queries;
    }
  }
  for (const OpLog& c : log.checkpoints) {
    if (!in(c.start_ns)) continue;
    seg.late_ms.push_back(NsToMs(c.start_ns - c.due_ns));
    if (c.ok) {
      seg.checkpoint_ms.push_back(NsToMs(c.end_ns - c.start_ns));
    } else {
      ++seg.failed_checkpoints;
    }
  }
  return seg;
}

/// The median over `slices` of one per-slice figure: a burst of host
/// interference moves a few slices, not the median.
template <typename F>
double SliceMedian(const std::vector<Segment>& slices, F figure) {
  std::vector<double> values;
  for (const Segment& slice : slices) values.push_back(figure(slice));
  return Median(values);
}

/// ingest_raw / ingest_sketches: every 100th series against the exact
/// quantiles of the values it was sent and acked. A MERGE frame adds its
/// payload's values once more, so those count as copies of one sample.
void CheckIngestExact(const Inputs& in, const std::string& workload,
                      const std::vector<WindowLog>& windows,
                      const dd::SketchStore& ref, Verdict* verdict) {
  const bool raw = workload == "ingest_raw";
  for (size_t s = 0; s < kIngestSeries; s += 100) {
    std::vector<double> sorted = raw ? std::vector<double>{} : in.sketch_values[s];
    uint64_t copies = raw ? 1 : 0;
    for (const WindowLog& w : windows) {
      const Window& window = WindowOf(in, workload, w);
      for (uint32_t i = 0; i < w.frames; ++i) {
        if (window.series[i] != s ||
            std::find(w.failed.begin(), w.failed.end(), i) != w.failed.end()) {
          continue;
        }
        if (raw) {
          sorted.push_back(window.values[i]);
        } else {
          ++copies;
        }
      }
    }
    std::sort(sorted.begin(), sorted.end());
    CheckExact(ref, SeriesName(s), kTimeBase, kTimeBase + 3600, sorted, copies,
               verdict);
  }
}

/// query_mixed's closed-loop ingest: one figure per set-up's history
/// preload.
struct Preloads {
  std::vector<double> values_per_s;
  std::vector<double> cpu_ns_per_value;
};

/// The end-to-end metrics: `seg` is the untraced segment and `parts` its
/// slices; `query_parts` are the slices that hold the dashboard's queries
/// (query_mixed: `parts`; the ingest workloads: the read-back's), and
/// `ops` every operation the workload attempted. query_mixed's ingest
/// throughput and CPU come from its closed-loop ingest, the preloads.
Metrics EndToEndMetrics(bool query, double setup_s, const Segment& seg,
                        const std::vector<Segment>& parts,
                        const std::vector<Segment>& query_parts,
                        const Preloads& preloads, const Segment& ops,
                        double rss_mb, double disk_bytes_per_value) {
  Metrics e2e;
  Add(&e2e, "setup_s", setup_s, "s");
  Add(&e2e, "ingest_values_per_s",
      query ? Median(preloads.values_per_s) : SliceMedian(parts, [](const Segment& p) {
        return static_cast<double>(p.values) / p.seconds;
      }), "1/s");
  Add(&e2e, "server_cpu_ns_per_value",
      query ? Median(preloads.cpu_ns_per_value) : SliceMedian(parts, [](const Segment& p) {
        return p.cpu_s * 1e9 / static_cast<double>(p.values);
      }), "ns");
  // Only the median: on this VM host hiccups set the 90th percentile of
  // per-window acks (ten-seed spreads of 0.27 to 0.8), so p90 and p99 are
  // per-layer diagnostics.
  Add(&e2e, "ingest_ack_p50_us",
      SliceMedian(parts, [](const Segment& p) { return Quantile(p.ack_us, 0.5); }), "us");
  Add(&e2e, "queries_per_s", SliceMedian(query_parts, [](const Segment& p) {
        return static_cast<double>(p.query_us.size()) / p.seconds;
      }), "1/s");
  Add(&e2e, "query_p50_us",
      SliceMedian(query_parts, [](const Segment& p) { return Quantile(p.query_us, 0.5); }),
      "us");
  Add(&e2e, "query_p90_us",
      SliceMedian(query_parts, [](const Segment& p) { return Quantile(p.query_us, 0.9); }),
      "us");
  Add(&e2e, "checkpoint_ms", Median(seg.checkpoint_ms), "ms");
  Add(&e2e, "ops_ok_frac",
      1.0 - static_cast<double>(ops.failed()) / static_cast<double>(ops.attempted()),
      "ratio");
  Add(&e2e, "server_rss_mb", rss_mb, "MiB");
  Add(&e2e, "disk_bytes_per_value", disk_bytes_per_value, "B");
  return e2e;
}

void PrintResult(const Metrics& table, const Metrics& result, bool correct,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<std::string>& problems) {
  for (const Metric& m : result) {
    if (!std::isfinite(m.value)) throw BenchError("metric " + m.name + " is not finite");
  }
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  for (const Metric& m : table) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < result.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", result[i].value);
    json += (i ? ", \"" : "\"") + result[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + result[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// `n` slices of equal length over [from, to); only times are set.
std::vector<Tick> EvenTicks(int64_t from, int64_t to, int n) {
  std::vector<Tick> ticks;
  for (int k = 0; k <= n; ++k) ticks.push_back({from + k * (to - from) / n, 0});
  return ticks;
}

std::vector<Segment> Slices(const LoadLog& log, const std::vector<Tick>& ticks,
                            bool open_loop) {
  std::vector<Segment> parts;
  for (size_t i = 0; i + 1 < ticks.size(); ++i) {
    parts.push_back(Summarize(log, ticks[i], ticks[i + 1], open_loop));
  }
  return parts;
}

int Run(const Args& args) {
  const auto keep_awake =
      KeepAwake::Start(static_cast<int>(std::thread::hardware_concurrency()));
  const bool query = args.workload == "query_mixed";
  const int segments = args.trace ? 2 : 1;
  if (query && kWarmupS + segments * args.seconds > kMaxLiveSpanS) {
    throw BenchError("query_mixed supports at most " +
                     std::to_string(kMaxLiveSpanS) + " s of live ingest");
  }

  // Inputs, and for query_mixed the reference history and the dashboard's
  // expected answers, all before any timing.
  Inputs in = GenerateInputs(args.workload, args.seed);
  dd::SketchStore ref = NewReference();
  Answers answers;
  if (query) {
    FeedHistory(in, &ref);
    answers = DashboardAnswers(ref, in);
  }
  const std::string mount_dir = args.work_dir + "/tmpfs";
  fs::create_directories(mount_dir);
  if (!MountPrivateTmpfs(mount_dir)) {
    std::fprintf(stderr,
                 "sketchd_loadgen: no private tmpfs; data directories stay on "
                 "the work directory's file system\n");
  }
  const std::string base = mount_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed);
  fs::remove_all(base);
  fs::create_directories(base);

  // Set-up, repeated; the last instance carries the load.
  std::vector<double> setup_s;
  Preloads preloads;
  std::unique_ptr<Session> session;
  std::string data_dir;
  for (int k = 0; k < (query ? kQuerySetups : kIngestSetups); ++k) {
    if (session) {
      session.reset();
      fs::remove_all(data_dir);
    }
    data_dir = base + "/data-" + std::to_string(k);
    const int64_t start = NowNs();
    session = SetUp(args.workload, args.sketchd, data_dir, &in);
    setup_s.push_back(NsToS(NowNs() - start));
    if (query) {
      const double values = static_cast<double>(in.history_values);
      preloads.values_per_s.push_back(values / session->preload_s);
      preloads.cpu_ns_per_value.push_back(session->preload_cpu_s * 1e9 / values);
    }
  }

  // Warm-up, then the measured segment(s).
  LoadControl control;
  control.origin_ns = NowNs();
  Load load(args.workload, session.get(), &in, &answers, &control);
  SleepUntilNs(control.origin_ns + static_cast<int64_t>(kWarmupS * 1e9));
  // The footprint is taken as the warm-up ends, before any checkpoint can
  // have folded a WAL away: bytes per value then depend on the encodings
  // (log records, snapshots), not on where in its checkpoint cycle a
  // shard happened to be.
  const uint64_t disk_bytes = DirectoryBytes(data_dir);
  const uint64_t disk_values =
      control.acked_values.load() + (query ? in.history_values : 0);
  std::vector<Mark> marks = {TakeMark(session.get())};
  std::vector<std::vector<Tick>> ticks(segments);
  std::vector<OpLog> checkpoints;
  double rss_mb = 0;
  const int64_t segment_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int slices = std::max(1, static_cast<int>(args.seconds / kSliceS + 0.5));
  const double checkpoint_every_s =
      query ? kQueryCheckpointEveryS : kIngestCheckpointEveryS;
  const int n_checkpoints =
      std::max(1, static_cast<int>(args.seconds / checkpoint_every_s + 0.5));
  for (int s = 0; s < segments; ++s) {
    control.tracing.store(s == 1);
    const int64_t start = marks.back().ns;
    ticks[s].push_back({start, marks.back().cpu_s});
    int next_checkpoint = 0;
    for (int k = 1; k <= slices; ++k) {
      const int64_t boundary = start + k * segment_ns / slices;
      // CHECKPOINTs at fixed points: the middle of each of n equal parts.
      for (; next_checkpoint < n_checkpoints; ++next_checkpoint) {
        OpLog op;
        op.due_ns = start + (2 * next_checkpoint + 1) * segment_ns / (2 * n_checkpoints);
        if (op.due_ns >= boundary) break;
        SleepUntilNs(op.due_ns);
        op.start_ns = NowNs();
        op.ok = session->control->Checkpoint().ok();
        op.end_ns = NowNs();
        checkpoints.push_back(op);
      }
      SleepUntilNs(boundary);
      if (k < slices) ticks[s].push_back({NowNs(), session->daemon->CpuSeconds()});
    }
    if (s == 0) rss_mb = session->daemon->RssMb();
    marks.push_back(TakeMark(session.get()));
    ticks[s].push_back({marks.back().ns, marks.back().cpu_s});
  }
  control.tracing.store(false);
  LoadLog log = load.Finish();
  log.checkpoints = std::move(checkpoints);

  // The reference: the history (query_mixed) and everything sketchd acked.
  FeedAcked(in, args.workload, log.windows, &ref);
  if (query) ref.Compact(std::numeric_limits<int64_t>::max());

  // The ingest workloads' read-back: the dashboard queries what the load
  // wrote, on the control connection, with nothing else running.
  std::vector<Tick> readback;
  if (!query) {
    answers = DashboardAnswers(ref, in);
    const std::atomic<bool> off{false};
    const int64_t from = NowNs();
    const int64_t to = from + static_cast<int64_t>(kReadBackS * 1e9);
    RunDashboard(session->control.get(), in, answers, to, off, off, &log);
    readback = EvenTicks(from, to, std::max(1, static_cast<int>(kReadBackS / kSliceS + 0.5)));
  }
  const dd::StoreStats final_stats = Check(session->control->Stats(), "STATS");

  // Output checks.
  Verdict verdict;
  if (log.wrong_answers > 0) {
    verdict.Fail(std::to_string(log.wrong_answers) +
                 " dashboard answers differ from the reference");
  }
  CheckAnswers(session->control.get(), ref, in.series, kTimeBase,
               kTimeBase + 3600, &verdict);
  if (query) {
    for (size_t s = 0; s < in.exact_history.size(); ++s) {
      std::vector<double> sorted = in.exact_history[s];
      std::sort(sorted.begin(), sorted.end());
      CheckExact(ref, SeriesName(s * kExactSampleEvery),
                 kTimeBase - kDashboardWindowsS[1], kTimeBase, sorted, 1, &verdict);
    }
  } else {
    CheckIngestExact(in, args.workload, log.windows, ref, &verdict);
  }
  CheckStats(final_stats, ref, &verdict);
  session->daemon->Kill();
  const double recovery_s = CheckRecovery(data_dir, ref, in.series, &verdict);

  // End-to-end metrics, from the untraced segment (and the read-back).
  const Segment seg = Summarize(log, ticks[0].front(), ticks[0].back(), query);
  const std::vector<Segment> parts = Slices(log, ticks[0], query);
  const std::vector<Segment> rb_parts = Slices(log, readback, false);
  Segment ops = seg;
  if (!query) {
    const Segment rb = Summarize(log, readback.front(), readback.back(), false);
    ops.query_us = rb.query_us;
    ops.failed_queries = rb.failed_queries;
  }
  const Metrics e2e = EndToEndMetrics(
      query, Median(setup_s), seg, parts, query ? parts : rb_parts, preloads, ops,
      rss_mb, static_cast<double>(disk_bytes) / static_cast<double>(disk_values));

  Metrics layers;
  if (args.trace) {
    const Segment traced = Summarize(log, ticks[1].front(), ticks[1].back(), query);
    // The dashboard's queries: the traced segment's, or the read-back's.
    const std::vector<double>& query_us = query ? traced.query_us : ops.query_us;
    LayerInputs li;
    li.workload = args.workload;
    li.in = &in;
    li.log = &log;
    li.before = &marks[1].stats;
    li.after = &marks[2].stats;
    li.final = &final_stats;
    li.ref = &ref;
    li.replay_dir = base + "/replay";
    li.spans_path = args.work_dir + "/traces/" + args.workload + "-" +
                    std::to_string(args.seed) + ".tsv";
    li.traced_from_ns = marks[1].ns;
    li.traced_to_ns = marks[2].ns;
    li.traced_values = traced.values;
    li.recovery_s = recovery_s;
    LayerMetrics(li, &layers);
    // Tracing overhead: the headline latency, traced against untraced.
    const double untraced = query ? Quantile(seg.query_us, 0.5) : Quantile(seg.ack_us, 0.5);
    const double with_spans =
        query ? Quantile(traced.query_us, 0.5) : Quantile(traced.ack_us, 0.5);
    Add(&layers, "trace.overhead_frac", with_spans / untraced - 1.0, "ratio");
    Add(&layers, "client.ingest_ack_p90_us", Quantile(traced.ack_us, 0.9), "us");
    Add(&layers, "client.ingest_ack_p99_us", Quantile(traced.ack_us, 0.99), "us");
    Add(&layers, "client.ack_samples", static_cast<double>(traced.ack_us.size()), "count");
    Add(&layers, "client.ingest_slo_miss_frac",
        static_cast<double>(traced.slo_miss_values) / static_cast<double>(traced.frames),
        "ratio");
    Add(&layers, "client.query_p99_us", Quantile(query_us, 0.99), "us");
    Add(&layers, "client.query_samples", static_cast<double>(query_us.size()), "count");
    Add(&layers, "client.gen_late_p99_ms", Quantile(traced.late_ms, 0.99), "ms");
    Add(&layers, "client.checkpoint_samples",
        static_cast<double>(traced.checkpoint_ms.size()), "count");
  }
  fs::remove_all(base);

  Metrics table = e2e;
  table.insert(table.end(), layers.begin(), layers.end());
  PrintResult(table, args.trace ? layers : e2e, verdict.ok(), ops.attempted(),
              ops.failed(), verdict.problems);
  return verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive whoever started us
  try {
    return pb::Run(pb::Parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sketchd_loadgen: %s\n", e.what());
    return 2;
  }
}
