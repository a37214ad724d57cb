// The three workloads' set-up and load loops.
//
//   ingest_raw       2 closed-loop connections, pipelined windows of 512
//                    single-value INGEST frames, one series per window
//   ingest_sketches  2 closed-loop connections, pipelined windows of 50
//                    MERGE frames, each a 1000-value sketch
//   query_mixed      history preload + COMPACT at set-up; then a
//                    closed-loop dashboard and an open-loop raw ingest at
//                    the horizon
//
// Every workload's control connection also issues CHECKPOINTs at fixed
// times of the load (driven from main.cc), and the ingest workloads' run
// ends with the dashboard reading back what they wrote (RunDashboard).
//
// Connections are opened one at a time in a fixed order, so sketchd's
// round-robin places each on the same event loop in every run: the
// control connection (STATS, CHECKPOINT, COMPACT, read-back and
// verification queries) is always first, on loop 0.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon.h"
#include "inputs.h"
#include "server/client.h"

namespace pb {

/// One ingest window as the generator saw it.
struct WindowLog {
  uint32_t conn = 0;
  uint32_t slot = 0;       // index into the connection's window pool
  int64_t ts = 0;          // stamped timestamp
  int64_t due_ns = 0;      // closed loop: write start; open loop: schedule
  int64_t write_ns = 0;    // write start
  int64_t done_ns = 0;     // last ack read
  uint64_t ok_values = 0;  // values in frames acked OK
  uint32_t frames = 0;
  std::vector<uint32_t> failed;  // frames not acked OK
};

/// One dashboard QUERY or control CHECKPOINT.
struct OpLog {
  int64_t due_ns = 0;  // CHECKPOINT: its time in the schedule
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
};

/// A traced span around one of the generator's client calls. Spans of
/// one window share its id; the "client.window" span is their parent.
struct Span {
  const char* name = "";
  const char* parent = "";  // empty for a root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t window = 0;
};

/// A sketchd instance and the workload's connections to it.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<dd::SketchClient> control;
  std::unique_ptr<dd::SketchClient> dashboard;  // query_mixed
  std::vector<int> ingest_fds;                  // hello already exchanged
  // query_mixed: the history preload, a closed-loop MERGE back-fill over
  // two connections (COMPACT excluded).
  double preload_s = 0;
  double preload_cpu_s = 0;  // sketchd CPU over it

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();
};

/// Launches sketchd on `data_dir` and makes the workload ready: the
/// daemon listening, every connection open, and for query_mixed the
/// history acked and COMPACTed. This is the span setup_s times.
std::unique_ptr<Session> SetUp(const std::string& workload,
                               const std::string& sketchd,
                               const std::string& data_dir, Inputs* in);

/// Shared state of the load threads.
struct LoadControl {
  int64_t origin_ns = 0;  // run-clock zero: timestamp kTimeBase
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::atomic<uint64_t> acked_values{0};  // so far, all connections
};

/// Expected dashboard answers, indexed [series][window][quantile].
using Answers = std::vector<std::vector<std::vector<double>>>;

/// What the load threads recorded over the whole run.
struct LoadLog {
  std::vector<WindowLog> windows;
  std::vector<OpLog> queries;
  std::vector<OpLog> checkpoints;
  std::vector<Span> spans;
  uint64_t wrong_answers = 0;
};

/// The dashboard's closed loop on `client` until `until_ns` or `stop`:
/// QUERY for kDashboardQuantiles over `in.queries` in turn, each answer
/// compared with `answers` bit for bit (mismatches counted in
/// log->wrong_answers). Records a "client.query" span per query while
/// `tracing` is set.
void RunDashboard(dd::SketchClient* client, const Inputs& in,
                  const Answers& answers, int64_t until_ns,
                  const std::atomic<bool>& stop,
                  const std::atomic<bool>& tracing, LoadLog* log);

/// Runs the workload's load threads until `control->stop`; the caller
/// drives phases from its own thread. Returns the threads' logs once they
/// have drained every ack.
class Load {
 public:
  Load(const std::string& workload, Session* session, Inputs* in,
       const Answers* answers, LoadControl* control);
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;
  ~Load();

  /// Sets stop and joins the threads.
  LoadLog Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_
