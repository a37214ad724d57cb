#include "workloads.h"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "server/net.h"
#include "server/protocol.h"

namespace pb {
namespace {

constexpr const char* kHost = "127.0.0.1";

std::unique_ptr<dd::SketchClient> ConnectClient(uint16_t port) {
  return std::make_unique<dd::SketchClient>(
      Check(dd::SketchClient::Connect(kHost, port), "connect"));
}

/// A connection for pre-encoded windows: connected, hello exchanged.
int ConnectRaw(uint16_t port) {
  const int fd = Check(dd::ConnectTcp(kHost, port), "connect");
  dd::FramedConn io(fd);
  dd::Status hello = io.SendHello();
  if (hello.ok()) hello = io.ExpectHello();
  if (!hello.ok()) {
    ::close(fd);
    Check(hello, "hello");
  }
  return fd;
}

/// Reads one ack per frame of a window of `frames` frames, each carrying
/// `values_per_frame` values, into `entry`. Sets *first_ack_ns when the
/// first ack arrives.
void ReadAcks(dd::FramedConn* io, uint32_t frames, uint64_t values_per_frame,
              WindowLog* entry, int64_t* first_ack_ns) {
  for (uint32_t i = 0; i < frames; ++i) {
    const std::string body = Check(io->ReadFrame(), "read ack");
    if (i == 0) *first_ack_ns = NowNs();
    const dd::Response response = Check(dd::DecodeResponse(body), "decode ack");
    if (response.op != dd::Request::Op::kIngest &&
        response.op != dd::Request::Op::kMerge) {
      throw BenchError("ack for an unexpected op");
    }
    if (response.code == dd::StatusCode::kOk) {
      entry->ok_values += values_per_frame;
    } else {
      entry->failed.push_back(i);
    }
  }
}

uint64_t ValuesPerFrame(const Window& window) {
  return window.value_count / window.frames();
}

/// Sends `windows` one at a time over `fd`, each fully acked before the
/// next; every frame must be acked OK.
void SendAll(int fd, std::vector<Window>* windows) {
  dd::FramedConn io(fd);
  for (Window& window : *windows) {
    Check(io.WriteFrame(window.wire), "write window");
    WindowLog entry;
    int64_t first_ack_ns = 0;
    ReadAcks(&io, static_cast<uint32_t>(window.frames()), ValuesPerFrame(window),
             &entry, &first_ack_ns);
    if (!entry.failed.empty()) throw BenchError("history preload refused");
  }
}

/// query_mixed set-up: the history over two connections at once, then
/// COMPACT onto the default ladder as of the history's horizon.
void Preload(Session* session, Inputs* in) {
  const int extra = ConnectRaw(session->daemon->port());
  std::exception_ptr error;
  std::thread second([&] {
    try {
      SendAll(extra, &in->preload[1]);
    } catch (...) {
      error = std::current_exception();
    }
  });
  const int64_t start = NowNs();
  const double cpu_s = session->daemon->CpuSeconds();
  try {
    SendAll(session->ingest_fds[0], &in->preload[0]);
  } catch (...) {
    second.join();
    ::close(extra);
    throw;
  }
  second.join();
  session->preload_s = NsToS(NowNs() - start);
  session->preload_cpu_s = session->daemon->CpuSeconds() - cpu_s;
  ::close(extra);
  if (error) std::rethrow_exception(error);
  const uint64_t folded = Check(session->control->Compact(kTimeBase), "COMPACT");
  if (folded == 0) throw BenchError("COMPACT folded nothing");
}

}  // namespace

Session::~Session() {
  for (int fd : ingest_fds) ::close(fd);
}

std::unique_ptr<Session> SetUp(const std::string& workload,
                               const std::string& sketchd,
                               const std::string& data_dir, Inputs* in) {
  auto session = std::make_unique<Session>();
  session->daemon = Daemon::Launch(sketchd, data_dir);
  const uint16_t port = session->daemon->port();
  // Connection order fixes the event loop of each (round-robin from 0).
  session->control = ConnectClient(port);  // loop 0
  if (workload == "query_mixed") {
    session->dashboard = ConnectClient(port);             // loop 1
    session->ingest_fds.push_back(ConnectRaw(port));      // loop 0, beside CHECKPOINT
    Preload(session.get(), in);
  } else {
    for (int c = 0; c < kIngestConns; ++c) {
      session->ingest_fds.push_back(ConnectRaw(port));    // loops 1, 0
    }
  }
  return session;
}

struct Load::Impl {
  std::string workload;
  Session* session;
  Inputs* in;
  const Answers* answers;
  LoadControl* control;

  std::vector<std::thread> threads;
  std::vector<LoadLog> logs;  // one per thread
  std::vector<std::exception_ptr> errors;

  // Open-loop handoff: the writer queues each window's log entry before
  // writing it, the reader completes entries in order as acks arrive.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<WindowLog> in_flight;  // guarded by mu
  bool writer_done = false;         // guarded by mu

  void Spawn(void (Impl::*body)(size_t), size_t index) {
    threads.emplace_back([this, body, index] {
      try {
        (this->*body)(index);
      } catch (...) {
        errors[index] = std::current_exception();
        // Unblock every other load thread: a send or recv on a shut-down
        // socket fails at once, and the open-loop reader stops waiting.
        control->stop.store(true);
        for (int fd : session->ingest_fds) ::shutdown(fd, SHUT_RDWR);
        std::lock_guard<std::mutex> lk(mu);
        writer_done = true;
        cv.notify_all();
      }
    });
  }

  /// Records a span; every span but a window's own is a child of its
  /// window's "client.window" span.
  void Trace(size_t thread, const char* name, int64_t start, int64_t end,
             uint64_t window) {
    const bool root = std::strcmp(name, "client.window") == 0;
    logs[thread].spans.push_back(
        {name, root ? "" : "client.window", start, end, window});
  }

  /// ingest_raw / ingest_sketches: write a window, wait for all its acks,
  /// repeat.
  void ClosedLoop(size_t conn) {
    dd::FramedConn io(session->ingest_fds[conn]);
    std::vector<Window>& pool = in->load[conn];
    for (uint64_t n = 0; !control->stop.load(std::memory_order_relaxed); ++n) {
      const uint32_t slot = static_cast<uint32_t>(n % pool.size());
      Window& window = pool[slot];
      const bool traced = control->tracing.load(std::memory_order_relaxed);
      WindowLog entry;
      entry.conn = static_cast<uint32_t>(conn);
      entry.slot = slot;
      entry.frames = static_cast<uint32_t>(window.frames());
      const int64_t t0 = NowNs();
      entry.ts = kTimeBase + (t0 - control->origin_ns) / 1000000000;
      Stamp(&window, entry.ts);
      entry.write_ns = entry.due_ns = NowNs();
      Check(io.WriteFrame(window.wire), "write window");
      const int64_t written = NowNs();
      int64_t first_ack = 0;
      ReadAcks(&io, entry.frames, ValuesPerFrame(window), &entry, &first_ack);
      entry.done_ns = NowNs();
      control->acked_values.fetch_add(entry.ok_values, std::memory_order_relaxed);
      if (traced) {
        const uint64_t id = (static_cast<uint64_t>(conn) << 40) | n;
        Trace(conn, "client.window", t0, entry.done_ns, id);
        Trace(conn, "client.encode", t0, entry.write_ns, id);
        Trace(conn, "client.write", entry.write_ns, written, id);
        Trace(conn, "client.first_ack", written, first_ack, id);
        Trace(conn, "client.drain", first_ack, entry.done_ns, id);
      }
      logs[conn].windows.push_back(std::move(entry));
    }
  }

  /// query_mixed: one window due every kLiveTickMs from run-clock zero,
  /// written on schedule whether or not earlier acks have arrived.
  void LiveWriter(size_t thread) {
    dd::FramedConn io(session->ingest_fds[0]);
    for (uint64_t k = 0;; ++k) {
      const int64_t due = control->origin_ns + static_cast<int64_t>(k) * kLiveTickMs * 1000000;
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      if (control->stop.load(std::memory_order_relaxed)) break;
      WindowLog entry;
      entry.slot = static_cast<uint32_t>(k % in->live.size());
      Window& window = in->live[entry.slot];
      entry.frames = static_cast<uint32_t>(window.frames());
      entry.due_ns = due;
      entry.ts = kTimeBase + (due - control->origin_ns) / 1000000000;
      const int64_t t0 = NowNs();
      Stamp(&window, entry.ts);
      entry.write_ns = NowNs();
      {
        std::lock_guard<std::mutex> lk(mu);
        in_flight.push_back(entry);
      }
      cv.notify_one();
      Check(io.WriteFrame(window.wire), "write live window");
      if (control->tracing.load(std::memory_order_relaxed)) {
        Trace(thread, "client.encode", t0, entry.write_ns, k);
        Trace(thread, "client.write", entry.write_ns, NowNs(), k);
      }
    }
    std::lock_guard<std::mutex> lk(mu);
    writer_done = true;
    cv.notify_all();
  }

  void LiveReader(size_t thread) {
    dd::FramedConn io(session->ingest_fds[0]);  // own read buffer
    const uint64_t values_per_frame = 1;
    for (uint64_t k = 0;; ++k) {
      WindowLog entry;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !in_flight.empty() || writer_done; });
        if (in_flight.empty()) return;
        entry = std::move(in_flight.front());
        in_flight.pop_front();
      }
      int64_t first_ack = 0;
      ReadAcks(&io, entry.frames, values_per_frame, &entry, &first_ack);
      entry.done_ns = NowNs();
      control->acked_values.fetch_add(entry.ok_values, std::memory_order_relaxed);
      if (control->tracing.load(std::memory_order_relaxed)) {
        Trace(thread, "client.window", entry.due_ns, entry.done_ns, k);
        Trace(thread, "client.first_ack", entry.write_ns, first_ack, k);
        Trace(thread, "client.drain", first_ack, entry.done_ns, k);
      }
      logs[thread].windows.push_back(std::move(entry));
    }
  }

  /// query_mixed: the dashboard, beside the live ingest.
  void Dashboard(size_t thread) {
    RunDashboard(session->dashboard.get(), *in, *answers,
                 std::numeric_limits<int64_t>::max(), control->stop,
                 control->tracing, &logs[thread]);
  }
};

void RunDashboard(dd::SketchClient* client, const Inputs& in,
                  const Answers& answers, int64_t until_ns,
                  const std::atomic<bool>& stop,
                  const std::atomic<bool>& tracing, LoadLog* log) {
  const std::vector<double> quantiles(kDashboardQuantiles.begin(),
                                      kDashboardQuantiles.end());
  for (uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
    const DashboardQuery& query = in.queries[n % in.queries.size()];
    const size_t w = query.window_s == kDashboardWindowsS[0] ? 0 : 1;
    OpLog op;
    op.start_ns = NowNs();
    if (op.start_ns >= until_ns) break;
    auto answer = client->Query(SeriesName(query.series),
                                in.query_end - query.window_s, in.query_end,
                                quantiles);
    op.end_ns = NowNs();
    op.ok = answer.ok();
    if (op.ok) {
      const std::vector<double>& expected = answers[query.series][w];
      if (answer.value().size() != expected.size() ||
          std::memcmp(answer.value().data(), expected.data(),
                      expected.size() * sizeof(double)) != 0) {
        ++log->wrong_answers;
      }
    }
    if (tracing.load(std::memory_order_relaxed)) {
      log->spans.push_back({"client.query", "", op.start_ns, op.end_ns, n});
    }
    log->queries.push_back(op);
  }
}

Load::Load(const std::string& workload, Session* session, Inputs* in,
           const Answers* answers, LoadControl* control)
    : impl_(std::make_unique<Impl>()) {
  impl_->workload = workload;
  impl_->session = session;
  impl_->in = in;
  impl_->answers = answers;
  impl_->control = control;
  const size_t threads = workload == "query_mixed" ? 3 : kIngestConns;
  impl_->logs.resize(threads);
  impl_->errors.resize(threads);
  if (workload == "query_mixed") {
    impl_->Spawn(&Impl::Dashboard, 0);
    impl_->Spawn(&Impl::LiveReader, 1);
    impl_->Spawn(&Impl::LiveWriter, 2);
  } else {
    for (size_t c = 0; c < threads; ++c) impl_->Spawn(&Impl::ClosedLoop, c);
  }
}

Load::~Load() {
  impl_->control->stop.store(true);
  for (std::thread& t : impl_->threads) {
    if (t.joinable()) t.join();
  }
}

LoadLog Load::Finish() {
  impl_->control->stop.store(true);
  for (std::thread& t : impl_->threads) t.join();
  for (const std::exception_ptr& error : impl_->errors) {
    if (error) std::rethrow_exception(error);
  }
  LoadLog all;
  for (LoadLog& log : impl_->logs) {
    all.windows.insert(all.windows.end(), log.windows.begin(), log.windows.end());
    all.queries.insert(all.queries.end(), log.queries.begin(), log.queries.end());
    all.spans.insert(all.spans.end(), log.spans.begin(), log.spans.end());
    all.wrong_answers += log.wrong_answers;
  }
  return all;
}

}  // namespace pb
