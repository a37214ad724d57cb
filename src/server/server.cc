#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/concurrent.h"
#include "core/ddsketch.h"
#include "server/net.h"
#include "timeseries/wal.h"

namespace dd {
namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// True when a frame body is an INGEST by its op byte. The run collector
/// reads such a body with DecodeIngest, in place, and every other body
/// with DecodeRequest.
bool IsIngestBody(std::string_view body) {
  return !body.empty() && static_cast<uint8_t>(body.front()) ==
                              static_cast<uint8_t>(Request::Op::kIngest);
}

/// Moves a decoded MERGE into the record it is logged as: the series and
/// payload bytes are decoded once and never copied after.
WalRecord ToWalRecord(Request&& merge) {
  WalRecord record;
  record.type = WalRecord::Type::kIngestSketch;
  record.series = std::move(merge.series);
  record.timestamp = merge.timestamp;
  record.payload = std::move(merge.payload);
  return record;
}

/// Fixed per-frame charge against the staged-bytes budget on top of the
/// variable series/payload bytes: queue node, WalRecord struct, response
/// slot. Keeps tiny frames from being "free" under admission control. A
/// unit is charged this for each of its frames, as if they were staged
/// one by one.
constexpr uint64_t kStagedRecordOverhead = 64;

/// Most frames one connection stages in one run; a run's cap is
/// min(commit_batch x shards, this). The connection's reads pause until
/// its run commits, so one firehose client cannot monopolize the budget.
constexpr size_t kMaxRunFrames = 1024;

/// How long a failed background checkpoint or fence write waits before
/// the maintenance thread tries it again.
constexpr auto kRetryBackoff = std::chrono::seconds(5);

/// The throttle controller ignores a tag's latency window below this
/// many samples — a handful of acks is noise, not a p99.
constexpr uint64_t kThrottleMinSamples = 32;

/// Throttle cadence, and so the length of each tag's latency window.
constexpr auto kThrottleInterval = std::chrono::milliseconds(200);

/// `n` of sketchd's own latency instruments, at 1% relative accuracy.
/// One shard each: a row takes one Add per finished request or run, so
/// its lock is rarely contended, and STATS and the throttle step read it
/// while loops add — the case ConcurrentDDSketch exists for.
std::vector<ConcurrentDDSketch> MakeLatencyRows(size_t n) {
  DDSketchConfig config;
  config.relative_accuracy = 0.01;
  std::vector<ConcurrentDDSketch> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // A fixed, valid configuration: Create cannot fail.
    rows.push_back(std::move(ConcurrentDDSketch::Create(config, 1)).value());
  }
  return rows;
}

/// Adds `n` ack latencies of `start` → `now` (microseconds) to `row`. The
/// floor keeps a sub-tick measurement out of the sketch's zero bucket,
/// where it would stop counting toward the percentiles' log buckets.
void RecordLatency(ConcurrentDDSketch& row, TimePoint start, TimePoint now,
                   uint64_t n = 1) {
  const double us =
      std::chrono::duration<double, std::micro>(now - start).count();
  row.Add(std::max(us, 1e-3), n);
}

/// The latency row a non-ingest request's ack is recorded into. Ingests
/// and merges are routed by their per-entry outcome instead (a BUSY
/// refusal lands in the BUSY row, see FinishRun).
LatencyOp NonIngestLatencyOp(Request::Op op) {
  switch (op) {
    case Request::Op::kQuery:
      return LatencyOp::kQuery;
    case Request::Op::kCheckpoint:
    case Request::Op::kCompact:  // a compact IS a checkpoint with aging
      return LatencyOp::kCheckpoint;
    default:
      return LatencyOp::kStats;
  }
}

}  // namespace

/// One staged pipelined run of INGEST/MERGE requests from a single
/// connection, as units. Heap-allocated and owned by the Conn; shard
/// committers hold pointers into `entries` (filled during collection,
/// never reallocated once staged) and decrement `remaining`, and
/// whichever committer finishes last posts the run back to `loop`.
/// While a run is in flight its connection is not read — one run per
/// connection at a time.
struct SketchServer::IngestRun {
  EventLoop* loop = nullptr;
  Conn* conn = nullptr;
  /// When the run's first request was fully framed; every entry's ack
  /// latency is measured from here (the requests of one run arrive in
  /// one buffered burst, so a per-entry stamp would add clock reads
  /// without adding information).
  TimePoint start{};
  std::vector<PendingIngest> entries;  // units, in request order
  // Collection grows `entries`; reallocation must move each record's
  // bytes, not copy them.
  static_assert(std::is_nothrow_move_constructible_v<PendingIngest>);
  /// Outstanding completions: one per staged unit, plus one staging
  /// sentinel held by the event loop until every entry is routed (so a
  /// committer can never see the count hit zero mid-staging).
  std::atomic<size_t> remaining{0};
};

/// One client connection, owned by exactly one event loop and only ever
/// touched from that loop's thread.
struct SketchServer::Conn {
  explicit Conn(int fd_in) : fd(fd_in), io(fd_in) {}

  int fd;
  FramedConn io;
  bool hello_done = false;
  bool saw_eof = false;
  /// fd closed and deregistered. A closed Conn with `run` set is a
  /// zombie: it stays alive (committers point into the run's entries)
  /// until the completion arrives, then is destroyed.
  bool closed = false;
  /// Admission tag every INGEST/MERGE on this connection is charged to
  /// (ledger id; 0 = "default" until a SET_TAG arrives).
  uint32_t tag_id = TagAdmissionLedger::kDefaultTagId;
  std::unique_ptr<IngestRun> run;  // staged run in flight (reads paused)
  /// When the non-ingest frame that stopped the last run's collection
  /// was framed; zero when no such frame waits at the head of the read
  /// buffer. Its ack latency must include the wait behind the run.
  TimePoint left_behind_stamp{};
  TimePoint last_activity{};
  /// Deadline for the pending unit of I/O (hello, partial frame, unread
  /// responses) to COMPLETE. Armed when the unit starts; byte-at-a-time
  /// progress does not push it back, which is what defeats a slow
  /// loris. Zero = no unit pending.
  TimePoint stall_deadline{};
};

/// One epoll event-loop thread. Owns a set of connections; loop 0 also
/// owns the listening socket and distributes accepted connections
/// round-robin over all loops. Cross-thread input (adopted fds from the
/// accepting loop, completed runs from committers, stop requests)
/// arrives through mutex-guarded queues plus an eventfd wake-up; all
/// connection state is then handled on the loop thread only.
class SketchServer::EventLoop {
 public:
  EventLoop(SketchServer* server, int listen_fd)
      : server_(server), listen_fd_(listen_fd) {}
  ~EventLoop() {
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status Init() {
    auto epoll = Epoll::Create();
    if (!epoll.ok()) return epoll.status();
    epoll_.emplace(std::move(epoll).value());
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return Status::Internal("eventfd: " + std::string(std::strerror(errno)));
    }
    DD_RETURN_IF_ERROR(epoll_->Add(wake_fd_, EPOLLIN, &wake_tag_));
    if (listen_fd_ >= 0) {
      DD_RETURN_IF_ERROR(epoll_->Add(listen_fd_, EPOLLIN, &listen_tag_));
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  void RequestStop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Hands a freshly accepted fd to this loop (called by the accepting
  /// loop's thread).
  void AdoptConn(int fd) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      adopted_fds_.push_back(fd);
    }
    Wake();
  }

  /// Called by the shard committer that completed the run's last entry.
  void PostCompletion(IngestRun* run) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      completions_.push_back(run);
    }
    Wake();
  }

  /// After Join: closes fds adopted too late for the loop to see them.
  void CloseLeftovers() {
    std::lock_guard<std::mutex> lk(mu_);
    for (int fd : adopted_fds_) ::close(fd);
    adopted_fds_.clear();
  }

 private:
  /// Records one ack latency into the server's row for `op`.
  void RecordOpLatency(LatencyOp op, TimePoint start, TimePoint now) {
    RecordLatency(server_->op_latency_[static_cast<size_t>(op)], start, now);
  }

  void Wake() {
    const uint64_t one = 1;
    const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;  // EAGAIN just means a wake-up is already pending
  }

  void Run() {
    constexpr int kMaxEvents = 64;
    struct epoll_event events[kMaxEvents];
    TimePoint last_sweep = Clock::now();
    for (;;) {
      auto wait = epoll_->Wait(events, kMaxEvents, 50);
      const int n_events = wait.ok() ? wait.value() : 0;
      std::vector<int> adopted;
      std::vector<IngestRun*> completed;
      bool stop = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        adopted.swap(adopted_fds_);
        completed.swap(completions_);
        stop = stop_;
      }
      for (int i = 0; i < n_events; ++i) {
        void* tag = events[i].data.ptr;
        if (tag == &wake_tag_) {
          uint64_t v = 0;
          while (::read(wake_fd_, &v, sizeof(v)) > 0) {
          }
        } else if (tag == &listen_tag_) {
          AcceptNew();
        } else {
          HandleEvent(static_cast<Conn*>(tag), events[i].events);
        }
      }
      for (IngestRun* run : completed) HandleRunComplete(run);
      for (int fd : adopted) {
        if (stop || shutdown_started_) {
          ::close(fd);
        } else {
          AddConn(fd);
        }
      }
      if (stop && !shutdown_started_) BeginShutdown();
      const TimePoint now = Clock::now();
      if (!shutdown_started_ &&
          now - last_sweep >= std::chrono::milliseconds(50)) {
        last_sweep = now;
        SweepDeadlines();
      }
      graveyard_.clear();
      if (shutdown_started_ && conns_.empty()) return;
    }
  }

  void AcceptNew() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // EAGAIN (drained) or the listener is shutting down
      }
      server_->connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const size_t pick =
          server_->next_loop_.fetch_add(1, std::memory_order_relaxed);
      EventLoop* target = server_->loops_[pick % server_->loops_.size()].get();
      if (target == this) {
        AddConn(fd);
      } else {
        target->AdoptConn(fd);
      }
    }
  }

  void AddConn(int fd) {
    auto owned = std::make_unique<Conn>(fd);
    Conn* c = owned.get();
    c->last_activity = Clock::now();
    if (!epoll_
             ->Add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, c)
             .ok()) {
      ::close(fd);
      return;
    }
    conns_.emplace(c, std::move(owned));
    server_->connections_open_.fetch_add(1, std::memory_order_relaxed);
    ArmDeadline(c);    // the hello is a pending unit from byte zero
    PumpConn(c);       // bytes may have raced ahead of the epoll add
  }

  void HandleEvent(Conn* c, uint32_t ev) {
    if (c->closed) return;
    if (ev & (EPOLLHUP | EPOLLERR)) {
      CloseConn(c, false);
      return;
    }
    if (ev & EPOLLOUT) {
      FlushConn(c);
      if (c->closed) return;
    }
    if (ev & (EPOLLIN | EPOLLRDHUP)) PumpConn(c);
  }

  /// Read side: drain the socket (edge-triggered: one drain per edge),
  /// parse what is buffered, and either respond or stage a run. A
  /// connection with a run in flight is deliberately NOT read — TCP
  /// flow control pushes back on the client — and the missed edges are
  /// recovered by the refill in HandleRunComplete.
  void PumpConn(Conn* c) {
    if (c->closed || c->run) return;
    bool got = false;
    auto alive = c->io.FillFromSocket(&got);
    if (!alive.ok()) {
      CloseConn(c, false);
      return;
    }
    if (!alive.value()) c->saw_eof = true;
    if (got) c->last_activity = Clock::now();
    ProcessBuffered(c);
    if (c->closed) return;
    if (c->saw_eof && !c->run) {
      // Peer is done sending and everything parseable was handled; a
      // leftover partial frame is a mid-frame disconnect either way.
      CloseConn(c, false);
      return;
    }
    ArmDeadline(c);
  }

  void ProcessBuffered(Conn* c) {
    while (!c->closed && !c->run) {
      if (!c->hello_done) {
        auto hello = c->io.TryConsumeHello();
        if (!hello.ok()) {
          CloseConn(c, true);  // garbage or incompatible hello
          return;
        }
        if (!hello.value()) return;  // need more bytes
        c->hello_done = true;
        c->stall_deadline = {};
        c->io.QueueWrite(EncodeHello());
        FlushConn(c);
        continue;
      }
      std::string_view body;  // into the read buffer; no fill below
      auto got = c->io.NextBufferedFrame(&body);
      if (!got.ok()) {
        CloseConn(c, true);  // corrupt frame / implausible length
        return;
      }
      if (!got.value()) return;  // only a frame prefix buffered
      c->stall_deadline = {};    // a unit completed; restart the clock
      // Instrumentation: when the request was fully framed.
      const TimePoint unit_start =
          c->left_behind_stamp != TimePoint{}
              ? std::exchange(c->left_behind_stamp, TimePoint{})
              : Clock::now();
      std::unique_ptr<IngestRun> run;
      if (IsIngestBody(body)) {
        run = NewRun(c, unit_start);
        if (!AddIngest(run.get(), body)) {
          CloseConn(c, true);  // CRC passed but body malformed: broken peer
          return;
        }
      } else {
        auto request = DecodeRequest(body);
        if (!request.ok()) {
          CloseConn(c, true);  // CRC passed but body malformed: broken peer
          return;
        }
        if (request.value().op != Request::Op::kMerge) {
          HandleRequest(c, request.value(), unit_start);
          if (c->closed) return;  // adopted by the shipper (or shed)
          continue;
        }
        run = NewRun(c, unit_start);
        run->entries.emplace_back().record =
            ToWalRecord(std::move(request).value());
      }
      // Collect the pipelined run of ingest requests already buffered,
      // so one client's burst becomes one staged group per shard. The
      // cap scales with the shard count (the run is split across shard
      // queues) but is bounded per connection by kMaxRunFrames.
      const size_t run_cap =
          std::min(server_->options_.commit_batch * server_->shards_.size(),
                   kMaxRunFrames);
      for (size_t frames = 1; frames < run_cap; ++frames) {
        std::string_view next;
        auto more = c->io.PeekBufferedFrame(&next);
        if (!more.ok()) {
          CloseConn(c, true);
          return;
        }
        if (!more.value()) break;
        c->stall_deadline = {};
        if (IsIngestBody(next)) {
          if (!AddIngest(run.get(), next)) {
            CloseConn(c, true);
            return;
          }
        } else {
          // Decoded in full even when it ends the run, so a malformed
          // body anywhere in the burst closes the connection before any
          // of the run is staged.
          auto next_request = DecodeRequest(next);
          if (!next_request.ok()) {
            CloseConn(c, true);
            return;
          }
          if (next_request.value().op != Request::Op::kMerge) {
            // Leave it buffered and handle it after the run; keeps
            // responses in request order.
            c->left_behind_stamp = Clock::now();
            break;
          }
          run->entries.emplace_back().record =
              ToWalRecord(std::move(next_request).value());
        }
        c->io.ConsumePeekedFrame();
      }
      c->run = std::move(run);
      if (server_->StageIngestRun(c->run.get())) {
        FinishRun(c);  // nothing reached a committer: respond inline
      }
      // Otherwise reads stay paused until the completion is posted.
    }
  }

  /// A request that is neither an INGEST nor a MERGE: answered at once,
  /// or for an OK SUBSCRIBE, handed to the replication shipper.
  void HandleRequest(Conn* c, const Request& request, TimePoint unit_start) {
    if (request.op == Request::Op::kSubscribe) {
      HandleSubscribe(c, request, unit_start);
      return;
    }
    if (request.op == Request::Op::kSetTag) {
      // Intercepted here (like SUBSCRIBE) because it mutates the Conn:
      // every later ingest on this connection charges the declared
      // tag's ledger.
      Response response;
      response.op = Request::Op::kSetTag;
      if (!TagAdmissionLedger::ValidTagName(request.tag)) {
        response.code = StatusCode::kInvalidArgument;
        response.message = "invalid tag: want 1-64 chars of [A-Za-z0-9._-]";
      } else if (const auto id = server_->ledger_->RegisterTag(request.tag)) {
        c->tag_id = *id;
      } else {
        // Table full: refuse distinctly (not BUSY — retrying cannot
        // help) and leave the connection on its current tag, so a
        // junk-tag spray cannot grow server state without bound.
        response.code = StatusCode::kResourceExhausted;
        response.message = "tag table full; connection keeps its current tag";
      }
      c->io.QueueWrite(EncodeResponse(response));
      RecordOpLatency(LatencyOp::kStats, unit_start, Clock::now());
      FlushConn(c);
      return;
    }
    c->io.QueueWrite(EncodeResponse(server_->HandleNonIngest(request)));
    RecordOpLatency(NonIngestLatencyOp(request.op), unit_start, Clock::now());
    FlushConn(c);
  }

  /// A run for connection `c` whose first frame was framed at `start`.
  std::unique_ptr<IngestRun> NewRun(Conn* c, TimePoint start) {
    auto run = std::make_unique<IngestRun>();
    run->loop = this;
    run->conn = c;
    run->start = start;
    return run;
  }

  /// Reads one INGEST body into `run` in place (DecodeIngest); false,
  /// adding nothing, when the body is malformed. The frame joins the
  /// unit of INGESTs it follows when its series and timestamp are the
  /// unit's, and then costs one appended double. Otherwise it starts a
  /// unit, the only place its series bytes are copied.
  bool AddIngest(IngestRun* run, std::string_view body) {
    const std::optional<IngestView> ingest = DecodeIngest(body);
    if (!ingest) return false;
    if (!run->entries.empty()) {
      PendingIngest& last = run->entries.back();
      if (last.record.type == WalRecord::Type::kIngestValues &&
          last.record.timestamp == ingest->timestamp &&
          last.record.series == ingest->series) {
        last.record.values.push_back(ingest->value);
        ++last.frames;
        return true;
      }
    }
    WalRecord& record = run->entries.emplace_back().record;
    record.type = WalRecord::Type::kIngestValues;
    record.series.assign(ingest->series);
    record.timestamp = ingest->timestamp;
    record.values.push_back(ingest->value);
    return true;
  }

  /// SUBSCRIBE: validate, then hand the socket to the replication
  /// shipper. An OK subscribe takes the connection out of
  /// request/response mode for good, so it must be quiescent — nothing
  /// else buffered in either direction, no EOF.
  void HandleSubscribe(Conn* c, const Request& request, TimePoint unit_start) {
    Response response = server_->PrepareSubscribe(request);
    if (response.code == StatusCode::kOk &&
        (c->io.buffered_read_bytes() > 0 || c->io.pending_write_bytes() > 0 ||
         c->saw_eof)) {
      response = Response{};
      response.op = Request::Op::kSubscribe;
      response.code = StatusCode::kInvalidArgument;
      response.message = "SUBSCRIBE must be the connection's only in-flight "
                         "request";
    }
    RecordOpLatency(LatencyOp::kStats, unit_start, Clock::now());
    if (response.code != StatusCode::kOk) {
      c->io.QueueWrite(EncodeResponse(response));
      FlushConn(c);
      return;
    }
    // Adopt: deregister the fd WITHOUT closing it and give it to the
    // shipper with the OK response as its first outgoing bytes. The
    // Conn is destroyed at the end of the loop iteration like any
    // closed connection; the fd now belongs to the shipper.
    const int fd = c->fd;
    epoll_->Del(fd);
    c->fd = -1;
    c->closed = true;
    server_->connections_open_.fetch_sub(1, std::memory_order_relaxed);
    auto it = conns_.find(c);
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
    // A subscriber whose fencing token is older than ours last synced
    // under a deposed lineage: its WAL may end in a divergent suffix
    // that was never replicated, so its resume positions cannot be
    // trusted as prefixes of our log. Ignore them — empty positions
    // bootstrap every shard from a snapshot, which discards that
    // suffix. (A follower that merely restarted carries our token in
    // its LOCK files and keeps segment resume.)
    std::vector<std::pair<uint64_t, uint64_t>> positions = request.positions;
    if (request.repl_token < response.repl_token) positions.clear();
    server_->shipper_->AddSubscriber(fd, EncodeResponse(response),
                                     std::move(positions));
  }

  /// Writes the run's responses in request order and releases the run.
  /// Every frame of a unit shares its outcome, so each unit's response
  /// (and its BUSY refusal, if admission refused a suffix) is encoded
  /// once and copied once per frame.
  void FinishRun(Conn* c) {
    IngestRun* run = c->run.get();
    std::string out;
    const TimePoint now = Clock::now();
    // Frames per latency row. Every frame shares the run's stamp, so one
    // (latency, count) Add per row records the same buckets, count and
    // max as an Add per frame.
    uint64_t per_op[kNumLatencyOps] = {};
    uint64_t acked = 0;
    const auto answer = [&out](const Response& response, uint32_t frames) {
      const std::string encoded = EncodeResponse(response);
      for (uint32_t i = 0; i < frames; ++i) out += encoded;
    };
    for (const PendingIngest& entry : run->entries) {
      Response response;
      // The committer moved the record's bytes out; its type stays.
      response.op = entry.record.type == WalRecord::Type::kIngestSketch
                        ? Request::Op::kMerge
                        : Request::Op::kIngest;
      const uint32_t answered = entry.frames - entry.busy_frames;
      if (answered > 0) {
        response.code = entry.result.code();
        response.message = entry.result.message();
        response.wal_offset = entry.wal_offset;
        answer(response, answered);
        // Only committed frames count as acked for the tag sketch — a
        // validation failure's round trip would skew the p99 the
        // throttle controller judges by.
        if (entry.result.ok()) acked += answered;
        per_op[static_cast<size_t>(response.op == Request::Op::kIngest
                                       ? LatencyOp::kIngest
                                       : LatencyOp::kMerge)] += answered;
      }
      if (entry.busy_frames > 0) {
        // A BUSY refusal's ack is the cost of saying no, not an ingest
        // latency; it gets its own row.
        response.code = StatusCode::kBusy;
        response.message = "staged-bytes budget exceeded; retry with backoff";
        response.wal_offset = 0;
        response.retry_after_ms = entry.retry_after_ms;
        answer(response, entry.busy_frames);
        per_op[static_cast<size_t>(LatencyOp::kBusy)] += entry.busy_frames;
      }
    }
    for (size_t op = 0; op < kNumLatencyOps; ++op) {
      if (per_op[op] > 0) {
        RecordLatency(server_->op_latency_[op], run->start, now, per_op[op]);
      }
    }
    // The tag's own ack-latency rows (v7): the cumulative one feeds the
    // per-tag STATS percentiles, the window the throttle step.
    if (acked > 0) {
      RecordLatency(server_->tag_latency_[c->tag_id], run->start, now, acked);
      RecordLatency(server_->tag_latency_window_[c->tag_id], run->start, now,
                    acked);
    }
    c->run.reset();
    c->last_activity = Clock::now();
    c->io.QueueWrite(out);
    FlushConn(c);
  }

  void HandleRunComplete(IngestRun* run) {
    Conn* c = run->conn;
    if (c->closed) {
      // Zombie: the peer is gone; the run only kept the Conn alive so
      // the committers' entry pointers stayed valid.
      auto it = conns_.find(c);
      graveyard_.push_back(std::move(it->second));
      conns_.erase(it);
      return;
    }
    FinishRun(c);
    if (c->closed) return;
    PumpConn(c);  // recover read edges consumed while the run was staged
  }

  void FlushConn(Conn* c) {
    if (c->closed) return;
    auto drained = c->io.Flush();
    if (!drained.ok()) {
      CloseConn(c, false);
      return;
    }
    ArmDeadline(c);
  }

  /// Arms the stall deadline when a unit of I/O is pending and no
  /// deadline is running; clears it when nothing is pending. Never
  /// pushes a running deadline back (progress trickles don't pay rent).
  void ArmDeadline(Conn* c) {
    const bool unit_pending =
        !c->run && (!c->hello_done || c->io.buffered_read_bytes() > 0 ||
                    c->io.pending_write_bytes() > 0);
    if (!unit_pending) {
      c->stall_deadline = {};
      return;
    }
    const int64_t stall_ms = server_->options_.stall_timeout_ms;
    if (stall_ms > 0 && c->stall_deadline == TimePoint{}) {
      c->stall_deadline = Clock::now() + std::chrono::milliseconds(stall_ms);
    }
  }

  void SweepDeadlines() {
    const TimePoint now = Clock::now();
    const int64_t idle_ms = server_->options_.idle_timeout_ms;
    std::vector<Conn*> doomed;
    for (auto& entry : conns_) {
      Conn* c = entry.first;
      if (c->closed) continue;
      if (c->stall_deadline != TimePoint{} && now >= c->stall_deadline) {
        doomed.push_back(c);
        continue;
      }
      if (idle_ms > 0 && !c->run && c->stall_deadline == TimePoint{} &&
          now - c->last_activity >= std::chrono::milliseconds(idle_ms)) {
        doomed.push_back(c);
      }
    }
    for (Conn* c : doomed) CloseConn(c, true);
  }

  /// Deregisters and closes the fd. `shed` marks a policy close
  /// (deadline, protocol violation, overload) for the counters. The
  /// Conn is destroyed at the end of the loop iteration — or, with a
  /// run in flight, after the completion arrives (zombie).
  void CloseConn(Conn* c, bool shed) {
    if (c->closed) return;
    c->closed = true;
    epoll_->Del(c->fd);
    ::close(c->fd);
    c->fd = -1;
    server_->connections_open_.fetch_sub(1, std::memory_order_relaxed);
    if (shed) {
      server_->connections_shed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!c->run) {
      auto it = conns_.find(c);
      graveyard_.push_back(std::move(it->second));
      conns_.erase(it);
    }
  }

  void BeginShutdown() {
    shutdown_started_ = true;
    if (listen_fd_ >= 0) epoll_->Del(listen_fd_);
    std::vector<Conn*> all;
    all.reserve(conns_.size());
    for (auto& entry : conns_) all.push_back(entry.first);
    for (Conn* c : all) CloseConn(c, false);
    // Zombies stay in conns_; Run() exits once their completions drain.
  }

  SketchServer* const server_;
  const int listen_fd_;  // -1: this loop does not accept
  std::optional<Epoll> epoll_;
  int wake_fd_ = -1;
  std::thread thread_;

  std::mutex mu_;
  bool stop_ = false;                    // guarded by mu_
  std::vector<int> adopted_fds_;         // guarded by mu_
  std::vector<IngestRun*> completions_;  // guarded by mu_

  // Loop-thread-only state.
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> graveyard_;
  bool shutdown_started_ = false;
  char listen_tag_ = 0;  // epoll data.ptr markers
  char wake_tag_ = 0;
};

Result<std::unique_ptr<SketchServer>> SketchServer::Start(
    const std::string& data_dir, const SketchServerOptions& options) {
  if (options.commit_batch == 0) {
    return Status::InvalidArgument("commit_batch must be at least 1");
  }
  if (options.tag_p99_target_us < 0) {
    return Status::InvalidArgument("tag_p99_target_us must be >= 0");
  }
  for (const auto& [tag, weight] : options.tag_weights) {
    if (!TagAdmissionLedger::ValidTagName(tag)) {
      return Status::InvalidArgument(
          "invalid tag in tag budget: '" + tag +
          "' (want 1-64 chars of [A-Za-z0-9._-])");
    }
    if (weight == 0) {
      return Status::InvalidArgument("tag weight must be >= 1 for '" + tag +
                                     "'");
    }
  }
  if (options.tag_weights.size() + 1 > TagAdmissionLedger::kMaxTags) {
    return Status::InvalidArgument(
        "too many tags in tag budget (max " +
        std::to_string(TagAdmissionLedger::kMaxTags - 1) +
        " plus the built-in default)");
  }
  if (options.durable.role == StoreRole::kFollower &&
      (options.follow_host.empty() || options.follow_port == 0)) {
    return Status::InvalidArgument(
        "follower role requires a primary to follow (--follow host:port)");
  }
  ShardedDurableStoreOptions store_options;
  store_options.durable = options.durable;
  store_options.shards = options.shards;
  auto store = ShardedDurableStore::Open(data_dir, store_options);
  if (!store.ok()) return store.status();
  // Private constructor + threads capturing `this` mean the server must
  // live at a stable address: build it on the heap before binding.
  std::unique_ptr<SketchServer> server(
      new SketchServer(options, std::move(store).value()));
  uint16_t bound_port = 0;
  auto listen_fd = ListenTcp(options.host, options.port, &bound_port);
  if (!listen_fd.ok()) return listen_fd.status();
  server->listen_fd_ = listen_fd.value();
  server->port_ = bound_port;
  DD_RETURN_IF_ERROR(SetNonBlocking(server->listen_fd_));
  size_t n_loops = options.event_loops;
  if (n_loops == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    n_loops = std::min<size_t>(4, std::max<size_t>(1, hw / 2));
  }
  for (size_t i = 0; i < n_loops; ++i) {
    server->loops_.push_back(std::make_unique<EventLoop>(
        server.get(), i == 0 ? server->listen_fd_ : -1));
    DD_RETURN_IF_ERROR(server->loops_.back()->Init());
  }
  // Replication plumbing before any committer starts (committers route
  // their completion handshakes through the shipper). ReplShard holds
  // stable pointers: shards_ elements are unique_ptrs and the store
  // lives behind the optional for the server's whole life.
  std::vector<ReplShard> repl_shards;
  repl_shards.reserve(server->shards_.size());
  for (size_t k = 0; k < server->shards_.size(); ++k) {
    repl_shards.push_back(
        ReplShard{&server->shards_[k]->store_mu, &server->store_->shard(k)});
  }
  ReplicationShipperOptions ship_options;
  ship_options.ack_timeout_ms = options.repl_ack_timeout_ms;
  ship_options.heartbeat_ms = options.repl_heartbeat_ms;
  ship_options.snapshot_chunk_bytes = options.repl_snapshot_chunk_bytes;
  server->shipper_ = std::make_unique<ReplicationShipper>(
      repl_shards, ship_options,
      [s = server.get()](uint64_t token) { s->FenceSelf(token); });
  server->shipper_->Start();
  server->role_follower_.store(
      options.durable.role == StoreRole::kFollower, std::memory_order_relaxed);
  server->writes_fenced_.store(server->store_->WritesFenced(),
                               std::memory_order_relaxed);
  for (size_t k = 0; k < server->shards_.size(); ++k) {
    server->shards_[k]->committer =
        std::thread([s = server.get(), k] { s->CommitLoop(k); });
  }
  server->maintenance_thread_ =
      std::thread([s = server.get()] { s->MaintenanceLoop(); });
  for (auto& loop : server->loops_) loop->StartThread();
  if (options.durable.role == StoreRole::kFollower) {
    ReplicationFollowerOptions follow_options;
    follow_options.host = options.follow_host;
    follow_options.port = options.follow_port;
    server->follower_ = std::make_unique<ReplicationFollower>(
        std::move(repl_shards), follow_options);
    server->follower_->Start();
  }
  return server;
}

SketchServer::SketchServer(SketchServerOptions options,
                           ShardedDurableStore store)
    : options_(std::move(options)),
      store_(std::move(store)),
      op_latency_(MakeLatencyRows(kNumLatencyOps)),
      tag_latency_(MakeLatencyRows(TagAdmissionLedger::kMaxTags)),
      tag_latency_window_(MakeLatencyRows(TagAdmissionLedger::kMaxTags)) {
  ledger_ = std::make_unique<TagAdmissionLedger>(options_.staged_bytes_budget,
                                                 options_.tag_weights);
  const auto now = Clock::now();
  shards_.reserve(store_->num_shards());
  for (size_t k = 0; k < store_->num_shards(); ++k) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->checkpoint_deadline_base = now;
  }
}

SketchServer::~SketchServer() { Stop(); }

void SketchServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // 0. Replication first: the follower stops applying, and the shipper
  // drops its subscribers and releases every parked completion — the
  // event loops (step 1) cannot drain their in-flight runs while acks
  // sit parked, and later commits complete inline once the shipper is
  // stopped.
  if (follower_) follower_->Stop();
  if (shipper_) shipper_->Stop();
  // 1. Stop the event loops first: they shed every connection, and any
  // in-flight run needs the committers still alive to complete (zombie
  // connections wait inside the loop for their completions).
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();
  for (auto& loop : loops_) loop->CloseLeftovers();
  // 2. Committers: drain every staged record (each was admitted before
  // the loops stopped), then exit.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->queue_mu);
    shard->stopping = true;
  }
  for (auto& shard : shards_) shard->queue_cv.notify_all();
  // joinable() guards: Start() can fail between constructing the server
  // and launching the threads (e.g. bind error), and the unique_ptr's
  // destructor still runs Stop().
  for (auto& shard : shards_) {
    if (shard->committer.joinable()) shard->committer.join();
  }
  {
    std::lock_guard<std::mutex> lk(maintenance_mu_);
    maintenance_stop_ = true;
  }
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  store_.reset();  // releases every shard's data-dir lock for reopeners
}

uint64_t SketchServer::batch_commits() const noexcept {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->queue_mu);
    total += shard->batch_commits;
  }
  return total;
}

uint64_t SketchServer::background_checkpoints() const noexcept {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->store_mu);
    total += shard->background_checkpoints;
  }
  return total;
}

bool SketchServer::StageIngestRun(IngestRun* run) {
  const size_t n = run->entries.size();  // address-stable from here on
  // A follower or fenced ex-primary refuses every write up front,
  // before validation or admission (mirrors the BUSY refusal shape:
  // never staged, never acknowledged). The durable gate in the store
  // backstops this fast path if a fence races in after the check.
  if (const Status refusal = CheckWritable("writes must go to the primary");
      !refusal.ok()) {
    for (size_t i = 0; i < n; ++i) {
      run->entries[i].run = run;
      run->entries[i].result = refusal;
    }
    return true;
  }
  std::vector<std::vector<PendingIngest*>> by_shard(shards_.size());
  size_t staged = 0;
  for (size_t i = 0; i < n; ++i) {
    PendingIngest& entry = run->entries[i];
    entry.run = run;
    // Validation reads only the store's immutable configuration
    // (prototype sketch parameters), so it runs lock-free on the loop
    // thread — a bad request is rejected here and never poisons or
    // stalls a committer batch.
    entry.result = store_->ValidateRecord(entry.record);
    if (!entry.result.ok()) continue;
    // Admission control: charge the connection's tag ledger before the
    // unit can queue, each frame what it would cost alone. Frames that
    // would blow the tag's allowance (floor + borrowable pool share) are
    // refused with BUSY — never staged, never acknowledged — so one
    // flooding tenant exhausts its own budget while every other tag
    // keeps its floor. The ledger admits the unit's longest prefix that
    // fits; the refused suffix is recorded in this entry (entries must
    // not move once staging starts) and carries the tag's
    // refill-derived retry hint.
    const uint64_t bytes_each = entry.record.series.size() +
                                entry.record.payload.size() +
                                kStagedRecordOverhead;
    entry.tag_id = run->conn->tag_id;
    uint64_t hint_ms = 0;
    const uint64_t admitted =
        ledger_->TryAdmit(entry.tag_id, bytes_each, entry.frames, &hint_ms);
    if (admitted < entry.frames) {
      entry.busy_frames = entry.frames - static_cast<uint32_t>(admitted);
      entry.retry_after_ms = hint_ms;
      busy_rejections_.fetch_add(entry.busy_frames,
                                 std::memory_order_relaxed);
      if (admitted == 0) continue;
      entry.record.values.resize(admitted);  // only a unit of values splits
    }
    entry.bytes = bytes_each * admitted;
    by_shard[store_->ShardOf(entry.record.series)].push_back(&entry);
    ++staged;
  }
  if (staged == 0) return true;  // everything refused: respond inline
  // One completion per staged unit plus the staging sentinel: a
  // committer finishing instantly can never drive the count to zero
  // while units are still being routed below.
  run->remaining.store(staged + 1, std::memory_order_relaxed);
  for (size_t k = 0; k < by_shard.size(); ++k) {
    if (by_shard[k].empty()) continue;
    Shard& shard = *shards_[k];
    std::lock_guard<std::mutex> lk(shard.queue_mu);
    if (shard.stopping) {
      // Refused at staging time: complete on the spot and refund the
      // admission charge.
      for (PendingIngest* entry : by_shard[k]) {
        entry->result = Status::ResourceExhausted("server is shutting down");
        ledger_->Refund(entry->tag_id, entry->bytes);
        entry->bytes = 0;
      }
      run->remaining.fetch_sub(by_shard[k].size(), std::memory_order_acq_rel);
      continue;
    }
    for (PendingIngest* entry : by_shard[k]) {
      shard.queue.push_back(entry);
    }
    shard.queue_cv.notify_all();
  }
  // Drop the sentinel. If it was the last count, every staged unit was
  // already completed (all groups refused, or the committers raced
  // ahead) and no completion will be posted — finish inline.
  return run->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

Response SketchServer::HandleNonIngest(const Request& request) {
  Response response;
  response.op = request.op;
  auto fail = [&response](const Status& status) {
    response.code = status.code();
    response.message = status.message();
    return response;
  };
  switch (request.op) {
    case Request::Op::kIngest:
    case Request::Op::kMerge:
      return fail(Status::Internal("ingest op routed to HandleNonIngest"));
    case Request::Op::kQuery: {
      // A series lives on exactly one shard (pinned hash, immutable
      // count), so the read locks only the owner — queries never
      // contend with the other shards' committers or checkpoints.
      const size_t owner = store_->ShardOf(request.series);
      std::lock_guard<std::mutex> lk(shards_[owner]->store_mu);
      auto merged = store_->shard(owner).QueryRange(request.series,
                                                    request.start, request.end);
      if (!merged.ok()) return fail(merged.status());
      response.values.reserve(request.quantiles.size());
      for (double q : request.quantiles) {
        auto value = merged.value().Quantile(q);
        if (!value.ok()) return fail(value.status());
        response.values.push_back(value.value());
      }
      return response;
    }
    case Request::Op::kCheckpoint:
    case Request::Op::kCompact: {
      const bool compact = request.op == Request::Op::kCompact;
      if (const Status refusal =
              CheckWritable(compact ? "compaction runs on the primary"
                                    : "checkpoints run on the primary");
          !refusal.ok()) {
        return fail(refusal);
      }
      // Every shard, one shard lock at a time so ingest on the others
      // keeps flowing while each snapshot is written. COMPACT's explicit
      // fold honours the caller's clock (clamped to the data horizon
      // inside the store); the checkpoint that persists it also ages
      // anything eligible by data time.
      for (size_t k = 0; k < shards_.size(); ++k) {
        std::lock_guard<std::mutex> lk(shards_[k]->store_mu);
        DurableSketchStore& shard_store = store_->shard(k);
        if (compact) {
          auto compacted = shard_store.Compact(request.compact_now);
          if (!compacted.ok()) return fail(compacted.status());
          response.compacted += compacted.value();
        } else if (Status status = shard_store.Checkpoint(); !status.ok()) {
          return fail(status);
        }
        shards_[k]->checkpoint_deadline_base = Clock::now();
        const uint64_t epoch = shard_store.epoch();
        response.epoch = k == 0 ? epoch : std::min(response.epoch, epoch);
      }
      return response;
    }
    case Request::Op::kStats: {
      StoreStats& stats = response.stats;
      stats.shards.reserve(shards_.size());
      for (size_t k = 0; k < shards_.size(); ++k) {
        ShardStats row;
        row.shard = k;
        {
          std::lock_guard<std::mutex> lk(shards_[k]->store_mu);
          const DurableSketchStore& shard_store = store_->shard(k);
          row.num_series = shard_store.store().num_series();
          row.wal_bytes = shard_store.wal_offset();
          row.epoch = shard_store.epoch();
          row.background_checkpoints = shards_[k]->background_checkpoints;
          stats.num_intervals += shard_store.store().num_intervals();
          stats.size_in_bytes += shard_store.store().size_in_bytes();
          // v6: per-level ladder rows, summed across shards (all shards
          // share one ladder — pinned by each shard's snapshot).
          const std::vector<LevelUsage> levels = shard_store.LevelStats();
          if (stats.levels.size() < levels.size()) {
            stats.levels.resize(levels.size());
          }
          for (size_t i = 0; i < levels.size(); ++i) {
            stats.levels[i].interval_seconds =
                static_cast<uint64_t>(levels[i].interval_seconds);
            stats.levels[i].retention_seconds =
                static_cast<uint64_t>(levels[i].retention_seconds);
            stats.levels[i].num_intervals += levels[i].num_intervals;
            stats.levels[i].rollup_merges += levels[i].rollup_merges;
            stats.levels[i].retained_bytes += levels[i].retained_bytes;
          }
          // v5: fencing state, aggregated conservatively (max token; one
          // shard refusing writes fences the server — a follower's
          // shards all do).
          stats.fence_token =
              std::max(stats.fence_token, shard_store.fence_token());
          if (shard_store.writes_fenced()) stats.fenced = 1;
          if (k == 0) {
            stats.role =
                shard_store.role() == StoreRole::kFollower ? 1 : 0;
          }
        }
        {
          std::lock_guard<std::mutex> lk(shards_[k]->queue_mu);
          row.batch_commits = shards_[k]->batch_commits;
        }
        stats.num_series += row.num_series;
        stats.wal_offset += row.wal_bytes;
        stats.epoch = k == 0 ? row.epoch : std::min(stats.epoch, row.epoch);
        stats.batch_commits += row.batch_commits;
        stats.background_checkpoints += row.background_checkpoints;
        stats.shards.push_back(row);
      }
      stats.connections_open =
          connections_open_.load(std::memory_order_relaxed);
      stats.connections_accepted =
          connections_accepted_.load(std::memory_order_relaxed);
      stats.connections_shed =
          connections_shed_.load(std::memory_order_relaxed);
      stats.busy_rejections =
          busy_rejections_.load(std::memory_order_relaxed);
      stats.staged_bytes = ledger_->total_staged();
      // v7: one row per admission tag — ledger state plus the tag's own
      // ack-latency percentiles (the throttle controller's instrument).
      for (const TagLedgerEntry& row : ledger_->Snapshot()) {
        TagStatsRow tag_row;
        tag_row.tag = row.tag;
        tag_row.floor_bytes = row.floor_bytes;
        tag_row.budget_bytes = row.budget_bytes;
        tag_row.staged_bytes = row.staged_bytes;
        tag_row.busy_rejections = row.busy_rejections;
        tag_row.throttle_permille =
            static_cast<uint64_t>(row.borrow_share * 1000.0 + 0.5);
        const DDSketch latency = tag_latency_[row.id].Snapshot();
        tag_row.count = latency.count();
        if (tag_row.count > 0) {
          tag_row.p50_us = latency.QuantileOrNaN(0.5);
          tag_row.p99_us = latency.QuantileOrNaN(0.99);
          tag_row.p999_us = latency.QuantileOrNaN(0.999);
        }
        stats.tags.push_back(std::move(tag_row));
      }
      stats.repl_subscribers = shipper_ ? shipper_->subscribers() : 0;
      stats.repl_shipped_bytes = shipper_ ? shipper_->shipped_bytes() : 0;
      if (follower_) {
        stats.repl_applied_bytes = follower_->applied_bytes();
        stats.repl_connected = follower_->connected() ? 1 : 0;
        stats.repl_heartbeat_age_ms = follower_->heartbeat_age_ms();
      }
      FillOpLatencies(&stats);
      return response;
    }
    case Request::Op::kSubscribe:
      // Intercepted on the event loop (the connection is handed to the
      // shipper before this dispatcher runs); reaching here is a bug.
      return fail(Status::Internal("SUBSCRIBE routed to HandleNonIngest"));
    case Request::Op::kSetTag:
      // Intercepted on the event loop (it mutates the Conn's tag);
      // reaching here is a bug.
      return fail(Status::Internal("SET_TAG routed to HandleNonIngest"));
    case Request::Op::kPromote: {
      auto token = Promote();
      if (!token.ok()) return fail(token.status());
      response.repl_token = token.value();
      return response;
    }
  }
  return fail(Status::Internal("unhandled request op"));
}

void SketchServer::FillOpLatencies(StoreStats* stats) const {
  for (size_t i = 0; i < kNumLatencyOps; ++i) {
    const DDSketch latency = op_latency_[i].Snapshot();
    OpLatencyStats& row = stats->op_latencies[i];
    row.count = latency.count();
    if (row.count == 0) continue;  // empty rows report zeros, never NaN
    row.p50_us = latency.QuantileOrNaN(0.5);
    row.p90_us = latency.QuantileOrNaN(0.9);
    row.p99_us = latency.QuantileOrNaN(0.99);
    row.p999_us = latency.QuantileOrNaN(0.999);
    row.max_us = latency.max();
  }
}

Status SketchServer::CheckWritable(const char* follower_hint) const {
  if (!writes_fenced_.load(std::memory_order_relaxed)) return Status::OK();
  return Status::Fenced(
      role_follower_.load(std::memory_order_relaxed)
          ? std::string("this server is a follower; ") + follower_hint
          : "writer fenced: a newer primary holds the fencing token");
}

void SketchServer::CommitLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::unique_lock<std::mutex> lk(shard.queue_mu);
  for (;;) {
    shard.queue_cv.wait(
        lk, [&shard] { return shard.stopping || !shard.queue.empty(); });
    if (shard.queue.empty()) return;  // stopping and nothing left to commit
    if (options_.commit_interval_us > 0 &&
        shard.queue.size() < options_.commit_batch) {
      // Give concurrent ingests a window to fill the batch; a full batch
      // (or shutdown) commits immediately.
      shard.queue_cv.wait_for(
          lk, std::chrono::microseconds(options_.commit_interval_us),
          [this, &shard] {
            return shard.stopping ||
                   shard.queue.size() >= options_.commit_batch;
          });
    }
    CommitOneBatch(shard_index, &lk);
  }
}

void SketchServer::CommitOneBatch(size_t shard_index,
                                  std::unique_lock<std::mutex>* lk) {
  Shard& shard = *shards_[shard_index];
  std::vector<PendingIngest*> batch;
  batch.reserve(std::min(shard.queue.size(), options_.commit_batch));
  while (!shard.queue.empty() && batch.size() < options_.commit_batch) {
    batch.push_back(shard.queue.front());
    shard.queue.pop_front();
  }
  lk->unlock();

  // A failed store refuses the batch itself, with its sticky status,
  // before anything reaches the log.
  std::vector<WalRecord> records;
  records.reserve(batch.size());
  for (PendingIngest* pending : batch) {
    records.push_back(std::move(pending->record));
  }
  Status status;
  uint64_t offset = 0;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> store_lk(shard.store_mu);
    status = store_->shard(shard_index).IngestBatch(records);
    offset = store_->shard(shard_index).wal_offset();
    epoch = store_->shard(shard_index).epoch();
  }
  lk->lock();
  if (status.ok()) ++shard.batch_commits;
  lk->unlock();
  // Admission charges are refunded to their tags' ledgers as soon as
  // the batch leaves the staging pipeline — parked bytes below are
  // durable, not staged. (The refunds also feed each tag's refill-rate
  // estimate behind the BUSY retry hint.)
  for (PendingIngest* pending : batch) {
    ledger_->Refund(pending->tag_id, pending->bytes);
    pending->bytes = 0;
  }
  // Completion handshake outside queue_mu: fill the entries, then
  // decrement the runs' counters. The acq_rel chain on `remaining`
  // orders every committer's entry writes before the final
  // decrementer's PostCompletion, whose queue mutex in turn orders them
  // before the event loop's reads. With replication subscribers
  // attached, a durable batch's handshake is parked in the shipper
  // until its (epoch, offset) is acknowledged downstream (semi-sync); a
  // fenced release turns the acks into FENCED, because records the new
  // primary never acked may not survive the failover.
  auto complete = [batch = std::move(batch), status, offset](bool fenced) {
    const Status final_status =
        fenced ? Status::Fenced(
                     "not acknowledged: this primary was fenced before the "
                     "batch replicated")
               : status;
    for (PendingIngest* pending : batch) {
      pending->result = final_status;
      pending->wal_offset = offset;
      IngestRun* run = pending->run;
      if (run->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        run->loop->PostCompletion(run);
      }
    }
  };
  if (status.ok() && shipper_) {
    shipper_->SubmitCommitted(shard_index, epoch, offset, std::move(complete));
  } else {
    complete(false);  // a failed batch has no durable position to gate on
  }
  lk->lock();
}

void SketchServer::MaintenanceLoop() {
  const bool checkpoints = options_.checkpoint_wal_bytes > 0 ||
                           options_.checkpoint_interval_ms > 0;
  // Poll cadence: fine-grained enough that a tiny test interval fires
  // promptly, coarse enough that an idle daemon costs nothing. Each poll
  // is a few mutex-guarded integer reads per shard.
  auto poll = std::chrono::milliseconds(50);
  if (options_.checkpoint_interval_ms > 0) {
    poll = std::min(
        poll, std::chrono::milliseconds(
                  std::max<int64_t>(1, options_.checkpoint_interval_ms / 2)));
  }
  TimePoint last_throttle = Clock::now();
  std::unique_lock<std::mutex> lk(maintenance_mu_);
  for (;;) {
    maintenance_cv_.wait_for(lk, poll, [this] { return maintenance_stop_; });
    if (maintenance_stop_) return;
    lk.unlock();
    // The throttle step goes first: a checkpoint below may hold this
    // thread for the length of a snapshot write, and the step after it
    // then judges a window that covers the longer span.
    if (options_.tag_p99_target_us > 0 &&
        Clock::now() - last_throttle >= kThrottleInterval) {
      last_throttle = Clock::now();
      ThrottleStep();
    }
    // A follower (or fenced ex-primary) never checkpoints on its own:
    // the primary's stream drives its epochs. Checked every poll so a
    // Promote() re-enables the checkpoints in place.
    if (checkpoints && !writes_fenced_.load(std::memory_order_relaxed)) {
      CheckpointStep();
    }
    // Only a fenced server can hold a fence that did not reach disk.
    if (writes_fenced_.load(std::memory_order_relaxed)) FenceRetryStep();
    lk.lock();
  }
}

void SketchServer::ThrottleStep() {
  const double target_us = static_cast<double>(options_.tag_p99_target_us);
  const size_t n_tags = ledger_->num_tags();  // <= kMaxTags rows exist
  for (uint32_t id = 0; id < n_tags; ++id) {
    // The tag's window p99 since the previous step is the controller's
    // whole input (dogfooding the paper's sketch — mergeable,
    // fixed-size, relative-error percentiles).
    const DDSketch window = tag_latency_window_[id].Drain();
    const uint64_t window_count = window.count();
    const double window_p99 =
        window_count > 0 ? window.QuantileOrNaN(0.99) : 0.0;
    const double share = ledger_->borrow_share(id);
    if (window_count >= kThrottleMinSamples && window_p99 > target_us) {
      // Breach: halve the tag's borrowable share. Its floor is
      // untouchable, so a throttled tenant degrades, never starves.
      ledger_->set_borrow_share(id, share * 0.5);
    } else if (share < 1.0 && window_p99 <= target_us) {
      // Recovery: decay back toward full borrowing, additive nudge so
      // a fully-halved share escapes zero-progress multiplication.
      ledger_->set_borrow_share(id, share * 1.25 + 0.01);
    }
  }
}

void SketchServer::CheckpointStep() {
  const auto interval =
      std::chrono::milliseconds(options_.checkpoint_interval_ms);
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    std::lock_guard<std::mutex> store_lk(shard.store_mu);
    DurableSketchStore& shard_store = store_->shard(k);
    const bool dirty = shard_store.wal_offset() > kWalHeaderBytes;
    if (!dirty) {
      // Nothing to fold; keep pushing the age deadline forward so an
      // idle shard never checkpoints and a newly-dirty one gets a full
      // interval before the time trigger fires.
      shard.checkpoint_deadline_base = Clock::now();
      continue;
    }
    const bool size_due = options_.checkpoint_wal_bytes > 0 &&
                          shard_store.wal_offset() - kWalHeaderBytes >=
                              options_.checkpoint_wal_bytes;
    const bool time_due =
        options_.checkpoint_interval_ms > 0 &&
        Clock::now() - shard.checkpoint_deadline_base >= interval;
    if (!size_due && !time_due) continue;
    // A failed store refuses every checkpoint until a restart: skip it.
    if (!shard_store.failure().ok() || Clock::now() < shard.retry_after) {
      continue;
    }
    // Holding only this shard's store_mu: its committer waits, every
    // other shard keeps committing. A failure the store can retry backs
    // off, so a broken disk is not hit every poll; either kind reaches
    // the operator's log.
    if (Status status = shard_store.Checkpoint(); status.ok()) {
      ++shard.background_checkpoints;
    } else {
      std::fprintf(stderr,
                   "sketchd: background checkpoint of shard %zu failed: %s\n",
                   k, status.ToString().c_str());
      shard.retry_after = Clock::now() + kRetryBackoff;
    }
    shard.checkpoint_deadline_base = Clock::now();
  }
}

void SketchServer::FenceRetryStep() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::lock_guard<std::mutex> store_lk(shards_[k]->store_mu);
    const DurableSketchStore& shard_store = store_->shard(k);
    if (!shard_store.fence_pending() ||
        Clock::now() < shards_[k]->retry_after) {
      continue;
    }
    FenceShard(k, shard_store.fence_token());
  }
}

void SketchServer::FenceShard(size_t k, uint64_t token) {
  // Until the LOCK write lands a restart would reopen this shard
  // unfenced, at its old token, and take writes again.
  if (Status status = store_->shard(k).Fence(token); !status.ok()) {
    std::fprintf(stderr,
                 "sketchd: writing the fence of shard %zu failed (will "
                 "retry in 5s): %s\n",
                 k, status.ToString().c_str());
    shards_[k]->retry_after = Clock::now() + kRetryBackoff;
  }
}

Response SketchServer::PrepareSubscribe(const Request& request) {
  Response response;
  response.op = Request::Op::kSubscribe;
  auto fail = [&response](const Status& status) {
    response.code = status.code();
    response.message = status.message();
    return response;
  };
  if (role_follower_.load(std::memory_order_relaxed)) {
    return fail(Status::InvalidArgument(
        "this server is a follower; SUBSCRIBE to the primary (chained "
        "replication is not supported)"));
  }
  if (!request.positions.empty() &&
      request.positions.size() != shards_.size()) {
    return fail(Status::InvalidArgument(
        "SUBSCRIBE carries " + std::to_string(request.positions.size()) +
        " resume positions for a " + std::to_string(shards_.size()) +
        "-shard primary"));
  }
  uint64_t token = 0;
  bool fenced = false;
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::lock_guard<std::mutex> lk(shards_[k]->store_mu);
    DurableSketchStore& shard_store = store_->shard(k);
    if (request.repl_token > shard_store.fence_token()) {
      // The subscriber has seen a newer primary than us: we were
      // deposed while we weren't looking. Self-fence before refusing.
      FenceShard(k, request.repl_token);
    }
    token = std::max(token, shard_store.fence_token());
    fenced = fenced || shard_store.fenced();
  }
  if (fenced) {
    writes_fenced_.store(true, std::memory_order_relaxed);
    // Same reason as FenceSelf: anything parked awaiting subscriber
    // acks must now release as FENCED, not OK.
    if (shipper_) shipper_->Fence();
    return fail(Status::Fenced(
        "writer fenced: a newer primary holds the fencing token"));
  }
  response.repl_token = token;
  response.repl_shards = shards_.size();
  return response;
}

void SketchServer::FenceSelf(uint64_t observed_token) {
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::lock_guard<std::mutex> lk(shards_[k]->store_mu);
    FenceShard(k, observed_token);
  }
  writes_fenced_.store(true, std::memory_order_relaxed);
  // Fence the shipper too, whichever path discovered the demotion:
  // batches parked for subscriber acks must release as FENCED, not OK —
  // those records may not exist on the new primary.
  if (shipper_) shipper_->Fence();
}

Result<uint64_t> SketchServer::Promote() {
  std::lock_guard<std::mutex> promote_lk(promote_mu_);
  // Stop applying the old primary's stream before flipping roles; the
  // socket is kept open so the new token can be sent up it afterwards.
  if (follower_) follower_->StopTail();
  uint64_t max_token = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::lock_guard<std::mutex> lk(shards_[k]->store_mu);
    max_token = std::max(max_token, store_->shard(k).fence_token());
  }
  uint64_t new_token = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::lock_guard<std::mutex> lk(shards_[k]->store_mu);
    DurableSketchStore& shard_store = store_->shard(k);
    // Equalize first so every shard lands on the same new token even if
    // a crash left them divergent.
    DD_RETURN_IF_ERROR(shard_store.AdoptFenceToken(max_token));
    auto token = shard_store.Promote();
    if (!token.ok()) return token.status();
    new_token = token.value();
  }
  role_follower_.store(false, std::memory_order_relaxed);
  writes_fenced_.store(false, std::memory_order_relaxed);
  // Tell the deposed primary it lost the token. Best-effort: if it is
  // already dead this is a no-op, and its next life must rejoin as a
  // follower (docs/OPERATIONS.md runbook) — any replication handshake
  // it attempts with its stale token fences it then.
  if (follower_) follower_->FenceUpstream(new_token);
  return new_token;
}

}  // namespace dd
