// sketchd's serving core: a TCP daemon in front of a ShardedDurableStore.
//
// Threading model (documented in docs/ARCHITECTURE.md, "Serving"):
//
//   event-loop threads (epoll, edge-triggered; loop 0 also accepts)
//        │ parse frames from non-blocking FramedConns
//        │ INGEST / MERGE: validate, admission-check, route by series hash
//        ▼
//   per-shard staging queues (shard.queue_mu)
//        │                         │
//   committer thread 0   ...   committer thread N-1
//        │  append batch → 1 fsync → merge (shard.store_mu)
//        │  then post run completions back to the owning event loop
//        ▼                         ▼
//   shard-0 store     ...     shard-(N-1) store
//        ▲                         ▲
//        └────── maintenance thread ───────┘
//          (tag throttle step, then background checkpoints)
//
// A small, fixed pool of event-loop threads multiplexes every
// connection: each loop owns an epoll set of non-blocking sockets and
// never blocks on any one peer (partial writes are buffered, stalled
// peers are shed by deadline). A connection with a staged ingest run
// in flight stops being read until the run commits — TCP flow control
// pushes back on the client, which bounds per-connection memory and
// keeps responses in request order. Committers hand completed runs
// back to the owning loop through a wake-up queue (eventfd), so the
// socket write happens on the loop thread, never on a committer.
//
// Units: while collecting a pipelined run, the loop folds consecutive
// INGEST frames of one series at one timestamp into one unit, a
// kIngestValues WAL record (timeseries/wal.h). A unit is validated,
// admitted, queued, logged, refunded and completed once, and its
// encoded response is copied once per frame. A MERGE frame is a unit
// of its own.
//
// Admission control: the staged-bytes budget caps the bytes
// validated-but-not-yet-durable across all shards, split into per-tag
// ledgers (protocol v7, server/admission.h): each connection charges
// the tag it declared via SET_TAG ("default" if none), every tag keeps
// a guaranteed floor, and the rest is a borrowable shared pool — so a
// flooding tenant exhausts its own allowance and gets BUSY (with a
// retry_after_ms hint) while honest tags keep their floor. When
// --tag-p99-target-us is set, the maintenance thread's throttle duty
// drains each tag's ack-latency window every 200 ms and halves a
// breaching tag's borrowable share, decaying it back on recovery. A
// unit is charged what its frames would be one by one, and the ledger
// admits the longest prefix of it that fits: the refused rest of the
// unit gets BUSY, frame by frame. A connection's staged run holds at
// most min(commit_batch × shards, 1024) frames, and connections that
// stall mid-frame (slow loris), stop reading their responses, or sit
// idle past the configured deadlines are shed.
//
// Group commit: each shard's committer drains up to `commit_batch`
// staged units (WAL records) per commit — many acknowledged frames for
// one fsync, with up to `shards` fsyncs in flight at once. A client
// sees OK only after the shard batch holding its frame is durable.
//
// One maintenance thread runs the periodic duties on one ~50 ms tick:
// the throttle duty first (at most every 200 ms), then the background
// checkpoint triggers (while writable), then the retry of any fence
// whose LOCK write failed (while fenced). A background checkpoint can
// therefore delay the next throttle step by its own length; that
// step's window then simply covers the longer span.
//
// Failure: the server keeps no failure state of its own. A shard's
// DurableSketchStore decides which disk failures are fatal, and once
// one is (DurableSketchStore::failure()) it refuses that shard's every
// write and checkpoint with the status the client sees; the other
// shards, QUERY and STATS keep serving, and the maintenance thread
// skips the failed store until a restart reopens it.
//
// Self-instrumentation: every latency row — six per-op rows and a
// cumulative plus a window row per tag id — is a server-wide
// single-shard ConcurrentDDSketch created at construction. A finished
// run adds one (latency, count) pair per row it touches.
//
// QUERY / CHECKPOINT / COMPACT / STATS / PROMOTE run on the loop
// thread. QUERY locks only the owning shard's store_mu; CHECKPOINT,
// COMPACT and STATS walk the shards one store_mu at a time, in shard
// order.
//
// Replication (protocol v5, server/replication.h): a SUBSCRIBE request
// hands the connection from its event loop to the ReplicationShipper,
// which streams WAL segments (and snapshots, when the follower's
// position no longer matches) and gates ingest acks on follower acks.
// A server started with role=follower runs a ReplicationFollower that
// tails its primary and refuses every client write with FENCED; the
// read path (QUERY/STATS) serves normally. Promote() flips a follower
// (or a fenced ex-primary) back into a writable primary by bumping the
// fencing token persisted in every shard's LOCK file — a deposed
// primary that observes the new token (FENCE frame, or a SUBSCRIBE
// from a newer-tokened follower) sticky-fences itself, so late writes
// after a failover are refused instead of splitting the brain.

#ifndef DDSKETCH_SERVER_SERVER_H_
#define DDSKETCH_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/replication.h"
#include "timeseries/sharded_store.h"
#include "util/status.h"

namespace dd {

struct SketchServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  DurableSketchStoreOptions durable;
  /// Shard count for the data directory: 0 auto-detects (manifest count,
  /// legacy/fresh directories open single-shard); an explicit count must
  /// match the directory (see timeseries/sharded_store.h).
  size_t shards = 0;
  /// Max staged records drained into one group commit (one fsync),
  /// per shard.
  size_t commit_batch = 64;
  /// Extra microseconds a shard committer waits for a partial batch to
  /// fill. 0 = commit whatever queued while the previous commit ran.
  int64_t commit_interval_us = 0;
  /// Background checkpoint: snapshot + reset a shard's WAL once it
  /// exceeds this many bytes. 0 disables the size trigger.
  uint64_t checkpoint_wal_bytes = 0;
  /// Background checkpoint: snapshot + reset a shard's WAL once it has
  /// held records this long. 0 disables the interval trigger. (sketchd
  /// exposes this as --checkpoint-interval-s; milliseconds here keep the
  /// scheduler unit-testable.)
  int64_t checkpoint_interval_ms = 0;

  /// Event-loop threads multiplexing all connections. 0 = auto (half
  /// the hardware threads, clamped to [1, 4]).
  size_t event_loops = 0;
  /// Admission control: global cap on bytes staged (validated and
  /// queued, not yet durable) across all shards. Records arriving past
  /// the cap are refused with BUSY. 0 = unlimited. The cap is split
  /// into per-tag ledgers (v7): each tag's guaranteed floor is its
  /// weighted slice of half the budget, the rest is a shared pool any
  /// tag may borrow from.
  uint64_t staged_bytes_budget = 64u << 20;
  /// Pre-registered tag weights (from sketchd --tag-budget). Tags not
  /// listed here register on first SET_TAG with weight 1; "default"
  /// always exists.
  std::vector<std::pair<std::string, uint64_t>> tag_weights;
  /// Throttle controller: shrink a tag's borrowable share when its own
  /// ingest/merge ack p99 (microseconds) breaches this target.
  /// 0 disables the controller (floors still isolate tenants).
  int64_t tag_p99_target_us = 0;
  /// Shed a connection that has been completely idle (hello done, no
  /// partial frame, no pending writes) this long. 0 = never.
  int64_t idle_timeout_ms = 300000;
  /// Shed a connection whose pending unit of I/O — the hello, a partial
  /// frame (slow loris), or unread responses (stalled reader) — fails
  /// to complete within this deadline. Byte-at-a-time progress does not
  /// reset it. 0 = never.
  int64_t stall_timeout_ms = 10000;

  // --- Replication (protocol v5). The server's role comes from
  // durable.role: kFollower additionally requires follow_host/port. ---

  /// Primary to tail when durable.role == kFollower ("--follow").
  std::string follow_host;
  uint16_t follow_port = 0;
  /// Semi-sync ack gating: a committed batch's client acks are parked
  /// until every subscribed follower acks it, at most this long; a
  /// follower that blows the deadline is dropped and the primary
  /// degrades to async. 0 disables gating (pure async shipping).
  int64_t repl_ack_timeout_ms = 1000;
  /// Heartbeat cadence on replication connections.
  int64_t repl_heartbeat_ms = 500;
  /// Bootstrap snapshot images larger than this ship chunked
  /// (kSnapshotChunk/kSnapshotEnd, protocol v6) instead of as one
  /// frame. Tests shrink it to exercise chunking with small stores.
  uint64_t repl_snapshot_chunk_bytes = 4u << 20;
};

/// The daemon: owns the sharded durable store, the listening socket, and
/// all serving threads. Construct via Start(), tear down via Stop()
/// (also run by the destructor). Stop() closes the store so the data
/// directory can be reopened immediately afterwards.
class SketchServer {
 public:
  /// Opens (or recovers) `data_dir`, binds the listening socket, and
  /// launches the event loops, one committer per shard, and the
  /// maintenance thread.
  static Result<std::unique_ptr<SketchServer>> Start(
      const std::string& data_dir, const SketchServerOptions& options);

  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;
  ~SketchServer();

  /// Stops accepting, sheds every connection (in-flight runs are
  /// committed first), joins all threads, and closes the store.
  /// Idempotent. Connections arriving at any point during shutdown are
  /// owned by exactly one event loop, so none can be missed by a sweep
  /// (the race the old accept-thread design documented).
  void Stop();

  /// The bound port (useful with options.port = 0).
  uint16_t port() const noexcept { return port_; }

  size_t num_shards() const noexcept { return shards_.size(); }
  size_t num_event_loops() const noexcept { return loops_.size(); }

  /// Group commits executed since Start, totaled across shards (each is
  /// exactly one WAL fsync).
  uint64_t batch_commits() const noexcept;

  /// Background checkpoints run since Start, totaled across shards
  /// (client CHECKPOINTs are not counted).
  uint64_t background_checkpoints() const noexcept;

  /// Serving counters (also reported via STATS).
  uint64_t connections_open() const noexcept {
    return connections_open_.load(std::memory_order_relaxed);
  }
  uint64_t connections_shed() const noexcept {
    return connections_shed_.load(std::memory_order_relaxed);
  }
  uint64_t busy_rejections() const noexcept {
    return busy_rejections_.load(std::memory_order_relaxed);
  }
  /// The per-tag admission ledger (always present; unit tests and the
  /// throttle controller read it).
  const TagAdmissionLedger& ledger() const noexcept { return *ledger_; }
  /// Full-snapshot frames the replication shipper has sent (a caught-up
  /// follower riding a checkpoint must not bump this).
  uint64_t repl_snapshot_frames() const noexcept {
    return shipper_ ? shipper_->snapshot_frames() : 0;
  }

  /// Become the (new) primary: stops tailing the old one, bumps the
  /// fencing token on every shard, unfences, and best-effort FENCEs the
  /// old primary over the replication connection. Also un-fences a
  /// fenced ex-primary (re-promotion). Returns the new token. Safe from
  /// any thread (the PROMOTE op and sketchd's SIGUSR1 both land here).
  Result<uint64_t> Promote();

  /// True while this server refuses client writes with FENCED (follower
  /// role, or a primary that observed a newer fencing token).
  bool writes_fenced() const noexcept {
    return writes_fenced_.load(std::memory_order_relaxed);
  }

 private:
  class EventLoop;
  struct Conn;
  struct IngestRun;

  /// One staged unit waiting for a shard committer: a MERGE frame, or a
  /// run of INGEST frames logged as one kIngestValues record. Lives in
  /// its run's entries array (address-stable once staged); the shard
  /// queue holds pointers.
  struct PendingIngest {
    WalRecord record;
    uint32_t frames = 1;       // request frames this unit answers
    uint32_t busy_frames = 0;  // its trailing frames refused with BUSY
    Status result;             // the outcome of the other frames
    uint64_t wal_offset = 0;
    uint64_t bytes = 0;  // admission-budget charge; 0 = never admitted
    uint32_t tag_id = 0; // ledger the charge (and refund) belongs to
    uint64_t retry_after_ms = 0;  // BUSY hint carried to the responses
    IngestRun* run = nullptr;  // completion rendezvous
  };

  /// Everything one shard's committer and checkpoint state needs. The
  /// shard's DurableSketchStore itself lives in store_ (same index).
  struct Shard {
    std::mutex store_mu;  // serializes every access to this shard's store

    std::mutex queue_mu;
    std::condition_variable queue_cv;  // wakes this shard's committer
    std::deque<PendingIngest*> queue;
    bool stopping = false;        // guarded by queue_mu
    uint64_t batch_commits = 0;   // guarded by queue_mu

    std::thread committer;

    /// Background-checkpoint bookkeeping (guarded by store_mu, like the
    /// store).
    std::chrono::steady_clock::time_point checkpoint_deadline_base;
    /// After a failed background checkpoint, or a fence whose LOCK write
    /// failed, the maintenance thread skips this shard until here: a
    /// persistently failing disk must not be hit every poll. One field
    /// serves both, as checkpoints run only while the server is writable
    /// and fence retries only while it is fenced.
    std::chrono::steady_clock::time_point retry_after{};
    uint64_t background_checkpoints = 0;
  };

  SketchServer(SketchServerOptions options, ShardedDurableStore store);

  /// Handles QUERY / CHECKPOINT / STATS on a loop thread (thread-safe:
  /// takes only per-shard locks).
  Response HandleNonIngest(const Request& request);
  /// Fills the v4 latency rows from the per-op sketches (snapshots are
  /// safe concurrent with the loops' adds).
  void FillOpLatencies(StoreStats* stats) const;
  /// OK while this server accepts writes; otherwise the FENCED refusal,
  /// worded for a follower ("this server is a follower; " +
  /// `follower_hint`) or a fenced ex-primary.
  Status CheckWritable(const char* follower_hint) const;
  /// Validates, admission-checks, and stages one run of units across
  /// the owning shards' queues. Returns true when the run is already
  /// complete (everything refused at validation, admission, or staging)
  /// — the caller responds inline; otherwise at least one committer
  /// owes a completion and will post the run back to its event loop.
  bool StageIngestRun(IngestRun* run);
  void CommitLoop(size_t shard_index);
  /// Drains up to commit_batch pending entries from shard `k`, commits
  /// them with one fsync, and posts completed runs back to their event
  /// loops. Called with the shard's queue_mu held; returns with it held.
  void CommitOneBatch(size_t shard_index, std::unique_lock<std::mutex>* lk);
  /// The maintenance thread: one poll loop running the throttle step
  /// and the background checkpoints until Stop().
  void MaintenanceLoop();
  /// Drains each tag's latency window; a tag whose p99 breaches
  /// tag_p99_target_us has its borrowable share halved, a recovering
  /// tag decays back toward 1.
  void ThrottleStep();
  /// Checkpoints every shard whose WAL size or age trigger has fired.
  void CheckpointStep();
  /// Rewrites the LOCK of every shard whose fence is still pending.
  void FenceRetryStep();
  /// Fences shard `k` (its store_mu held) at `token`. A failed LOCK
  /// write is logged and left pending for FenceRetryStep, after a
  /// backoff.
  void FenceShard(size_t k, uint64_t token);
  /// Validates a SUBSCRIBE request (role, fencing token, position
  /// count) and builds its response; called on the loop thread before
  /// the connection is handed to the shipper. A subscriber announcing a
  /// newer token than ours fences this server first.
  Response PrepareSubscribe(const Request& request);
  /// Sticky-fences every shard against `observed_token` and flips the
  /// fast-path flag (the shipper's on_fence callback).
  void FenceSelf(uint64_t observed_token);

  SketchServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::optional<ShardedDurableStore> store_;
  /// One entry per store shard; unique_ptr for address stability (the
  /// committer threads hold pointers into it).
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The event-loop pool. Loop 0 owns the listener; accepted
  /// connections are distributed round-robin.
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};

  // Admission control: the per-tag staged-bytes ledger (v7) plus
  // serving counters (relaxed atomics; STATS reads are advisory).
  std::unique_ptr<TagAdmissionLedger> ledger_;
  /// Ack-latency instruments, all built at construction and never
  /// resized. Per op (v4 STATS rows), indexed by LatencyOp; per ledger
  /// tag id, a cumulative row (v7 tag STATS) and a window row the
  /// throttle step drains.
  std::vector<ConcurrentDDSketch> op_latency_;
  std::vector<ConcurrentDDSketch> tag_latency_;
  std::vector<ConcurrentDDSketch> tag_latency_window_;
  std::atomic<uint64_t> busy_rejections_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};

  // Replication (v5). The shipper always exists (any primary may gain
  // subscribers); the follower only when started with role=follower.
  std::unique_ptr<ReplicationShipper> shipper_;
  std::unique_ptr<ReplicationFollower> follower_;
  /// Loop-thread fast path for the FENCED refusal in StageIngestRun;
  /// the durable truth lives in the shard LOCK files.
  std::atomic<bool> writes_fenced_{false};
  /// Role for error messages ("follower" vs "fenced"); flips on Promote.
  std::atomic<bool> role_follower_{false};
  std::mutex promote_mu_;  // serializes Promote() calls

  std::mutex maintenance_mu_;
  std::condition_variable maintenance_cv_;
  bool maintenance_stop_ = false;  // guarded by maintenance_mu_
  std::thread maintenance_thread_;

  bool stopped_ = false;  // Stop() ran to completion (main thread only)
};

}  // namespace dd

#endif  // DDSKETCH_SERVER_SERVER_H_
