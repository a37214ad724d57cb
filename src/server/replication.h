// WAL-shipping replication for sketchd (protocol v5; PROTOCOL.md
// § Replication channel, ARCHITECTURE.md § Replication).
//
// Two halves, both owned by SketchServer:
//
//  * ReplicationShipper (primary side) — a pump thread that owns every
//    subscribed follower connection. It streams each shard's WAL bytes
//    (read back from the log file under the shard's store lock, so the
//    disk is the buffer and a slow follower costs no memory), falls
//    back to a full snapshot when a follower's position no longer
//    matches the log (the PR 2 epoch handshake: a checkpoint reset the
//    WAL, exactly like crash recovery), and heartbeats liveness.
//
//    Ack gating (semi-synchronous replication): while at least one
//    subscriber is attached, committed batches are *parked* — the
//    client's OK is withheld until every subscriber has acknowledged a
//    durable position at or past the batch. A subscriber that stops
//    acking for longer than the ack timeout, disconnects, or errors is
//    dropped, and dropping the last laggard releases the parked acks —
//    the primary degrades to async rather than stalling ingest (the
//    slow-loris follower can never wedge the write path). A FENCE frame
//    from a promoted follower instead releases parked acks as FENCED:
//    those records are durable here but may not exist on the new
//    primary, so acking them as OK would break the failover guarantee.
//
//  * ReplicationFollower (follower side) — one thread that connects to
//    the primary, SUBSCRIBEs with its per-shard (epoch, offset) resume
//    positions, and applies the streamed frames under the owning
//    shard's store lock: segments append + fsync + merge, snapshots
//    atomically replace shard state. Every durable apply is ack'd
//    upstream. On any error it reconnects and re-SUBSCRIBEs — resume is
//    just the subscribe handshake again, so a follower restart mid-tail
//    needs no special case.
//
// Lock order: a shipper/follower thread takes its own mutex before a
// shard's store_mu; committers call SubmitCommitted with no shard locks
// held, and parked completions run with no replication locks held.

#ifndef DDSKETCH_SERVER_REPLICATION_H_
#define DDSKETCH_SERVER_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/net.h"
#include "server/protocol.h"
#include "timeseries/durable_store.h"
#include "util/status.h"

namespace dd {

/// One shard as the replication threads see it: the store plus the
/// mutex that serializes every access to it (SketchServer::Shard owns
/// both; these are stable pointers into it).
struct ReplShard {
  std::mutex* store_mu = nullptr;
  DurableSketchStore* store = nullptr;
};

struct ReplicationShipperOptions {
  /// Park a committed batch at most this long waiting for subscriber
  /// acks before dropping the laggards and releasing the acks.
  int64_t ack_timeout_ms = 1000;
  /// Heartbeat cadence on every subscriber connection.
  int64_t heartbeat_ms = 500;
  /// Snapshot images larger than this ship as a kSnapshotChunk train
  /// closed by kSnapshotEnd instead of one kSnapshot frame, so the
  /// 64 MiB frame cap bounds a chunk, not the bootstrapable shard
  /// size. Small images keep the single-frame path.
  uint64_t snapshot_chunk_bytes = 4u << 20;
};

/// Primary side: owns subscriber sockets and the ack-gating ledger.
class ReplicationShipper {
 public:
  /// `on_fence` is invoked (from the pump thread, no shipper locks
  /// held) when a subscriber announces a fencing token via a FENCE
  /// frame — the server must fence its store and refuse writes.
  ReplicationShipper(std::vector<ReplShard> shards,
                     ReplicationShipperOptions options,
                     std::function<void(uint64_t)> on_fence);
  ~ReplicationShipper();

  ReplicationShipper(const ReplicationShipper&) = delete;
  ReplicationShipper& operator=(const ReplicationShipper&) = delete;

  void Start();
  /// Drops every subscriber, releases every parked completion (as OK —
  /// shutdown is not failover), joins the pump thread. Idempotent.
  void Stop();

  /// Marks this shipper fenced and wakes the pump, which releases every
  /// parked completion with fenced=true (the acks turn into FENCED).
  /// The pump's own FENCE-frame path sets the same flag; this entry
  /// point exists for fencing discovered elsewhere — a SUBSCRIBE
  /// carrying a newer token, or any other server-side self-fence — so
  /// those paths can never release parked acks as OK for records the
  /// new primary may not hold.
  void Fence();

  /// Adopts a subscriber connection handed over by an event loop after
  /// an OK SUBSCRIBE. `fd` must be non-blocking; `initial_out` (the
  /// encoded SUBSCRIBE response) is flushed before any frames.
  /// `positions` are the follower's per-shard resume positions (empty =
  /// bootstrap from snapshots).
  void AddSubscriber(int fd, std::string initial_out,
                     std::vector<std::pair<uint64_t, uint64_t>> positions);

  /// Committer hand-off for one durable batch on `shard`: either runs
  /// `complete` inline (no subscribers — async mode) or parks it until
  /// every subscriber acks (epoch, offset) or is dropped. `complete`
  /// receives true when the release happens because this server was
  /// fenced mid-park (the ack must turn into FENCED), false otherwise.
  /// Call with no shard locks held.
  void SubmitCommitted(size_t shard, uint64_t epoch, uint64_t offset,
                       std::function<void(bool)> complete);

  uint64_t subscribers() const noexcept {
    return subscriber_count_.load(std::memory_order_relaxed);
  }
  uint64_t shipped_bytes() const noexcept {
    return shipped_bytes_.load(std::memory_order_relaxed);
  }
  /// Full-snapshot frames shipped since start. A caught-up subscriber
  /// riding a checkpoint must not bump this (tests pin that).
  uint64_t snapshot_frames() const noexcept {
    return snapshot_frames_.load(std::memory_order_relaxed);
  }

 private:
  struct Subscriber {
    explicit Subscriber(int fd) : conn(fd) {}
    /// The follower's socket and its read/write buffers; the shipper
    /// closes conn.fd() when it drops the subscriber.
    FramedConn conn;
    /// Last (epoch, offset) whose bytes were queued, per shard.
    std::vector<std::pair<uint64_t, uint64_t>> sent;
    /// Last (epoch, offset) the follower acknowledged durable, per shard.
    std::vector<std::pair<uint64_t, uint64_t>> acked;
    std::chrono::steady_clock::time_point last_heartbeat;
  };

  /// One parked group commit awaiting subscriber acks.
  struct Parked {
    uint64_t epoch = 0;
    uint64_t offset = 0;
    std::chrono::steady_clock::time_point deadline;
    std::function<void(bool)> complete;
  };

  void PumpLoop();
  void Wake();
  /// Queues WAL bytes / snapshots for `sub` on every shard it lags.
  /// Returns false when the subscriber hit an unrecoverable error.
  bool QueueShipping(Subscriber* sub);
  /// Parses buffered follower frames (acks, fence). Returns false on a
  /// protocol violation (the subscriber must be dropped).
  bool ParseIncoming(Subscriber* sub, std::vector<uint64_t>* fences);
  /// Releases every parked entry at or below the slowest subscriber's
  /// ack on each shard; collects the completions into *out.
  void CollectReleasable(std::vector<std::function<void(bool)>>* out);
  /// Drops subscribers whose oldest owed ack is past its deadline.
  void DropExpired(std::vector<std::function<void(bool)>>* out);
  void CloseSubscriberLocked(size_t index);

  const std::vector<ReplShard> shards_;
  const ReplicationShipperOptions options_;
  const std::function<void(uint64_t)> on_fence_;

  std::mutex mu_;
  std::vector<Subscriber> subs_;            // guarded by mu_
  std::vector<std::deque<Parked>> parked_;  // per shard, guarded by mu_
  bool fenced_ = false;                     // guarded by mu_
  bool stop_ = false;                       // guarded by mu_
  bool started_ = false;
  int wake_fd_ = -1;
  std::thread pump_;

  std::atomic<uint64_t> subscriber_count_{0};
  std::atomic<uint64_t> shipped_bytes_{0};
  std::atomic<uint64_t> snapshot_frames_{0};
};

struct ReplicationFollowerOptions {
  std::string host;
  uint16_t port = 0;
};

/// Follower side: tails a primary and applies its stream.
class ReplicationFollower {
 public:
  ReplicationFollower(std::vector<ReplShard> shards,
                      ReplicationFollowerOptions options);
  ~ReplicationFollower();

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  void Start();
  /// Stops tailing and closes the connection. Idempotent.
  void Stop();

  /// Promotion handshake: stops the tail thread but keeps the socket,
  /// so the caller can promote the store and then FenceUpstream() the
  /// old primary with the new token before closing.
  void StopTail();
  /// Best-effort: sends a FENCE frame with `token` up the (kept) tail
  /// connection, then closes it. The old primary self-fences on
  /// receipt; if the socket is already dead the fencing token in the
  /// LOCK files still protects us — this just makes demotion prompt.
  void FenceUpstream(uint64_t token);

  bool connected() const noexcept {
    return connected_.load(std::memory_order_relaxed);
  }
  uint64_t applied_bytes() const noexcept {
    return applied_bytes_.load(std::memory_order_relaxed);
  }
  /// Milliseconds since the last heartbeat (0 before the first one).
  uint64_t heartbeat_age_ms() const;
  /// Set when the primary is permanently incompatible (shard count or
  /// store-option mismatch); the tailer has given up retrying.
  Status incompatible() const;

 private:
  void TailLoop();
  /// One connect + subscribe + apply session. Returns when the
  /// connection dies or stop is requested.
  void RunSession();
  Status ApplyFrame(const ReplFrame& frame, FramedConn* conn);

  const std::vector<ReplShard> shards_;
  const ReplicationFollowerOptions options_;

  std::thread tailer_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> applied_bytes_{0};
  std::atomic<int64_t> last_heartbeat_ms_{0};  // steady-clock ms; 0 = never

  std::mutex conn_mu_;   // guards fd_ and writes on it (acks vs fence)
  int fd_ = -1;          // guarded by conn_mu_
  bool keep_fd_ = false; // StopTail keeps the socket for FenceUpstream

  /// Per-shard reassembly buffer for a chunked snapshot bootstrap
  /// (kSnapshotChunk frames accumulate here until kSnapshotEnd
  /// installs the image). Touched only by the tailer thread; cleared
  /// at the start of every session so a half-shipped image from a
  /// dropped connection can never be installed.
  std::vector<std::string> pending_snapshot_;

  mutable std::mutex status_mu_;
  Status incompatible_;  // guarded by status_mu_
};

}  // namespace dd

#endif  // DDSKETCH_SERVER_REPLICATION_H_
