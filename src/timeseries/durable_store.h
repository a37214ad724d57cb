// DurableSketchStore: a SketchStore that survives restarts.
//
// Layout of a data directory:
//   <dir>/wal.log       append-only ingest log      (timeseries/wal.h)
//   <dir>/snapshot.dds  last checkpointed full state (timeseries/snapshot.h)
//   <dir>/LOCK          flock'd while a store is open (single writer)
//
// Write path: one for every durable write. A batch of records (a
// group commit, a single ingest, or a follower's replicated segment) is
// validated, appended to the WAL in one write, fsynced once, and only
// then merged into the in-memory store — an OK return means the records
// replay on the next Open(), even after power loss. A failed append or
// fsync truncates the log back to where the batch started. Recovery
// replays the log through the same merge, so the live store, a reopened
// one and a follower hold byte-identical state.
//
// Recovery protocol (Open): a fresh directory is initialized with an
// empty epoch-0 snapshot, pinning the store options so every later Open
// can verify them (a WAL-only directory must never silently adopt new
// options). Open loads the snapshot (epoch E), then scans the WAL
// tolerantly. A torn tail
// is truncated (those appends were never acknowledged). The WAL's epoch
// W decides what to replay:
//   W == E + 1 : the normal case — replay every record on top of the
//                snapshot;
//   W == E     : crash landed between snapshot rename and WAL reset
//                during a checkpoint — the log's records are already in
//                the snapshot, so the log is discarded and reset;
//   otherwise  : the directory is inconsistent — Corruption.
// A missing or header-torn WAL (crash during creation) is recreated
// empty at epoch E + 1.
//
// Checkpoint (also run by Compact after the in-memory rollup): write the
// snapshot atomically with the current WAL epoch, then reset the WAL to
// the next epoch. A crash between the two steps is exactly the W == E
// case above — never double-applied, never lost.

#ifndef DDSKETCH_TIMESERIES_DURABLE_STORE_H_
#define DDSKETCH_TIMESERIES_DURABLE_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "timeseries/sketch_store.h"
#include "timeseries/wal.h"
#include "util/status.h"

namespace dd {

/// Who owns a data directory's write path (replication; PROTOCOL.md v5).
enum class StoreRole {
  kPrimary = 0,   ///< exclusive writer: ingests, checkpoints
  kFollower = 1,  ///< applier: mutates only via replicated snapshots/segments
};

struct DurableSketchStoreOptions {
  SketchStoreOptions store;
  /// kFollower opens the directory in applier mode: the lock is still
  /// taken (two appliers on one directory would race too), but the
  /// public write API (Ingest*/Checkpoint/Compact) refuses with FENCED —
  /// only the ApplyReplicated*/InstallReplicated* methods mutate state,
  /// and only with bytes shipped by the primary.
  StoreRole role = StoreRole::kPrimary;
};

/// The durable facade: SketchStore semantics, plus Open-time recovery
/// and checkpointing. Not thread-safe (like SketchStore).
class DurableSketchStore {
 public:
  /// Opens (creating the directory, an initial snapshot, and an empty
  /// log if needed) and recovers snapshot + WAL. Fails with Incompatible
  /// when the directory was written with different options, Corruption
  /// when its files are damaged beyond the torn-tail cases recovery is
  /// designed for, and ResourceExhausted when another process holds the
  /// directory open.
  static Result<DurableSketchStore> Open(
      const std::string& data_dir, const DurableSketchStoreOptions& options);

  /// Logs and merges a serialized worker sketch: a one-record
  /// IngestBatch, so OK means fsynced.
  Status Ingest(const std::string& series, int64_t timestamp,
                std::string_view payload);

  /// Logs and merges a single value: a one-record IngestBatch, so OK
  /// means fsynced.
  Status IngestValue(const std::string& series, int64_t timestamp,
                     double value);

  /// Validates an ingest record — decodes sketch payloads and checks
  /// sketch-parameter compatibility — without touching the log or the
  /// store. The staging half of group commit: callers (the network
  /// server) reject bad requests on their own threads so an invalid
  /// record can never poison a batch.
  Status ValidateRecord(const WalRecord& record) const;

  /// Group commit: appends every record to the WAL in one write, fsyncs
  /// ONCE, then merges all of them into the in-memory store — N
  /// acknowledged ingests for a single disk flush. All records are
  /// re-validated before the first byte reaches the log, so a bad record
  /// fails the whole batch with nothing written. An OK return means
  /// every record in the batch replays on the next Open(), even after
  /// power loss. On an append/fsync failure the log is truncated back
  /// to the batch start (nothing from the batch replays); if even that
  /// repair fails the log is torn mid-file and the error says so —
  /// callers must stop appending (a torn frame would make recovery
  /// silently drop everything after it).
  Status IngestBatch(const std::vector<WalRecord>& records);

  /// Explicitly ages the ladder (SketchStore::Compact, with `now`
  /// clamped to the data horizon), then checkpoints. Returns the number
  /// of interval sketches the explicit fold moved or dropped; the
  /// checkpoint itself may fold more (see Checkpoint). Rollup state
  /// reaches disk only through the checkpoint's snapshot — the WAL
  /// stays a raw-ingest log.
  Result<size_t> Compact(int64_t now);

  /// Snapshot + WAL reset (bounds replay time). Every checkpoint first
  /// runs the data-time rollup (Compact saturated to the data horizon),
  /// so aging happens exactly at epoch boundaries and nowhere else:
  /// crash recovery replays raw records onto the last folded snapshot,
  /// and a replication follower crossing the boundary folds its own
  /// identical raw state to the identical ladder.
  Status Checkpoint();

  // --- Replication + fencing (server/replication.h, PROTOCOL.md v5) ---
  //
  // The fencing token lives in the LOCK file (`fence=<N>\nfenced=<0|1>\n`
  // and a line with the CRC-32C of those two, in 8 hex digits), written
  // in place on the flock'd fd — util/file_io.h explains why not
  // atomically; the CRC line makes a torn rewrite fail to open with
  // Corruption. It totally orders primaries over a directory's history:
  // a promotion bumps the token, and a writer that has observed a larger
  // token than its own is *fenced* — sticky, persisted, every write
  // refused with FENCED — so a deposed primary's late writes can never
  // land after failover (split-brain protection).

  StoreRole role() const noexcept { return role_; }
  uint64_t fence_token() const noexcept { return fence_token_; }
  bool fenced() const noexcept { return fenced_; }
  /// True when the public write API refuses with FENCED (follower role
  /// or fenced).
  bool writes_fenced() const noexcept {
    return fenced_ || role_ == StoreRole::kFollower;
  }

  /// Records that a writer holding `observed_token` exists: adopts the
  /// larger token, sticky-fences this store, persists. Idempotent once
  /// persisted. The store refuses writes from the first call on; when
  /// the LOCK write fails the fence stays pending, and every later call
  /// (with any token) writes it again until it lands.
  Status Fence(uint64_t observed_token);

  /// True while a fence is in memory but not in the LOCK file: a
  /// restart now would reopen unfenced, at the old token.
  bool fence_pending() const noexcept { return fence_pending_; }

  /// Adopts the primary's token on a follower (never lowers ours, never
  /// fences). The token changes in memory only once the LOCK write has
  /// landed.
  Status AdoptFenceToken(uint64_t token);

  /// Become the (new) primary: persist a fencing token one past every
  /// token ever observed here with the fenced flag clear, checkpoint,
  /// and only then bump the token, clear the flag and flip the role to
  /// kPrimary in memory — so a promotion that fails at either durable
  /// step leaves the store as it was (still refusing writes), and a
  /// retry asks for the same token. The checkpoint bumps the WAL
  /// epoch, so every stream position handed out by the old lineage —
  /// including a deposed primary's own WAL, which may hold a durable
  /// suffix this store never received — mismatches the new log and
  /// resyncs from a snapshot instead of tailing divergent bytes.
  /// Returns the new token.
  Result<uint64_t> Promote();

  /// Encodes a full-state snapshot claiming coverage through the end of
  /// wal epoch - 1 for replication bootstrap. Only exact when the WAL
  /// is empty (wal_offset() == kWalHeaderBytes): the encoded state is
  /// the *live* store, which includes any current-epoch records — a
  /// follower that installed it and then tailed the current epoch from
  /// its start would apply those records twice. The shipper therefore
  /// calls CheckpointForReplication() first whenever the WAL is
  /// non-empty, so every shipped snapshot sits on an epoch boundary.
  std::string EncodeReplicationSnapshot() const;

  /// Checkpoint on behalf of the replication shipper, folding the
  /// current epoch so EncodeReplicationSnapshot() is boundary-exact.
  /// Bypasses the writability gate: a fenced ex-primary may still be
  /// serving subscribers it owes a resync.
  Status CheckpointForReplication() { return CheckpointUnguarded(); }

  /// Reads raw framed record bytes from the WAL file, starting at
  /// `from_offset` (which must be a record boundary: kWalHeaderBytes or
  /// an offset previously returned past). At most ~`max_bytes`, but the
  /// result always ends on a record boundary — a single record larger
  /// than the cap is returned whole. Every returned frame's CRC has been
  /// checked (a corrupt record fails with Corruption instead of
  /// shipping). Empty when already caught up.
  Result<std::string> ReadWalChunk(uint64_t from_offset,
                                   uint64_t max_bytes) const;

  /// Follower-side full resync: validates and installs a primary's
  /// snapshot image, resets the WAL to `wal_epoch` (the primary's), and
  /// swaps the in-memory store. Crash-safe: the WAL is removed before
  /// the snapshot is replaced, so every crash point reopens as either
  /// the old state or the new one.
  Status InstallReplicatedSnapshot(std::string_view snapshot_bytes,
                                   uint64_t wal_epoch);

  /// Follower-side incremental apply of a shipped WAL segment. A
  /// segment at (wal epoch, wal_offset()) extends the log through the
  /// same commit as IngestBatch — validate, append the shipped bytes
  /// verbatim, fsync, merge — minus the writability gate. One at
  /// (epoch + 1, kWalHeaderBytes) means the primary checkpointed: the
  /// follower runs its own checkpoint first (keeping the directories
  /// epoch-aligned), then applies. Any other position fails with
  /// OutOfRange — the follower must resync from a snapshot.
  Status ApplyReplicatedSegment(uint64_t epoch, uint64_t start_offset,
                                std::string_view bytes);

  // Queries delegate to the in-memory store.
  Result<DDSketch> QueryRange(const std::string& series, int64_t start,
                              int64_t end) const {
    return store_.QueryRange(series, start, end);
  }
  Result<double> QueryQuantile(const std::string& series, int64_t start,
                               int64_t end, double q) const {
    return store_.QueryQuantile(series, start, end, q);
  }
  Result<std::vector<SeriesPoint>> QuerySeries(const std::string& series,
                                               int64_t start, int64_t end,
                                               double q,
                                               int64_t step_seconds) const {
    return store_.QuerySeries(series, start, end, q, step_seconds);
  }
  std::vector<std::string> ListSeries() const { return store_.ListSeries(); }

  /// The recovered/live in-memory state.
  const SketchStore& store() const noexcept { return store_; }

  /// Per-level interval counts / rollup merges / retained bytes of the
  /// live ladder (finest level first).
  std::vector<LevelUsage> LevelStats() const { return store_.LevelStats(); }

  /// Current WAL generation (advances by one per checkpoint).
  uint64_t epoch() const noexcept { return wal_.epoch(); }

  /// Append offset of the WAL; the boundary after each acknowledged
  /// ingest is a crash-consistent recovery point.
  uint64_t wal_offset() const noexcept { return wal_.offset(); }

  /// End offset the WAL had just before the most recent in-process
  /// checkpoint folded it into epoch() (0 = unknown: fresh open,
  /// snapshot install, or a promotion — a lineage break, after which
  /// prior-epoch positions may be divergent and must never be rolled
  /// forward). A subscriber sitting exactly here consumed the prior
  /// epoch in full, so the shipper can roll it across the checkpoint
  /// without a snapshot transfer.
  uint64_t prior_epoch_end() const noexcept { return prior_epoch_end_; }

  static std::string WalPath(const std::string& data_dir) {
    return data_dir + "/wal.log";
  }
  static std::string SnapshotPath(const std::string& data_dir) {
    return data_dir + "/snapshot.dds";
  }
  static std::string LockPath(const std::string& data_dir) {
    return data_dir + "/LOCK";
  }

 private:
  DurableSketchStore(DurableSketchStoreOptions options, std::string data_dir,
                     FileLock lock, SketchStore store, WalWriter wal)
      : options_(std::move(options)),
        data_dir_(std::move(data_dir)),
        lock_(std::move(lock)),
        store_(std::move(store)),
        wal_(std::move(wal)) {}

  /// The one guarded append behind every durable write: validates
  /// `records` (decoding each sketch payload once), appends `framed` —
  /// their encoded frames — in one write, fsyncs once, then merges. On
  /// an append or fsync failure the log is truncated back to where it
  /// started. Takes no writability gate (the follower's apply uses it).
  Status Commit(std::span<const WalRecord> records, std::string_view framed);
  /// FENCED when writes_fenced(); the gate on every public write path.
  Status CheckWritable() const;
  /// Checkpoint without the writability gate (the follower's own
  /// checkpoint when the primary's stream crosses an epoch).
  Status CheckpointUnguarded();

  DurableSketchStoreOptions options_;
  std::string data_dir_;
  FileLock lock_;
  SketchStore store_;
  WalWriter wal_;
  StoreRole role_ = StoreRole::kPrimary;
  uint64_t fence_token_ = 1;
  bool fenced_ = false;
  /// The in-memory fence is newer than the LOCK file (its write failed).
  bool fence_pending_ = false;
  uint64_t prior_epoch_end_ = 0;
};


}  // namespace dd

#endif  // DDSKETCH_TIMESERIES_DURABLE_STORE_H_
