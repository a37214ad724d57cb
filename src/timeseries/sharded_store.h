// ShardedDurableStore: N independent DurableSketchStore shards under one
// data directory, with series routed to shards by a stable hash of the
// series name (util/dir_layout.h).
//
// Why shards: DDSketch is fully mergeable (paper §2.3), so the store can
// be split into independently-ingesting, independently-recovering,
// independently-checkpointing pieces and still answer any query exactly
// by merging at read time. Each shard owns its own WAL, snapshot, epoch,
// and directory lock, so fsyncs, crash recovery, and checkpoints proceed
// per shard — a checkpoint of shard 2 never stalls ingest on shard 5.
//
// Directory layouts (util/dir_layout.h):
//   sharded:  <dir>/SHARDS (manifest) + <dir>/shard-<k>/ per shard
//   legacy:   wal.log / snapshot.dds / LOCK directly under <dir>
// Single-shard mode keeps the legacy flat layout byte-for-byte: a
// shards=1 open of a PR 2-4 directory (or a fresh directory) reads and
// writes exactly what DurableSketchStore would, so nothing ever needs
// migrating to "upgrade" to this class. The manifest pins the shard
// count at creation; reopening with a different explicit count fails
// with Incompatible (re-splitting would re-route series mid-history).
//
// Thread-safety contract (what the server relies on): distinct shards
// are fully independent — concurrent calls are safe as long as no two
// threads touch the same shard at the same time. Routing (ShardOf) and
// record validation read only immutable state and are safe anywhere.
// Per-series reads (QueryRange and friends) touch only the owning
// shard; cross-shard operations (Checkpoint, Compact, ListSeries, the
// aggregate counters) touch every shard and need the caller to hold
// whatever per-shard locks it uses for ingest.

#ifndef DDSKETCH_TIMESERIES_SHARDED_STORE_H_
#define DDSKETCH_TIMESERIES_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "timeseries/durable_store.h"
#include "util/status.h"

namespace dd {

struct ShardedDurableStoreOptions {
  DurableSketchStoreOptions durable;
  /// Number of shards. 0 = auto-detect: adopt the directory's manifest
  /// count, open a legacy flat directory as one shard, and create fresh
  /// directories single-shard. An explicit count must match what the
  /// directory was created with (Incompatible otherwise); an explicit
  /// count > 1 on a fresh directory creates the sharded layout.
  size_t shards = 0;
};

class ShardedDurableStore {
 public:
  /// Opens (creating if needed) and recovers every shard. Each shard
  /// runs the full DurableSketchStore recovery protocol independently;
  /// the first shard failure aborts the open.
  static Result<ShardedDurableStore> Open(
      const std::string& data_dir, const ShardedDurableStoreOptions& options);

  /// The stable series -> shard route: ShardHash(series) % num_shards.
  static size_t ShardForSeries(std::string_view series, size_t num_shards);

  /// `<dir>/LAYOUT.lock` — flock'd for the duration of Open() so the
  /// layout decision (manifest read/creation + shard opens) is atomic
  /// against concurrent first-openers. Steady-state exclusion is the
  /// per-shard LOCK files' job.
  static std::string LayoutLockPath(const std::string& data_dir) {
    return data_dir + "/LAYOUT.lock";
  }

  size_t num_shards() const noexcept { return shards_.size(); }
  size_t ShardOf(std::string_view series) const {
    return ShardForSeries(series, shards_.size());
  }

  /// Direct access to one shard (the server's per-shard committers and
  /// checkpoint scheduler operate on shards, not on this facade).
  DurableSketchStore& shard(size_t k) { return *shards_[k]; }
  const DurableSketchStore& shard(size_t k) const { return *shards_[k]; }

  // Routed single-record ingest (tests; the CLI and the server batch
  // per shard via shard(k).IngestBatch instead).
  Status Ingest(const std::string& series, int64_t timestamp,
                std::string_view payload) {
    return shards_[ShardOf(series)]->Ingest(series, timestamp, payload);
  }
  Status IngestValue(const std::string& series, int64_t timestamp,
                     double value) {
    return shards_[ShardOf(series)]->IngestValue(series, timestamp, value);
  }

  /// Validation reads only the (identical across shards) immutable store
  /// configuration; safe from any thread.
  Status ValidateRecord(const WalRecord& record) const {
    return shards_[0]->ValidateRecord(record);
  }

  // Reads route to the owning shard: a series lives on exactly one
  // shard by construction (the hash is pinned and the manifest count is
  // immutable), so the owner's answer IS the whole answer — merging the
  // other shards could only ever add empty results. Range queries are
  // still merge-on-read inside the shard (across interval sketches, via
  // DDSketch::MergeFrom), which is what keeps sharded answers exactly
  // equal to a single-store run.
  Result<DDSketch> QueryRange(const std::string& series, int64_t start,
                              int64_t end) const {
    return shards_[ShardOf(series)]->QueryRange(series, start, end);
  }
  Result<double> QueryQuantile(const std::string& series, int64_t start,
                               int64_t end, double q) const {
    return shards_[ShardOf(series)]->QueryQuantile(series, start, end, q);
  }
  Result<std::vector<SeriesPoint>> QuerySeries(const std::string& series,
                                               int64_t start, int64_t end,
                                               double q,
                                               int64_t step_seconds) const {
    return shards_[ShardOf(series)]->QuerySeries(series, start, end, q,
                                                 step_seconds);
  }

  /// Sorted union of every shard's series names.
  std::vector<std::string> ListSeries() const;

  /// Checkpoints every shard (snapshot + WAL reset each). The client
  /// CHECKPOINT op maps to this; the background scheduler checkpoints
  /// single shards via shard(k).Checkpoint() instead.
  Status Checkpoint();

  /// Compacts + checkpoints every shard; returns the total number of
  /// raw intervals rolled up.
  Result<size_t> Compact(int64_t now);

  // --- Replication + fencing (durable_store.h) ---
  // The fencing token is logically one per server, but each shard's LOCK
  // file is its durable home, so reads aggregate conservatively. The
  // server fences and promotes shard by shard under its own locks.

  /// True when any shard is fenced — one fenced shard fences the server.
  bool Fenced() const;
  bool WritesFenced() const { return shards_[0]->writes_fenced() || Fenced(); }

  // Aggregates across shards (the CLI; the server aggregates per shard
  // itself because it needs to interleave its per-shard locks).
  size_t TotalSeries() const;
  size_t TotalIntervals() const;

 private:
  explicit ShardedDurableStore(
      std::vector<std::unique_ptr<DurableSketchStore>> shards)
      : shards_(std::move(shards)) {}

  // unique_ptr: DurableSketchStore is move-only and the server hands out
  // stable references to shards while this vector lives in an optional.
  std::vector<std::unique_ptr<DurableSketchStore>> shards_;
};

}  // namespace dd

#endif  // DDSKETCH_TIMESERIES_SHARDED_STORE_H_
