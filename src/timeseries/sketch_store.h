// A miniature monitoring backend: the "central processing system (usually
// backed by a time-series database)" of the paper's introduction, storing
// one DDSketch per (series, time interval).
//
// Design points that only work because DDSketch is fully mergeable:
//  * ingest accepts serialized worker sketches and merges them into the
//    interval's sketch — any number of workers, any arrival order;
//  * range queries merge the covering intervals on the fly, so any
//    aggregation window is answerable with the full accuracy guarantee
//    ("rolling up the sums and counts ... over much larger time periods
//    perfectly accurately" — here for quantiles);
//  * retention ages data down a resolution ladder (e.g. 10s → 1m → 1h)
//    without any accuracy loss: merging six 10s sketches into one 1m
//    bucket yields byte-identical answers at 1m resolution, so queries
//    over rolled-up history return exactly what the raw data would have.
//
// Determinism invariant (load-bearing for replication and recovery): the
// same raw multiset of ingests always folds to the same per-level state.
// Rollup is driven purely by data time — Compact clamps the caller's
// clock to the data horizon — and folds intervals in ascending key
// order, so a primary and a follower that replayed the same WAL bytes
// reach bit-identical ladders when each runs its own rollup.
//
// Frozen and dense intervals. An interval that takes no writes is held
// frozen: its sketch's DDSketch::Freeze() bytes, the part of Serialize()
// after the per-configuration header (~240 B for a 50-value sketch,
// against ~2.7 kB as a dense DDSketch). Queries and rollup folds add it
// into their accumulator with DDSketch::MergeEncoded, and a snapshot
// copies it after the store's one header. An interval is dense only
// while it takes writes: a raw value, or a MERGE into an interval that
// already holds data, thaws it (Deserialize of the store's header plus
// its frozen bytes), and Compact — so every checkpoint — freezes every
// interval after its fold. A MERGE never decodes its payload into a
// sketch. It merges a frozen image: the payload's own bytes after its
// header when they are canonical for the store (MergeImageOf), else the
// image a merge into an empty interval gives, built once. Into an empty
// interval that image is copied as its frozen bytes; into one holding
// data it is added with MergeEncoded. The representation never changes
// bytes or answers: MergeEncoded adds exactly what MergeFrom of the
// thawed sketch would, and header plus Freeze() is Serialize() byte for
// byte, so a primary, a reopened copy and a follower that hold one
// interval in different forms still agree.

#ifndef DDSKETCH_TIMESERIES_SKETCH_STORE_H_
#define DDSKETCH_TIMESERIES_SKETCH_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ddsketch.h"
#include "util/status.h"

namespace dd {

/// One rung of the resolution ladder.
struct RollupLevel {
  /// Width of this level's interval buckets, in seconds. Each level's
  /// interval must be a strict integer multiple of the previous level's.
  int64_t interval_seconds = 0;
  /// How long data stays at this resolution before rolling up into the
  /// next level (counted back from the data horizon, not the wall
  /// clock). 0 means "keep forever" and is only legal on the last level
  /// — on the last level a positive value drops expired buckets
  /// outright (the only lossy operation in the store).
  int64_t retention_seconds = 0;

  friend bool operator==(const RollupLevel& a, const RollupLevel& b) {
    return a.interval_seconds == b.interval_seconds &&
           a.retention_seconds == b.retention_seconds;
  }
};

/// The default ladder: 10s raw for an hour, 1m for a day, 1h forever.
std::vector<RollupLevel> DefaultRollupLevels();

/// Largest magnitude of a timestamp the store accepts, in seconds: ingest
/// timestamps and query bounds lie in [-kMaxTimestamp, kMaxTimestamp]
/// (about 7e10 years either side of the epoch). With level intervals,
/// retentions and query steps bounded too, every sum and difference the
/// store forms stays inside int64.
inline constexpr int64_t kMaxTimestamp = int64_t{1} << 61;
/// Largest level interval or retention, in seconds.
inline constexpr int64_t kMaxLevelSeconds = int64_t{1} << 60;

/// Configuration of the store's time geometry.
struct SketchStoreOptions {
  /// Sketch parameters for every stored interval (all must match for
  /// merging; ingested payloads with other parameters are rejected).
  DDSketchConfig sketch;
  /// The resolution ladder, finest first. Empty means "adopt": Create
  /// substitutes DefaultRollupLevels(), and DurableSketchStore::Open
  /// adopts whatever ladder an existing directory was created with.
  std::vector<RollupLevel> levels;
};

/// One point of a graphing query: interval start and the quantile value.
struct SeriesPoint {
  int64_t timestamp;
  uint64_t count;
  double value;
};

/// Per-level usage for STATS reporting and retention accounting.
struct LevelUsage {
  int64_t interval_seconds = 0;
  int64_t retention_seconds = 0;
  /// Interval sketches currently held at this level across all series.
  uint64_t num_intervals = 0;
  /// Cumulative sketches folded INTO this level by rollup (for the last
  /// level with finite retention, also counts buckets dropped from it).
  uint64_t rollup_merges = 0;
  /// Memory held by this level's intervals, frozen and dense.
  uint64_t retained_bytes = 0;
};

/// Per-series, per-interval sketch storage with merge-on-read range
/// queries and a lossless multi-resolution rollup ladder. Not
/// thread-safe.
class SketchStore {
 public:
  static Result<SketchStore> Create(const SketchStoreOptions& options);

  /// Validates a ladder: at least one level, positive intervals, each a
  /// strict integer multiple of the previous, intermediate retentions
  /// covering at least one next-level interval, retention 0 only on the
  /// last level, no interval or retention above kMaxLevelSeconds.
  /// Exposed so flag parsing can reject bad ladders early.
  static Status ValidateLevels(const std::vector<RollupLevel>& levels);

  /// InvalidArgument unless |timestamp| <= kMaxTimestamp. Every ingest
  /// and query entry point checks its timestamps with this; so does the
  /// durable store, before a record reaches the WAL.
  static Status CheckTimestamp(int64_t timestamp);

  /// Merges a serialized worker sketch into `series` at `timestamp`:
  /// CheckPayload, then IngestImage of MergeImageOf. Fails with
  /// Corruption on malformed payloads and Incompatible on parameter
  /// mismatch, without modifying the store.
  Status Ingest(const std::string& series, int64_t timestamp,
                std::string_view payload);

  /// Merges an already-decoded worker sketch. Fails with Incompatible on
  /// parameter mismatch, without modifying the store. Leaves the store
  /// exactly as Ingest of the sketch's Serialize() would.
  Status IngestSketch(const std::string& series, int64_t timestamp,
                      const DDSketch& sketch);

  /// Whether `sketch` can be merged into this store's intervals (same
  /// mapping type and gamma as the configured prototype).
  Status CheckCompatible(const DDSketch& sketch) const;

  /// Checks a serialized worker sketch for a merge, building nothing:
  /// DDSketch::CheckSerialized (Corruption), then the mapping its header
  /// declares against the store's (Incompatible). Reads only the store's
  /// configuration, which never changes, so it may run beside writers.
  Status CheckPayload(std::string_view payload,
                      DDSketch::SerializedView* view) const;

  /// The frozen image a MERGE of `payload` adds, for IngestImage: when
  /// the payload carries the store's own header and a canonical image
  /// (the common case), that image, a view into `payload`; otherwise,
  /// built once into *built and returned, the image a merge of the
  /// decoded payload into an empty interval stores (Deserialize, MergeFrom into an empty
  /// sketch of the store's configuration, Freeze). That folds a
  /// payload's own store type, size bound, -0.0 sum or NaN min into the
  /// form a merge gives them. `view` is CheckPayload's for `payload`.
  std::string_view MergeImageOf(std::string_view payload,
                                const DDSketch::SerializedView& view,
                                std::string* built) const;

  /// Merges a MergeImageOf image into `series` at `timestamp`: into an
  /// empty interval it is copied in as the interval's frozen bytes, into
  /// a dense one added with MergeEncoded, and a frozen one is thawed
  /// first. That leaves every interval as a MergeFrom of the decoded
  /// payload would (FuzzMergePayloadTest). Fails with InvalidArgument on
  /// an out-of-range timestamp. `image` is not re-validated.
  Status IngestImage(const std::string& series, int64_t timestamp,
                     std::string_view image);

  /// Convenience single-value ingestion (dashboards, tests).
  Status IngestValue(const std::string& series, int64_t timestamp,
                     double value);

  /// Batch single-value ingestion: one series/interval lookup and one
  /// DDSketch::AddBatch pass for the whole span. All values land in the
  /// interval containing `timestamp` (the WAL group-commit path batches
  /// per series+interval before calling this).
  Status IngestValues(const std::string& series, int64_t timestamp,
                      std::span<const double> values);

  /// Merged sketch over [start, end) for one series. Every datum lives
  /// in exactly one level (rollup moves, never copies), so the planner
  /// simply merges the overlapping buckets of every level — the finest
  /// available resolution for each part of the window, stitched at the
  /// rollup horizons by construction. Fails with InvalidArgument for an
  /// unknown series, an empty window or a bound outside kMaxTimestamp.
  Result<DDSketch> QueryRange(const std::string& series, int64_t start,
                              int64_t end) const;

  /// The q-quantile over [start, end).
  Result<double> QueryQuantile(const std::string& series, int64_t start,
                               int64_t end, double q) const;

  /// The graph query: one q-quantile per `step_seconds` bucket across
  /// [start, end); buckets with no data are skipped. The step must lie
  /// in [1, kMaxTimestamp].
  Result<std::vector<SeriesPoint>> QuerySeries(const std::string& series,
                                               int64_t start, int64_t end,
                                               double q,
                                               int64_t step_seconds) const;

  /// Ages data down the ladder. `now` is clamped to the data horizon
  /// (the exclusive end of the newest stored interval), so a caller
  /// clock that runs ahead of the ingest timestamps can never roll up
  /// still-hot intervals, and passing INT64_MAX folds purely by data
  /// time — the deterministic form the checkpoint scheduler uses. For
  /// each level, buckets older than `horizon - retention` (aligned down
  /// to the next level's width so coarse buckets fill in one pass)
  /// merge into the next level; on a last level with finite retention,
  /// expired buckets are dropped. Returns the number of interval
  /// sketches folded or dropped. Queries at coarse resolution return
  /// identical results before and after (full mergeability).
  size_t Compact(int64_t now);

  /// Exclusive end of the newest stored interval across all series and
  /// levels; INT64_MIN when the store is empty. Derivable from state
  /// alone, so snapshot reload and WAL replay reproduce it exactly.
  int64_t DataHorizon() const;

  /// Series names currently stored.
  std::vector<std::string> ListSeries() const;

  size_t num_series() const { return series_.size(); }
  /// Interval sketches currently held across all series and levels,
  /// frozen or dense.
  size_t num_intervals() const;
  /// Memory held by the store: every interval, frozen or dense, and the
  /// series names.
  size_t size_in_bytes() const;

  /// Per-level interval counts, cumulative rollup merges, and held
  /// bytes (finest level first).
  std::vector<LevelUsage> LevelStats() const;

  const SketchStoreOptions& options() const { return options_; }
  size_t num_levels() const { return options_.levels.size(); }

  /// Start of the finest-level ingestion interval containing
  /// `timestamp`. Public so batching callers (the WAL group commit) can
  /// group records that share an interval before handing them to
  /// IngestValues.
  int64_t RawStart(int64_t timestamp) const {
    return timestamp - Mod(timestamp, options_.levels.front().interval_seconds);
  }

 private:
  friend class SketchStoreSnapshotCodec;  // owns the on-disk snapshot format

  /// One interval of one level. Frozen (dense == nullptr), it is held as
  /// `frozen`, its sketch's DDSketch::Freeze() bytes (never empty); dense,
  /// while it takes writes, as `dense`, with `frozen` empty.
  struct Interval {
    int64_t start = 0;
    std::string frozen;
    std::unique_ptr<DDSketch> dense;
  };

  struct Series {
    /// One tier per ladder level, finest first; sized to num_levels() on
    /// creation. Each tier is sorted by interval start, and every start
    /// is aligned to that level's width.
    std::vector<std::vector<Interval>> levels;
  };

  explicit SketchStore(const SketchStoreOptions& options, DDSketch prototype);

  Series& SeriesFor(const std::string& name);
  static int64_t Mod(int64_t x, int64_t m) {
    const int64_t r = x % m;
    return r < 0 ? r + m : r;
  }
  int64_t AlignDown(int64_t timestamp, int64_t width) const {
    return timestamp - Mod(timestamp, width);
  }

  /// The interval of `tier` starting at `start`, inserted empty (neither
  /// frozen nor dense) in start order when absent. Appending is O(1), so
  /// time-ordered ingest and rollup never search.
  static Interval& FindOrInsert(std::vector<Interval>* tier, int64_t start);
  /// `interval` as a dense sketch, thawing it (or starting it from the
  /// prototype) first.
  DDSketch& Thaw(Interval& interval) const;
  static void Freeze(Interval& interval);
  /// Freeze() of `sketch` merged into an empty interval: the frozen
  /// bytes a MERGE of it into one stores. `sketch` must be compatible.
  std::string MergedImage(const DDSketch& sketch) const;
  /// Adds `interval`'s sketch into `out`, whichever form it is held in.
  static void MergeInto(const Interval& interval, DDSketch* out);
  static size_t HeldBytes(const Interval& interval);

  /// Merges every interval of `tier` overlapping [start, end) into `out`.
  static void MergeOverlapping(const std::vector<Interval>& tier,
                               int64_t width, int64_t start, int64_t end,
                               DDSketch* out);

  SketchStoreOptions options_;
  DDSketch prototype_;  // empty sketch with the configured parameters
  std::string header_;  // prototype_.SerializedHeader()
  std::map<std::string, Series> series_;
  /// rollup_merges_[i]: sketches folded into level i (plus buckets
  /// dropped from a finite-retention last level). Runtime counters, not
  /// part of snapshotted state.
  std::vector<uint64_t> rollup_merges_;
};

}  // namespace dd

#endif  // DDSKETCH_TIMESERIES_SKETCH_STORE_H_
