// ConcurrentDDSketch: a thread-safe ingestion front-end.
//
// The deployment the paper describes has many threads/workers feeding one
// logical distribution. Because DDSketch is fully mergeable, the cheapest
// safe design is sharding: each thread hashes to one of S mutex-protected
// shard sketches (no contention in the common case), and Snapshot() merges
// the shards into a plain DDSketch. The snapshot is exactly the sketch a
// single-threaded run over the same values would produce — mergeability is
// what makes lock-striping correct here, not just fast.

#ifndef DDSKETCH_CORE_CONCURRENT_H_
#define DDSKETCH_CORE_CONCURRENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/ddsketch.h"
#include "util/status.h"

namespace dd {

/// Sharded, mutex-striped DDSketch. Add() is safe from any thread;
/// Snapshot() is safe concurrently with adds (it locks shard by shard and
/// is linearizable per shard, so a snapshot taken during ingestion is some
/// valid prefix interleaving).
class ConcurrentDDSketch {
 public:
  /// `num_shards` defaults to a small multiple of typical core counts;
  /// more shards = less contention, slightly larger snapshots cost.
  static Result<ConcurrentDDSketch> Create(const DDSketchConfig& config,
                                           int num_shards = 16);

  /// Thread-safe add.
  void Add(double value, uint64_t count = 1) noexcept;

  /// Thread-safe batch add: one lock acquisition and one
  /// DDSketch::AddBatch pass for the whole span (vs. a lock per value).
  void AddBatch(std::span<const double> values) noexcept;

  /// Thread-safe merge of a whole sketch (e.g. a decoded remote payload)
  /// into one shard.
  Status MergeFrom(const DDSketch& sketch);

  /// Merged copy of all shards.
  DDSketch Snapshot() const;

  /// Merged copy of all shards, emptying each shard as it is read: every
  /// add lands in exactly one Drain() or in what remains for the next
  /// (shard by shard under its lock, so nothing is lost or counted twice).
  /// The emptied shards keep their allocations, so a periodic drain of a
  /// window sketch does not rebuild it.
  DDSketch Drain();

  /// Total count (sums shard counts; each shard read is locked).
  uint64_t count() const noexcept;

  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }

 private:
  struct alignas(64) Shard {  // own cache line: no false sharing
    explicit Shard(DDSketch s) : sketch(std::move(s)) {}
    mutable std::mutex mutex;
    DDSketch sketch;
  };

  explicit ConcurrentDDSketch(std::vector<std::unique_ptr<Shard>> shards)
      : shards_(std::move(shards)) {}

  Shard& ShardForThisThread() noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dd

#endif  // DDSKETCH_CORE_CONCURRENT_H_
