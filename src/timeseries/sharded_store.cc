#include "timeseries/sharded_store.h"

#include <algorithm>
#include <utility>

#include "util/dir_layout.h"
#include "util/file_io.h"

namespace dd {
namespace {

/// A flat (PR 2-4) single-store directory is recognized by its files; an
/// empty or freshly-created directory has none of them.
bool LegacyLayoutExists(const std::string& data_dir) {
  return FileExists(DurableSketchStore::WalPath(data_dir)) ||
         FileExists(DurableSketchStore::SnapshotPath(data_dir));
}

}  // namespace

size_t ShardedDurableStore::ShardForSeries(std::string_view series,
                                           size_t num_shards) {
  return num_shards <= 1 ? 0 : ShardHash(series) % num_shards;
}

Result<ShardedDurableStore> ShardedDurableStore::Open(
    const std::string& data_dir, const ShardedDurableStoreOptions& options) {
  if (options.shards > kMaxShards) {
    return Status::InvalidArgument("shard count out of range");
  }
  DD_RETURN_IF_ERROR(CreateDirIfMissing(data_dir));

  // The layout decision below (read manifest → maybe write manifest →
  // open shards) must be atomic against concurrent first-openers: two
  // racing creators with different shard counts could otherwise each
  // pass the "fresh directory" check, and the loser's manifest could
  // survive on disk while the winner serves with a different modulus —
  // silently mis-routing every later open. LAYOUT.lock serializes the
  // decision; it is held only for the duration of Open (the per-shard
  // LOCK files own steady-state exclusion) and is distinct from the
  // flat layout's LOCK so single-shard opens don't self-deadlock.
  auto layout_lock = FileLock::Acquire(LayoutLockPath(data_dir));
  if (!layout_lock.ok()) return layout_lock.status();

  // Decide the layout: manifest wins, then legacy files, then fresh.
  auto manifest = ReadShardManifest(data_dir);
  if (!manifest.ok()) return manifest.status();
  size_t count = 0;
  bool flat = false;
  if (manifest.value() > 0) {
    if (options.shards != 0 && options.shards != manifest.value()) {
      return Status::Incompatible(
          "data directory was created with shards=" +
          std::to_string(manifest.value()) + ", reopened with shards=" +
          std::to_string(options.shards) +
          " (re-splitting would re-route series)");
    }
    count = manifest.value();
  } else if (LegacyLayoutExists(data_dir)) {
    if (options.shards > 1) {
      return Status::Incompatible(
          "data directory has a legacy single-store layout; open it with "
          "shards=1 (or 0) — it cannot be re-split in place");
    }
    count = 1;
    flat = true;
  } else {
    count = options.shards == 0 ? 1 : options.shards;
    // Single-shard directories keep the flat layout so they stay
    // byte-compatible with DurableSketchStore; only a genuinely sharded
    // directory gets the manifest + shard-<k> subdirectories.
    flat = count == 1;
    if (!flat) {
      DD_RETURN_IF_ERROR(WriteShardManifest(data_dir, count));
    }
  }

  std::vector<std::unique_ptr<DurableSketchStore>> shards;
  shards.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const std::string shard_dir = flat ? data_dir : ShardSubdir(data_dir, k);
    auto shard = DurableSketchStore::Open(shard_dir, options.durable);
    if (!shard.ok()) return shard.status();
    shards.push_back(
        std::make_unique<DurableSketchStore>(std::move(shard).value()));
  }
  return ShardedDurableStore(std::move(shards));
}

std::vector<std::string> ShardedDurableStore::ListSeries() const {
  std::vector<std::string> all;
  for (const auto& shard : shards_) {
    std::vector<std::string> names = shard->ListSeries();
    all.insert(all.end(), std::make_move_iterator(names.begin()),
               std::make_move_iterator(names.end()));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

Status ShardedDurableStore::Checkpoint() {
  for (auto& shard : shards_) {
    DD_RETURN_IF_ERROR(shard->Checkpoint());
  }
  return Status::OK();
}

Result<size_t> ShardedDurableStore::Compact(int64_t now) {
  size_t total = 0;
  for (auto& shard : shards_) {
    auto compacted = shard->Compact(now);
    if (!compacted.ok()) return compacted.status();
    total += compacted.value();
  }
  return total;
}

bool ShardedDurableStore::Fenced() const {
  for (const auto& shard : shards_) {
    if (shard->fenced()) return true;
  }
  return false;
}

size_t ShardedDurableStore::TotalSeries() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->store().num_series();
  return total;
}

size_t ShardedDurableStore::TotalIntervals() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->store().num_intervals();
  return total;
}

}  // namespace dd
