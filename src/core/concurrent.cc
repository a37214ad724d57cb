#include "core/concurrent.h"

#include <functional>
#include <string>
#include <thread>

namespace dd {

Result<ConcurrentDDSketch> ConcurrentDDSketch::Create(
    const DDSketchConfig& config, int num_shards) {
  if (num_shards < 1 || num_shards > 4096) {
    return Status::InvalidArgument("num_shards must be in [1, 4096], got " +
                                   std::to_string(num_shards));
  }
  auto prototype = DDSketch::Create(config);
  if (!prototype.ok()) return prototype.status();
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards.push_back(std::make_unique<Shard>(prototype.value()));
  }
  return ConcurrentDDSketch(std::move(shards));
}

ConcurrentDDSketch::Shard& ConcurrentDDSketch::ShardForThisThread() noexcept {
  const size_t hash =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return *shards_[hash % shards_.size()];
}

void ConcurrentDDSketch::Add(double value, uint64_t count) noexcept {
  Shard& shard = ShardForThisThread();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.sketch.Add(value, count);
}

void ConcurrentDDSketch::AddBatch(std::span<const double> values) noexcept {
  Shard& shard = ShardForThisThread();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.sketch.AddBatch(values);
}

Status ConcurrentDDSketch::MergeFrom(const DDSketch& sketch) {
  Shard& shard = ShardForThisThread();
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.sketch.MergeFrom(sketch);
}

DDSketch ConcurrentDDSketch::Snapshot() const {
  // Merge shard by shard; each shard is locked only while being copied
  // into the accumulator, so ingestion stalls at most one shard at a time.
  std::unique_ptr<DDSketch> merged;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (merged == nullptr) {
      merged = std::make_unique<DDSketch>(shard->sketch);
    } else {
      (void)merged->MergeFrom(shard->sketch);  // same config: cannot fail
    }
  }
  return std::move(*merged);
}

DDSketch ConcurrentDDSketch::Drain() {
  std::unique_ptr<DDSketch> drained;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (drained == nullptr) {
      drained = std::make_unique<DDSketch>(shard->sketch);
    } else {
      (void)drained->MergeFrom(shard->sketch);  // same config: cannot fail
    }
    shard->sketch.Clear();
  }
  return std::move(*drained);
}

uint64_t ConcurrentDDSketch::count() const noexcept {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->sketch.count();
  }
  return total;
}

}  // namespace dd
