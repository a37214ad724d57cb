#include "core/store.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <utility>

namespace dd {
namespace {

// Dense stores grow in chunks of this many counters to amortize reallocation.
constexpr size_t kGrowthChunk = 64;

size_t RoundUpToChunk(size_t n) {
  return (n + kGrowthChunk - 1) / kGrowthChunk * kGrowthChunk;
}

}  // namespace

const char* StoreTypeToString(StoreType type) {
  switch (type) {
    case StoreType::kUnboundedDense:
      return "dense";
    case StoreType::kCollapsingLowestDense:
      return "collapsing_lowest";
    case StoreType::kCollapsingHighestDense:
      return "collapsing_highest";
    case StoreType::kSparse:
      return "sparse";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Store (generic fallbacks)
// ---------------------------------------------------------------------------

bool Store::ForEachDescending(BucketVisitor fn) const {
  // Collect ascending, then walk from the top. Dense and sparse stores
  // override with direct reverse scans; this fallback only serves
  // third-party Store implementations.
  std::vector<std::pair<int32_t, uint64_t>> buckets;
  buckets.reserve(num_buckets());
  ForEach([&](int32_t index, uint64_t count) {
    buckets.emplace_back(index, count);
  });
  for (auto it = buckets.rbegin(); it != buckets.rend(); ++it) {
    if (!fn(it->first, it->second)) return false;
  }
  return true;
}

void Store::MergeFrom(const Store& other) {
  other.ForEach([this](int32_t index, uint64_t count) { Add(index, count); });
}

int32_t Store::KeyAtRank(double rank) const noexcept {
  assert(!empty());
  uint64_t cum = 0;
  int32_t result = 0;
  bool found = false;
  // Early-terminating walk: no bucket past the answering one is visited.
  ForEach([&](int32_t index, uint64_t count) -> bool {
    cum += count;
    if (static_cast<double>(cum) > rank) {
      result = index;
      found = true;
      return false;
    }
    return true;
  });
  if (!found) result = max_index();
  return result;
}

int32_t Store::KeyAtRankDescending(double rank) const noexcept {
  assert(!empty());
  uint64_t cum = 0;
  int32_t result = min_index();
  ForEachDescending([&](int32_t index, uint64_t count) -> bool {
    cum += count;
    if (static_cast<double>(cum) > rank) {
      result = index;
      return false;
    }
    return true;
  });
  return result;
}

uint64_t Store::CumulativeCount(int32_t index) const noexcept {
  uint64_t cum = 0;
  ForEach([&](int32_t i, uint64_t count) -> bool {
    if (i > index) return false;  // ascending: nothing further can count
    cum += count;
    return true;
  });
  return cum;
}

Result<std::unique_ptr<Store>> Store::Create(StoreType type,
                                             int32_t max_num_buckets) {
  switch (type) {
    case StoreType::kUnboundedDense:
      return std::unique_ptr<Store>(std::make_unique<UnboundedDenseStore>());
    case StoreType::kCollapsingLowestDense:
      if (max_num_buckets < 1) {
        return Status::InvalidArgument(
            "collapsing store requires max_num_buckets >= 1, got " +
            std::to_string(max_num_buckets));
      }
      return std::unique_ptr<Store>(
          std::make_unique<CollapsingLowestDenseStore>(max_num_buckets));
    case StoreType::kCollapsingHighestDense:
      if (max_num_buckets < 1) {
        return Status::InvalidArgument(
            "collapsing store requires max_num_buckets >= 1, got " +
            std::to_string(max_num_buckets));
      }
      return std::unique_ptr<Store>(
          std::make_unique<CollapsingHighestDenseStore>(max_num_buckets));
    case StoreType::kSparse:
      if (max_num_buckets < 0) {
        return Status::InvalidArgument("max_num_buckets must be >= 0");
      }
      return std::unique_ptr<Store>(
          std::make_unique<SparseStore>(max_num_buckets));
  }
  return Status::InvalidArgument("unknown store type");
}

// ---------------------------------------------------------------------------
// DenseStore
// ---------------------------------------------------------------------------

void DenseStore::Extend(int32_t new_min, int32_t new_max) {
  assert(new_min <= new_max);
  if (counts_.empty()) {
    counts_.assign(
        RoundUpToChunk(static_cast<size_t>(IndexSpan(new_min, new_max)) + 1),
        0);
    offset_ = new_min;
    return;
  }
  const int64_t cur_hi =
      offset_ + static_cast<int64_t>(counts_.size()) - 1;
  if (new_min >= offset_ && new_max <= cur_hi) return;  // already covered
  const int32_t lo = std::min(new_min, offset_);
  const int64_t hi = std::max<int64_t>(new_max, cur_hi);
  std::vector<uint64_t> fresh(RoundUpToChunk(static_cast<size_t>(hi - lo) + 1),
                              0);
  std::copy(counts_.begin(), counts_.end(),
            fresh.begin() + (offset_ - lo));
  counts_ = std::move(fresh);
  offset_ = lo;
}

void DenseStore::Rebase(int32_t lo, int32_t hi, bool up) {
  const int64_t end = offset_ + static_cast<int64_t>(counts_.size());
  if (lo >= offset_ && hi < end) return;  // already covered
  // One growth chunk of room past the window, clipped to the index range.
  const int64_t size =
      static_cast<int64_t>(RoundUpToChunk(
          static_cast<size_t>(IndexSpan(lo, hi)) + 1)) +
      static_cast<int64_t>(kGrowthChunk);
  const int64_t base =
      up ? lo
         : std::max<int64_t>(std::numeric_limits<int32_t>::min(),
                             hi - size + 1);
  const int64_t top = std::min<int64_t>(
      base + size, int64_t{std::numeric_limits<int32_t>::max()} + 1);
  std::vector<uint64_t> fresh(static_cast<size_t>(top - base), 0);
  const int64_t from = std::max<int64_t>(base, offset_);
  const int64_t to = std::min(top, end);
  if (from < to) {
    std::copy(counts_.begin() + (from - offset_),
              counts_.begin() + (to - offset_), fresh.begin() + (from - base));
  }
  counts_ = std::move(fresh);
  offset_ = static_cast<int32_t>(base);
}

void DenseStore::MergeFrom(const Store& other) {
  if (other.empty()) return;
  const auto* dense = dynamic_cast<const DenseStore*>(&other);
  if (dense != nullptr) {
    if (dense->has_collapsed_ && dense->type() == type()) {
      // The source's folded mass arrives at the source's fold bucket:
      // keep the Remove redirect active on the merged store. Only for a
      // source folding in the same direction — a mirror-type source's
      // fold bucket sits on the wrong side of our window, and adopting
      // it would redirect never-added indices into live buckets. When
      // both sides have folded the mass sits in two buckets; keep our
      // own fold bucket (where our mass is) as the best-effort target.
      if (!has_collapsed_) fold_index_ = dense->fold_index_;
      has_collapsed_ = true;
    }
    if (ReserveMergeSpan(dense->min_index_, dense->max_index_,
                         dense->total_count_)) {
      for (int64_t i = dense->min_index_; i <= dense->max_index_; ++i) {
        AddInSpan(i, dense->counts_[static_cast<size_t>(i - dense->offset_)]);
      }
      return;
    }
  }
  Store::MergeFrom(other);
}

bool DenseStore::ReserveMergeSpan(int32_t lo, int32_t hi, uint64_t total) {
  if (total_count_ != 0) {
    lo = std::min(lo, min_index_);
    hi = std::max(hi, max_index_);
  }
  if (!SpanFits(lo, hi)) return false;
  Extend(lo, hi);
  total_count_ += total;
  min_index_ = lo;
  max_index_ = hi;
  return true;
}

void DenseStore::Add(int32_t index, uint64_t count) {
  if (count == 0) return;
  const size_t slot = SlotFor(index);
  const int32_t effective = offset_ + static_cast<int32_t>(slot);
  if (total_count_ == 0) {
    min_index_ = max_index_ = effective;
  } else {
    min_index_ = std::min(min_index_, effective);
    max_index_ = std::max(max_index_, effective);
  }
  counts_[slot] += count;
  total_count_ += count;
}

uint64_t DenseStore::Remove(int32_t index, uint64_t count) {
  if (count == 0 || total_count_ == 0) return 0;
  // Mirror Add's collapse redirect: a value folded into the boundary
  // bucket must be removed from the boundary bucket, not from its
  // (empty, possibly never-allocated) original index.
  index = RemoveTarget(index);
  if (index < min_index_ || index > max_index_) return 0;
  uint64_t& bucket = counts_[static_cast<size_t>(index - offset_)];
  const uint64_t removed = std::min(bucket, count);
  bucket -= removed;
  total_count_ -= removed;
  if (removed > 0 && bucket == 0 && total_count_ > 0) {
    // Re-establish min/max by scanning inward from the stale extremes.
    while (counts_[static_cast<size_t>(min_index_ - offset_)] == 0) {
      ++min_index_;
    }
    while (counts_[static_cast<size_t>(max_index_ - offset_)] == 0) {
      --max_index_;
    }
  }
  return removed;
}

int32_t DenseStore::min_index() const noexcept {
  assert(total_count_ > 0);
  return min_index_;
}

int32_t DenseStore::max_index() const noexcept {
  assert(total_count_ > 0);
  return max_index_;
}

size_t DenseStore::num_buckets() const noexcept {
  if (total_count_ == 0) return 0;
  size_t n = 0;
  for (int64_t i = min_index_; i <= max_index_; ++i) {
    if (counts_[static_cast<size_t>(i - offset_)] > 0) ++n;
  }
  return n;
}

bool DenseStore::ForEach(BucketVisitor fn) const {
  if (total_count_ == 0) return true;
  for (int64_t i = min_index_; i <= max_index_; ++i) {
    const uint64_t c = counts_[static_cast<size_t>(i - offset_)];
    if (c > 0 && !fn(i, c)) return false;
  }
  return true;
}

bool DenseStore::ForEachDescending(BucketVisitor fn) const {
  if (total_count_ == 0) return true;
  for (int64_t i = max_index_; i >= min_index_; --i) {
    const uint64_t c = counts_[static_cast<size_t>(i - offset_)];
    if (c > 0 && !fn(i, c)) return false;
  }
  return true;
}

int32_t DenseStore::KeyAtRank(double rank) const noexcept {
  assert(total_count_ > 0);
  uint64_t cum = 0;
  for (int32_t i = min_index_; i <= max_index_; ++i) {
    cum += counts_[static_cast<size_t>(i - offset_)];
    if (static_cast<double>(cum) > rank) return i;
  }
  return max_index_;
}

int32_t DenseStore::KeyAtRankDescending(double rank) const noexcept {
  assert(total_count_ > 0);
  uint64_t cum = 0;
  for (int32_t i = max_index_; i >= min_index_; --i) {
    cum += counts_[static_cast<size_t>(i - offset_)];
    if (static_cast<double>(cum) > rank) return i;
  }
  return min_index_;
}

uint64_t DenseStore::CumulativeCount(int32_t index) const noexcept {
  if (total_count_ == 0 || index < min_index_) return 0;
  if (index >= max_index_) return total_count_;
  uint64_t cum = 0;
  for (int32_t i = min_index_; i <= index; ++i) {
    cum += counts_[static_cast<size_t>(i - offset_)];
  }
  return cum;
}

size_t DenseStore::size_in_bytes() const noexcept {
  return sizeof(*this) + counts_.capacity() * sizeof(uint64_t);
}

void DenseStore::Clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_count_ = 0;
  min_index_ = max_index_ = 0;
  has_collapsed_ = false;  // a cleared store has lost nothing
}

// ---------------------------------------------------------------------------
// UnboundedDenseStore
// ---------------------------------------------------------------------------

size_t UnboundedDenseStore::SlotFor(int32_t index) {
  Extend(index, index);
  return static_cast<size_t>(index - offset_);
}

// ---------------------------------------------------------------------------
// CollapsingLowestDenseStore
// ---------------------------------------------------------------------------

size_t CollapsingLowestDenseStore::SlotFor(int32_t index) {
  if (total_count_ == 0) {
    Extend(index, index);
    return static_cast<size_t>(index - offset_);
  }
  const int32_t lo = std::min(index, min_index_);
  const int32_t hi = std::max(index, max_index_);
  if (SpanFits(lo, hi)) {
    Extend(lo, hi);
    return static_cast<size_t>(index - offset_);
  }
  // The window after the fold is [new_min, hi].
  has_collapsed_ = true;
  const int32_t new_min = hi - max_num_buckets_ + 1;
  fold_index_ = new_min;  // Remove's redirect target (see RemoveTarget)
  if (index <= new_min) {
    // Incoming value is at or below the fold boundary: redirect it there.
    Extend(new_min, hi);
    return static_cast<size_t>(new_min - offset_);
  }
  // Incoming value raises the ceiling: fold the live buckets below the
  // window into its lowest one, then move the array onto the window, so
  // it never spans the gap below a far add.
  uint64_t folded = 0;
  for (int32_t j = min_index_; j < new_min && j <= max_index_; ++j) {
    uint64_t& c = counts_[static_cast<size_t>(j - offset_)];
    folded += c;
    c = 0;
  }
  Rebase(new_min, hi, /*up=*/true);
  counts_[static_cast<size_t>(new_min - offset_)] += folded;
  min_index_ = std::max(min_index_, new_min);
  return static_cast<size_t>(index - offset_);
}

// ---------------------------------------------------------------------------
// CollapsingHighestDenseStore
// ---------------------------------------------------------------------------

size_t CollapsingHighestDenseStore::SlotFor(int32_t index) {
  if (total_count_ == 0) {
    Extend(index, index);
    return static_cast<size_t>(index - offset_);
  }
  const int32_t lo = std::min(index, min_index_);
  const int32_t hi = std::max(index, max_index_);
  if (SpanFits(lo, hi)) {
    Extend(lo, hi);
    return static_cast<size_t>(index - offset_);
  }
  // The window after the fold is [lo, new_max].
  has_collapsed_ = true;
  const int32_t new_max = lo + max_num_buckets_ - 1;
  fold_index_ = new_max;
  if (index >= new_max) {
    Extend(lo, new_max);
    return static_cast<size_t>(new_max - offset_);
  }
  uint64_t folded = 0;
  for (int32_t j = max_index_; j > new_max && j >= min_index_; --j) {
    uint64_t& c = counts_[static_cast<size_t>(j - offset_)];
    folded += c;
    c = 0;
  }
  Rebase(lo, new_max, /*up=*/false);
  counts_[static_cast<size_t>(new_max - offset_)] += folded;
  max_index_ = std::min(max_index_, new_max);
  return static_cast<size_t>(index - offset_);
}

// ---------------------------------------------------------------------------
// SparseStore
// ---------------------------------------------------------------------------

void SparseStore::Add(int32_t index, uint64_t count) {
  if (count == 0) return;
  counts_[index] += count;
  total_count_ += count;
  CollapseIfNeeded();
}

void SparseStore::CollapseIfNeeded() {
  if (max_num_buckets_ <= 0) return;
  // Algorithm 3, literally: while too many non-empty buckets, merge the two
  // lowest into the higher of the two.
  while (static_cast<int32_t>(counts_.size()) > max_num_buckets_) {
    auto lowest = counts_.begin();
    auto second = std::next(lowest);
    second->second += lowest->second;
    counts_.erase(lowest);
  }
}

uint64_t SparseStore::Remove(int32_t index, uint64_t count) {
  if (count == 0) return 0;
  auto it = counts_.find(index);
  if (it == counts_.end()) return 0;
  const uint64_t removed = std::min(it->second, count);
  it->second -= removed;
  if (it->second == 0) counts_.erase(it);
  total_count_ -= removed;
  return removed;
}

int32_t SparseStore::min_index() const noexcept {
  assert(!counts_.empty());
  return counts_.begin()->first;
}

int32_t SparseStore::max_index() const noexcept {
  assert(!counts_.empty());
  return counts_.rbegin()->first;
}

bool SparseStore::ForEach(BucketVisitor fn) const {
  for (const auto& [index, count] : counts_) {
    if (!fn(index, count)) return false;
  }
  return true;
}

bool SparseStore::ForEachDescending(BucketVisitor fn) const {
  for (auto it = counts_.rbegin(); it != counts_.rend(); ++it) {
    if (!fn(it->first, it->second)) return false;
  }
  return true;
}

size_t SparseStore::size_in_bytes() const noexcept {
  // Red-black tree node: payload + parent/left/right pointers + color,
  // rounded to the typical libstdc++ _Rb_tree_node layout.
  constexpr size_t kNodeOverhead = 4 * sizeof(void*);
  return sizeof(*this) +
         counts_.size() *
             (sizeof(std::pair<const int32_t, uint64_t>) + kNodeOverhead);
}

void SparseStore::Clear() noexcept {
  counts_.clear();
  total_count_ = 0;
}

}  // namespace dd
