#include "core/ddsketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace dd {
namespace {

// The negative store mirrors the positive one: indices are computed on
// |value|, so the largest indices hold the most-negative values and
// collapses must start from the highest indices (§2.2).
StoreType MirrorStoreType(StoreType type) {
  switch (type) {
    case StoreType::kCollapsingLowestDense:
      return StoreType::kCollapsingHighestDense;
    case StoreType::kCollapsingHighestDense:
      return StoreType::kCollapsingLowestDense;
    default:
      return type;
  }
}

}  // namespace

DDSketch::DDSketch(std::unique_ptr<IndexMapping> mapping,
                   std::unique_ptr<Store> positive,
                   std::unique_ptr<Store> negative,
                   bool reference_insert_path)
    : mapping_(std::move(mapping)),
      positive_(std::move(positive)),
      negative_(std::move(negative)),
      reference_insert_path_(reference_insert_path) {
  BindInsertPath();
}

void DDSketch::BindInsertPath() noexcept {
  fast_index_ = mapping_->fast_params();
  positive_dense_ = nullptr;
  negative_dense_ = nullptr;
  if (!reference_insert_path_) {
    positive_dense_ = dynamic_cast<DenseStore*>(positive_.get());
    negative_dense_ = dynamic_cast<DenseStore*>(negative_.get());
  }
}

Result<DDSketch> DDSketch::Create(const DDSketchConfig& config) {
  auto mapping = IndexMapping::Create(config.mapping, config.relative_accuracy);
  if (!mapping.ok()) return mapping.status();
  auto positive = Store::Create(config.store, config.max_num_buckets);
  if (!positive.ok()) return positive.status();
  auto negative =
      Store::Create(MirrorStoreType(config.store), config.max_num_buckets);
  if (!negative.ok()) return negative.status();
  return DDSketch(std::move(mapping).value(), std::move(positive).value(),
                  std::move(negative).value(), config.reference_insert_path);
}

Result<DDSketch> DDSketch::Create(double relative_accuracy,
                                  int32_t max_num_buckets) {
  DDSketchConfig config;
  config.relative_accuracy = relative_accuracy;
  config.max_num_buckets = max_num_buckets;
  return Create(config);
}

DDSketch::DDSketch(const DDSketch& other)
    : mapping_(other.mapping_->Clone()),
      positive_(other.positive_->Clone()),
      negative_(other.negative_->Clone()),
      zero_count_(other.zero_count_),
      rejected_count_(other.rejected_count_),
      clamped_count_(other.clamped_count_),
      sum_(other.sum_),
      min_(other.min_),
      max_(other.max_),
      reference_insert_path_(other.reference_insert_path_) {
  BindInsertPath();  // the caches must alias OUR clones, not other's stores
}

DDSketch& DDSketch::operator=(const DDSketch& other) {
  if (this == &other) return *this;
  *this = DDSketch(other);  // copy-construct then move-assign
  return *this;
}

DDSketch::DDSketch(DDSketch&& other) noexcept
    : mapping_(std::move(other.mapping_)),
      positive_(std::move(other.positive_)),
      negative_(std::move(other.negative_)),
      zero_count_(other.zero_count_),
      rejected_count_(other.rejected_count_),
      clamped_count_(other.clamped_count_),
      sum_(other.sum_),
      min_(other.min_),
      max_(other.max_),
      fast_index_(other.fast_index_),
      positive_dense_(std::exchange(other.positive_dense_, nullptr)),
      negative_dense_(std::exchange(other.negative_dense_, nullptr)),
      reference_insert_path_(other.reference_insert_path_) {}

DDSketch& DDSketch::operator=(DDSketch&& other) noexcept {
  if (this == &other) return *this;
  mapping_ = std::move(other.mapping_);
  positive_ = std::move(other.positive_);
  negative_ = std::move(other.negative_);
  zero_count_ = other.zero_count_;
  rejected_count_ = other.rejected_count_;
  clamped_count_ = other.clamped_count_;
  sum_ = other.sum_;
  min_ = other.min_;
  max_ = other.max_;
  fast_index_ = other.fast_index_;
  positive_dense_ = std::exchange(other.positive_dense_, nullptr);
  negative_dense_ = std::exchange(other.negative_dense_, nullptr);
  reference_insert_path_ = other.reference_insert_path_;
  return *this;
}

void DDSketch::Add(double value, uint64_t count) noexcept {
  if (count == 0) return;
  if (!std::isfinite(value)) {
    rejected_count_ += count;
    return;
  }
  double magnitude = std::abs(value);
  // fast_index_ snapshots the mapping's bounds, so classification reads no
  // pointer and the common case pays no virtual call at all: FastIndex is
  // an inline enum switch and TryAddFast a direct dense-slot increment.
  if (magnitude < fast_index_.min_indexable) {
    zero_count_ += count;
  } else {
    if (magnitude > fast_index_.max_indexable) {
      magnitude = fast_index_.max_indexable;
      clamped_count_ += count;
    }
    const int32_t index = FastIndex(fast_index_, magnitude);
    DenseStore* const dense = value > 0 ? positive_dense_ : negative_dense_;
    if (dense == nullptr || !dense->TryAddFast(index, count)) {
      // Sparse store, reference path, or a dense store that must grow or
      // collapse first: the generic virtual add.
      (value > 0 ? positive_ : negative_)->Add(index, count);
    }
  }
  sum_ += value * static_cast<double>(count);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

namespace {

/// Feeds a run of precomputed bucket indices into a dense store: the fast
/// run primitive consumes everything it can; an index needing growth or
/// collapse takes one virtual Add and the run resumes after it.
void DrainIndexRun(DenseStore* dense, Store* store,
                   std::span<const int32_t> indices) {
  size_t consumed = 0;
  while (consumed < indices.size()) {
    consumed += dense->TryAddFastRun(indices.subspan(consumed));
    if (consumed < indices.size()) {
      store->Add(indices[consumed], 1);
      ++consumed;
    }
  }
}

}  // namespace

void DDSketch::AddBatch(std::span<const double> values) noexcept {
  // Without dense stores on both signs (sparse config, or the pinned
  // reference path) there is no fast store primitive to batch into.
  if (positive_dense_ == nullptr || negative_dense_ == nullptr) {
    for (const double value : values) Add(value, 1);
    return;
  }
  // One scheme dispatch for the whole batch; the loops below then inline
  // the index computation with no per-value dispatch of any kind.
  switch (fast_index_.type) {
    case MappingType::kLinearInterpolated:
      return AddBatchFast<MappingType::kLinearInterpolated>(values);
    case MappingType::kQuadraticInterpolated:
      return AddBatchFast<MappingType::kQuadraticInterpolated>(values);
    case MappingType::kCubicInterpolated:
      return AddBatchFast<MappingType::kCubicInterpolated>(values);
    case MappingType::kLogarithmic:
    default:
      return AddBatchFast<MappingType::kLogarithmic>(values);
  }
}

template <MappingType kType>
void DDSketch::AddBatchFast(std::span<const double> values) noexcept {
  // Three phases per chunk, so each concern runs as its own tight loop:
  //  1. classify each value, computing its bucket index into a stack
  //     buffer (one per sign) and compacting accepted values into a third;
  //  2. drain each index buffer into its dense store, which keeps the
  //     count/extreme bookkeeping in registers for the whole run rather
  //     than a memory round trip per value;
  //  3. reduce min/max over the accepted buffer with interleaved lanes,
  //     off the critical path of the classification loop.
  // Anything outside the plain in-range case — NaN/inf, zero-bucket,
  // clamped magnitudes — detours through scalar Add, which maintains
  // every counter. Bucket counters make the store content insensitive to
  // the reordering between a detour and its chunk-mates (same argument
  // as merge order independence). sum() is not — floating-point addition
  // does not associate, and the sum is serialized — so it has one
  // accumulator fed in input order during classification, a detour's Add
  // summing at its own position. A batch thus leaves sum() bit-identical
  // to the same values added one at a time, however a stream is cut into
  // batches (a durable store's live state, WAL replay and follower apply
  // rely on that to agree byte for byte).
  constexpr size_t kChunk = 512;
  int32_t pos_idx[kChunk];
  int32_t neg_idx[kChunk];
  double accepted[kChunk];
  const double lo_bound = fast_index_.min_indexable;
  const double hi_bound = fast_index_.max_indexable;
  const double multiplier = fast_index_.multiplier;
  double sum = sum_;
  double lo0 = min_, lo1 = min_, hi0 = max_, hi1 = max_;
  for (size_t base = 0; base < values.size(); base += kChunk) {
    const size_t n = std::min(kChunk, values.size() - base);
    size_t np = 0, nn = 0, na = 0;
    for (size_t i = 0; i < n; ++i) {
      const double value = values[base + i];
      const double magnitude = std::abs(value);
      // One predicate covers every special case: NaN fails both
      // compares, +/-inf and clamped magnitudes the second, zero-bucket
      // values the first.
      if (!(magnitude >= lo_bound && magnitude <= hi_bound)) {
        sum_ = sum;
        Add(value, 1);
        sum = sum_;
        continue;
      }
      const int32_t index = FastIndexT<kType>(multiplier, magnitude);
      if (value > 0) {
        pos_idx[np++] = index;
      } else {
        neg_idx[nn++] = index;
      }
      accepted[na++] = value;
      sum += value;
    }
    DrainIndexRun(positive_dense_, positive_.get(), {pos_idx, np});
    DrainIndexRun(negative_dense_, negative_.get(), {neg_idx, nn});
    size_t i = 0;
    for (; i + 2 <= na; i += 2) {
      lo0 = accepted[i] < lo0 ? accepted[i] : lo0;
      hi0 = accepted[i] > hi0 ? accepted[i] : hi0;
      lo1 = accepted[i + 1] < lo1 ? accepted[i + 1] : lo1;
      hi1 = accepted[i + 1] > hi1 ? accepted[i + 1] : hi1;
    }
    if (i < na) {
      lo0 = accepted[i] < lo0 ? accepted[i] : lo0;
      hi0 = accepted[i] > hi0 ? accepted[i] : hi0;
    }
  }
  sum_ = sum;
  // Merge, don't overwrite: scalar Add detours above may have advanced
  // min_/max_ past this loop's local view.
  min_ = std::min(std::min(min_, lo0), lo1);
  max_ = std::max(std::max(max_, hi0), hi1);
}

uint64_t DDSketch::Remove(double value, uint64_t count) noexcept {
  if (count == 0 || !std::isfinite(value)) return 0;
  double magnitude = std::abs(value);
  uint64_t removed = 0;
  if (magnitude < fast_index_.min_indexable) {
    removed = std::min(zero_count_, count);
    zero_count_ -= removed;
  } else {
    // Mirror Add's clamping: a magnitude beyond the indexable maximum was
    // redirected into the extreme bucket on the way in, so that is where
    // it must be removed from — and it gives back its clamped_count.
    // (Before this, such values could never be removed at all, leaving
    // clamped_count() permanently inflated relative to count().)
    const bool clamped = magnitude > fast_index_.max_indexable;
    if (clamped) magnitude = fast_index_.max_indexable;
    const int32_t index = FastIndex(fast_index_, magnitude);
    removed = (value > 0) ? positive_->Remove(index, count)
                          : negative_->Remove(index, count);
    if (clamped) {
      clamped_count_ -= std::min(clamped_count_, removed);
    }
  }
  if (removed > 0) {
    sum_ -= value * static_cast<double>(removed);
    if (empty()) {
      min_ = std::numeric_limits<double>::infinity();
      max_ = -std::numeric_limits<double>::infinity();
      sum_ = 0;
    }
  }
  return removed;
}

uint64_t DDSketch::count() const noexcept {
  return positive_->total_count() + negative_->total_count() + zero_count_;
}

double DDSketch::mean() const noexcept {
  const uint64_t n = count();
  return n == 0 ? std::numeric_limits<double>::quiet_NaN()
                : sum_ / static_cast<double>(n);
}

Result<double> DDSketch::Quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument("quantile must be in [0, 1], got " +
                                   std::to_string(q));
  }
  if (empty()) {
    return Status::InvalidArgument("quantile of an empty sketch");
  }
  return QuantileOrNaN(q);
}

double DDSketch::QuantileOrNaN(double q) const noexcept {
  const uint64_t n = count();
  if (n == 0 || !(q >= 0.0 && q <= 1.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // The extremes are tracked exactly (§2.2).
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // Algorithm 2: find the first bucket (in value order) whose cumulative
  // count exceeds q(n-1). Value order is: negatives from most negative
  // (highest |value| index) up, then zeros, then positives ascending.
  const double rank = q * static_cast<double>(n - 1);
  const double neg_total = static_cast<double>(negative_->total_count());
  double estimate;
  if (rank < neg_total) {
    estimate = -mapping_->Value(negative_->KeyAtRankDescending(rank));
  } else if (rank < neg_total + static_cast<double>(zero_count_)) {
    estimate = 0.0;
  } else {
    const double positive_rank =
        rank - neg_total - static_cast<double>(zero_count_);
    estimate = mapping_->Value(positive_->KeyAtRank(positive_rank));
  }
  // The exact extrema are tracked, so never report beyond them; this also
  // makes q = 0 and q = 1 exact (standard sketch practice, §2.2).
  return std::clamp(estimate, min_, max_);
}

Result<std::vector<double>> DDSketch::Quantiles(
    std::span<const double> qs) const {
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) {
    auto r = Quantile(q);
    if (!r.ok()) return r.status();
    out.push_back(r.value());
  }
  return out;
}

double DDSketch::CdfOrNaN(double value) const noexcept {
  const uint64_t n = count();
  if (n == 0 || std::isnan(value)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (value >= max_) return 1.0;
  if (value < min_) return 0.0;
  const double total = static_cast<double>(n);
  const double neg_total = static_cast<double>(negative_->total_count());
  const double magnitude = std::abs(value);
  if (value >= 0.0) {
    // Everything negative plus the zero bucket sorts below any v >= 0
    // (zero-bucket entries are within floating-point noise of zero).
    double cum = neg_total + static_cast<double>(zero_count_);
    if (magnitude >= mapping_->min_indexable_value()) {
      const int32_t index =
          mapping_->Index(std::min(magnitude, mapping_->max_indexable_value()));
      const double below =
          static_cast<double>(positive_->CumulativeCount(index - 1));
      const double in_bucket =
          static_cast<double>(positive_->CumulativeCount(index)) - below;
      const double lo = mapping_->LowerBound(index);
      const double hi = mapping_->LowerBound(index + 1);
      const double fraction =
          std::clamp((magnitude - lo) / (hi - lo), 0.0, 1.0);
      cum += below + fraction * in_bucket;
    }
    return std::clamp(cum / total, 0.0, 1.0);
  }
  // value < 0: the values <= v are the negatives with magnitude >= |v|,
  // i.e. the negative-store buckets at and above Index(|v|).
  double cum = 0.0;
  if (magnitude < mapping_->min_indexable_value()) {
    // v is a negative value within noise of zero: everything negative is
    // below it.
    cum = neg_total;
  } else {
    const int32_t index =
        mapping_->Index(std::min(magnitude, mapping_->max_indexable_value()));
    const double up_to =
        static_cast<double>(negative_->CumulativeCount(index));
    const double below_bucket =
        static_cast<double>(negative_->CumulativeCount(index - 1));
    const double in_bucket = up_to - below_bucket;
    const double lo = mapping_->LowerBound(index);
    const double hi = mapping_->LowerBound(index + 1);
    // Bucket holds negatives with magnitudes in (lo, hi]; those <= v have
    // magnitude >= |v|.
    const double fraction = std::clamp((hi - magnitude) / (hi - lo), 0.0, 1.0);
    cum = (neg_total - up_to) + fraction * in_bucket;
  }
  return std::clamp(cum / total, 0.0, 1.0);
}

Result<double> DDSketch::Cdf(double value) const {
  if (std::isnan(value)) {
    return Status::InvalidArgument("CDF of NaN");
  }
  if (empty()) {
    return Status::InvalidArgument("CDF of an empty sketch");
  }
  return CdfOrNaN(value);
}

Status DDSketch::MergeFrom(const DDSketch& other) {
  if (!mapping_->IsCompatibleWith(*other.mapping_)) {
    return Status::Incompatible(
        "cannot merge sketches with different mappings (" +
        std::string(MappingTypeToString(mapping_->type())) + " gamma=" +
        std::to_string(mapping_->gamma()) + " vs " +
        std::string(MappingTypeToString(other.mapping_->type())) + " gamma=" +
        std::to_string(other.mapping_->gamma()) + ")");
  }
  positive_->MergeFrom(*other.positive_);
  negative_->MergeFrom(*other.negative_);
  MergeSideStats(other.zero_count_, other.rejected_count_,
                 other.clamped_count_, other.sum_, other.min_, other.max_);
  return Status::OK();
}

void DDSketch::MergeSideStats(uint64_t zero, uint64_t rejected,
                              uint64_t clamped, double sum, double min,
                              double max) noexcept {
  zero_count_ += zero;
  rejected_count_ += rejected;
  clamped_count_ += clamped;
  sum_ += sum;
  min_ = std::min(min_, min);
  max_ = std::max(max_, max);
}

size_t DDSketch::num_buckets() const noexcept {
  return positive_->num_buckets() + negative_->num_buckets() +
         (zero_count_ > 0 ? 1 : 0);
}

size_t DDSketch::size_in_bytes() const noexcept {
  return sizeof(*this) + sizeof(IndexMapping) + positive_->size_in_bytes() +
         negative_->size_in_bytes();
}

void DDSketch::Clear() noexcept {
  positive_->Clear();
  negative_->Clear();
  zero_count_ = 0;
  rejected_count_ = 0;
  clamped_count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

}  // namespace dd
