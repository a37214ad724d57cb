// DDSketch: the paper's fully-mergeable quantile sketch with relative-error
// guarantees (Masson, Rim & Lee, PVLDB 12(12), 2019).
//
// The sketch buckets positive values by an IndexMapping (gamma-geometric
// boundaries), keeps a mirrored store for negative values and a dedicated
// zero bucket (§2.2), and answers q-quantile queries with a value within
// relative_accuracy of the true sample quantile (Proposition 3), provided
// the quantile's bucket has not been collapsed away by the size bound
// (Proposition 4).
//
// Guarantees:
//  * alpha-accurate quantiles: |estimate - x_q| <= alpha * |x_q|.
//  * full mergeability: merging sketches with equal parameters yields
//    bucket-identical results to a single sketch over the concatenation,
//    regardless of merge order or tree shape.
//  * bounded size: with a collapsing store, at most max_num_buckets buckets
//    per sign, collapsing the least-important end first.

#ifndef DDSKETCH_CORE_DDSKETCH_H_
#define DDSKETCH_CORE_DDSKETCH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mapping.h"
#include "core/store.h"
#include "util/status.h"

namespace dd {

/// Construction parameters for DDSketch. The defaults match Table 2 of the
/// paper: alpha = 0.01 with up to 2048 buckets, logarithmic mapping.
struct DDSketchConfig {
  /// Relative accuracy alpha in (0, 1).
  double relative_accuracy = 0.01;
  /// Bucket boundary scheme. Defaults to the exact logarithmic mapping
  /// (memory-optimal, what the paper calls plain "DDSketch"); pick one of
  /// the interpolated mappings (e.g. kCubicInterpolated) for the paper's
  /// "DDSketch (fast)" variant, which trades slightly more buckets for
  /// cheaper insertion (§4).
  MappingType mapping = MappingType::kLogarithmic;
  /// Counter container strategy.
  StoreType store = StoreType::kCollapsingLowestDense;
  /// Size bound per sign; <= 0 means unbounded (ignored for
  /// kUnboundedDense). 2048 covers ~80 microseconds to ~1 year at
  /// alpha = 0.01 (§2.2).
  int32_t max_num_buckets = 2048;
  /// Forces every insert through the generic virtual Store::Add instead of
  /// the devirtualized dense fast path. Semantics are identical either
  /// way; this knob exists so differential tests (and perf comparisons)
  /// can pin the two paths against each other.
  bool reference_insert_path = false;
};

/// The quantile sketch. Not thread-safe; use one sketch per thread and
/// merge (the intended deployment mode of the paper).
class DDSketch {
 public:
  /// Validates `config` and builds a sketch.
  static Result<DDSketch> Create(const DDSketchConfig& config);

  /// Convenience: logarithmic mapping, collapsing-lowest store.
  static Result<DDSketch> Create(double relative_accuracy,
                                 int32_t max_num_buckets = 2048);

  // User-provided moves: the insert-path caches must be cleared on the
  // moved-from object — a defaulted move would leave them aliasing the
  // stores now owned by the destination, so a (misguided) Add on the
  // source would corrupt the destination instead of faulting.
  DDSketch(DDSketch&& other) noexcept;
  DDSketch& operator=(DDSketch&& other) noexcept;
  DDSketch(const DDSketch& other);
  DDSketch& operator=(const DDSketch& other);

  /// Adds one occurrence of `value`. Values in (-min_indexable,
  /// +min_indexable) go to the zero bucket; NaN and +/-inf are rejected and
  /// counted in rejected_count(); magnitudes above the indexable maximum are
  /// clamped into the extreme bucket (and counted in clamped_count()).
  void Add(double value) noexcept { Add(value, 1); }

  /// Adds `count` occurrences of `value`.
  void Add(double value, uint64_t count) noexcept;

  /// Adds every value of `values`: the batch form of Add with identical
  /// semantics (same rejection/zero-bucket/clamp handling) but a hot loop
  /// that hoists the indexable bounds, computes indices with zero virtual
  /// dispatch, increments dense-store slots directly, and reduces
  /// sum/min/max in registers. sum() accrues in input order, so it ends
  /// bit-identical to adding the values one at a time. The whole ingest
  /// stack (ConcurrentDDSketch, SketchStore, DurableSketchStore, sketchd's
  /// committer) funnels value batches through here.
  void AddBatch(std::span<const double> values) noexcept;

  /// Removes up to `count` occurrences of `value`; returns how many were
  /// removed. Deletion mirrors Add bucket-wise (paper §2: "straightforward
  /// to insert items into this sketch as well as delete items"), including
  /// Add's clamping: magnitudes above the indexable maximum remove from
  /// the extreme bucket and give back their clamped_count(). min()/max()
  /// become conservative bounds after deletions. Caveat: values sharing a
  /// bucket are indistinguishable, so removing clamped mass can charge
  /// clamped_count() for unclamped same-bucket mass (and vice versa) —
  /// the counter is a best-effort diagnostic, exact whenever the extreme
  /// bucket holds only clamped values.
  uint64_t Remove(double value, uint64_t count = 1) noexcept;

  /// The q-quantile estimate (lower quantile, rank floor(1 + q(n-1))).
  /// Fails with InvalidArgument if q is outside [0, 1] or the sketch is
  /// empty. The result is within relative_accuracy of the true quantile
  /// whenever its bucket was not collapsed.
  Result<double> Quantile(double q) const;

  /// Like Quantile but returns NaN instead of an error (hot-path form).
  double QuantileOrNaN(double q) const noexcept;

  /// Batch quantile query; one cumulative scan would be possible but the
  /// simple per-q form is already dominated by the bucket walk.
  Result<std::vector<double>> Quantiles(std::span<const double> qs) const;

  /// Approximate CDF: the fraction of accepted values <= `value`, with
  /// log-linear interpolation inside the containing bucket. This is the
  /// rank-space dual of Quantile: the result is the exact CDF of some
  /// point within relative_accuracy of `value`. Returns NaN for an empty
  /// sketch or NaN input; -inf maps to 0 and +inf to 1.
  double CdfOrNaN(double value) const noexcept;

  /// Validated form of CdfOrNaN.
  Result<double> Cdf(double value) const;

  /// Approximate number of accepted values <= `value` (CdfOrNaN * count).
  double RankOrNaN(double value) const noexcept {
    return CdfOrNaN(value) * static_cast<double>(count());
  }

  /// Approximate number of accepted values in (lo, hi].
  double CountInRangeOrNaN(double lo, double hi) const noexcept {
    return RankOrNaN(hi) - RankOrNaN(lo);
  }

  /// Merges `other` into this sketch. Fails with Incompatible unless both
  /// sketches use the same mapping type and gamma. Fully mergeable: the
  /// result is bucket-identical to a single sketch over both streams.
  Status MergeFrom(const DDSketch& other);

  /// Total number of accepted values (excludes rejected, includes zeros).
  uint64_t count() const noexcept;
  /// Sum of accepted values (exact, tracked separately).
  double sum() const noexcept { return sum_; }
  /// Mean of accepted values (NaN when empty).
  double mean() const noexcept;
  /// Exact minimum accepted value (+inf when empty; conservative after
  /// Remove).
  double min() const noexcept { return min_; }
  /// Exact maximum accepted value (-inf when empty; conservative after
  /// Remove).
  double max() const noexcept { return max_; }
  /// Number of values in the zero bucket.
  uint64_t zero_count() const noexcept { return zero_count_; }
  /// Number of NaN/inf inputs dropped.
  uint64_t rejected_count() const noexcept { return rejected_count_; }
  /// Number of inputs clamped into an extreme bucket.
  uint64_t clamped_count() const noexcept { return clamped_count_; }
  /// True iff count() == 0.
  bool empty() const noexcept { return count() == 0; }

  /// Number of non-empty buckets across both signs (Figure 7).
  size_t num_buckets() const noexcept;
  /// Live memory footprint in bytes (Figure 6).
  size_t size_in_bytes() const noexcept;

  /// The configured accuracy alpha.
  double relative_accuracy() const noexcept {
    return mapping_->relative_accuracy();
  }
  /// The bucket boundary mapping.
  const IndexMapping& mapping() const noexcept { return *mapping_; }
  /// The positive-value store (negative values live in a mirrored store).
  const Store& positive_store() const noexcept { return *positive_; }
  const Store& negative_store() const noexcept { return *negative_; }

  /// Resets to empty, keeping configuration and capacity.
  void Clear() noexcept;

  /// Serializes to a compact binary payload (see serialization.cc for the
  /// format). Decoding with Deserialize() yields a sketch that answers all
  /// queries identically.
  std::string Serialize() const;

  /// Decodes a payload produced by Serialize(). Fails with Corruption on
  /// malformed input.
  static Result<DDSketch> Deserialize(std::string_view payload);

 private:
  friend class DDSketchCodec;

  DDSketch(std::unique_ptr<IndexMapping> mapping,
           std::unique_ptr<Store> positive, std::unique_ptr<Store> negative,
           bool reference_insert_path);

  /// (Re)derives the insert-path caches from mapping_/positive_/negative_:
  /// the mapping constants and, when the stores are dense and the fast
  /// path is enabled, raw DenseStore pointers for direct slot increments.
  /// Must run whenever the owned mapping/stores are (re)created — the
  /// cached pointers alias them.
  void BindInsertPath() noexcept;

  /// The sealed batch insert loop, instantiated per mapping scheme so the
  /// index computation inlines with zero dispatch of any kind (AddBatch
  /// switches on the scheme once per call).
  template <MappingType kType>
  void AddBatchFast(std::span<const double> values) noexcept;

  std::unique_ptr<IndexMapping> mapping_;
  std::unique_ptr<Store> positive_;
  std::unique_ptr<Store> negative_;  // indices of |value|; collapses highest
  uint64_t zero_count_ = 0;
  uint64_t rejected_count_ = 0;
  uint64_t clamped_count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  // Insert hot-path caches (see BindInsertPath). Moves keep them valid —
  // the pointees are heap objects owned by the unique_ptrs above; copies
  // rebind them to the cloned stores.
  FastIndexParams fast_index_;
  DenseStore* positive_dense_ = nullptr;  // null: sparse store or reference path
  DenseStore* negative_dense_ = nullptr;
  bool reference_insert_path_ = false;
};

}  // namespace dd

#endif  // DDSKETCH_CORE_DDSKETCH_H_
