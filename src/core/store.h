// Bucket stores: the counter containers behind DDSketch (paper §2.2).
//
// The paper discusses several storage strategies and we provide all of them:
//
//  * kUnboundedDense     — contiguous array of counters spanning
//                          [min_index, max_index]; fastest adds, grows
//                          without bound (the paper's "basic" sketch).
//  * kCollapsingLowestDense  — dense array capped at max_num_buckets
//                          *contiguous* buckets; when the span would exceed
//                          the cap, the lowest buckets are folded upward
//                          (Algorithm 3/4 of the paper, contiguous-range
//                          variant: guarantees max_index - min_index <
//                          max_num_buckets, which is the exact premise of
//                          Proposition 4).
//  * kCollapsingHighestDense — mirror image, folding the highest buckets
//                          downward; used for the negative-value sketch
//                          ("collapses start from the highest indices",
//                          §2.2).
//  * kSparse             — ordered map from index to counter; minimal
//                          memory for sparse data, slower adds ("sacrificing
//                          speed for space efficiency", §2.2). Optionally
//                          bounded by max *non-empty* buckets, which is the
//                          paper-literal Algorithm 3 collapse.
//
// All stores are fully mergeable with any other store holding the same
// index space (merging iterates (index, count) pairs).
//
// Iteration uses BucketVisitor, a non-owning function_ref: callers pass any
// callable (no std::function allocation) and may return false to stop the
// walk early — which is what lets the generic rank queries (KeyAtRank,
// Algorithm 2) stop at the answering bucket instead of scanning the tail.

#ifndef DDSKETCH_CORE_STORE_H_
#define DDSKETCH_CORE_STORE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace dd {

/// Identifies a store strategy; stable values used in serialization.
enum class StoreType : uint8_t {
  kUnboundedDense = 0,
  kCollapsingLowestDense = 1,
  kCollapsingHighestDense = 2,
  kSparse = 3,
};

/// Returns a stable human-readable name ("dense", "collapsing_lowest", ...).
const char* StoreTypeToString(StoreType type);

/// Non-owning view of a bucket callback: fn(index, count) returning either
/// void (visit everything) or bool (false stops the walk). A trivial
/// {context, trampoline} pair — no allocation, no virtual templates —
/// valid only for the duration of the call it is passed to.
class BucketVisitor {
 public:
  template <typename Fn,
            typename = std::enable_if_t<
                std::is_invocable_v<Fn&, int32_t, uint64_t> &&
                !std::is_same_v<std::decay_t<Fn>, BucketVisitor>>>
  BucketVisitor(Fn&& fn) noexcept  // NOLINT(google-explicit-constructor)
      : ctx_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* ctx, int32_t index, uint64_t count) -> bool {
          using F = std::remove_reference_t<Fn>;
          if constexpr (std::is_void_v<
                            std::invoke_result_t<F&, int32_t, uint64_t>>) {
            (*static_cast<F*>(ctx))(index, count);
            return true;
          } else {
            return (*static_cast<F*>(ctx))(index, count);
          }
        }) {}

  /// Returns false when the walk should stop.
  bool operator()(int32_t index, uint64_t count) const {
    return call_(ctx_, index, count);
  }

 private:
  void* ctx_;
  bool (*call_)(void*, int32_t, uint64_t);
};

/// A multiset of integer bucket indices with 64-bit counts.
class Store {
 public:
  virtual ~Store() = default;

  /// Adds `count` to bucket `index`. May collapse buckets if the store is
  /// bounded and the new index would exceed the configured size.
  virtual void Add(int32_t index, uint64_t count) = 0;
  void Add(int32_t index) { Add(index, 1); }

  /// Removes up to `count` from bucket `index`; returns the number actually
  /// removed (0 if the bucket is empty or out of range). Supports the
  /// paper's "delete items" operation. Collapsing dense stores that have
  /// folded redirect beyond-the-fold indices to the most recent fold
  /// bucket — where folded mass actually sits — so a value whose Add was
  /// folded can be removed. Best-effort, like collapsed quantiles: mass
  /// folded under an older boundary that later shifted may be missed.
  /// Fold history is runtime state — it survives Clone() and MergeFrom()
  /// but is not serialized (the wire format carries bucket contents
  /// only), so a deserialized store conservatively rejects removals of
  /// previously folded mass (returns 0; it never drains a wrong bucket).
  virtual uint64_t Remove(int32_t index, uint64_t count) = 0;

  /// Total count across all buckets.
  virtual uint64_t total_count() const noexcept = 0;

  /// True iff total_count() == 0.
  bool empty() const noexcept { return total_count() == 0; }

  /// Lowest index with a non-zero count. Precondition: !empty().
  virtual int32_t min_index() const noexcept = 0;
  /// Highest index with a non-zero count. Precondition: !empty().
  virtual int32_t max_index() const noexcept = 0;

  /// Number of non-empty buckets (Figure 7 of the paper).
  virtual size_t num_buckets() const noexcept = 0;

  /// Calls `fn(index, count)` for every non-empty bucket in ascending
  /// index order, stopping early when `fn` returns false. Returns false
  /// iff the walk was stopped.
  virtual bool ForEach(BucketVisitor fn) const = 0;

  /// ForEach in descending index order (the negative sketch's value
  /// order). Generic fallback buffers the buckets; dense and sparse
  /// stores override with direct reverse scans.
  virtual bool ForEachDescending(BucketVisitor fn) const;

  /// Adds every (index, count) of `other` into this store, collapsing as
  /// needed (Algorithm 4). Works across store implementations.
  virtual void MergeFrom(const Store& other);

  /// The smallest index i such that the cumulative count of buckets
  /// <= i strictly exceeds `rank` (0-based). Precondition: !empty() and
  /// rank < total_count(). This is the scan of Algorithm 2; it stops at
  /// the answering bucket.
  virtual int32_t KeyAtRank(double rank) const noexcept;

  /// Like KeyAtRank but scanning downward from the highest index: the
  /// largest index i such that the cumulative count of buckets >= i exceeds
  /// `rank`. Used by the negative-value sketch, whose index order is the
  /// reverse of the value order.
  virtual int32_t KeyAtRankDescending(double rank) const noexcept;

  /// Total count of buckets with index <= `index` (the inverse of
  /// KeyAtRank; backs the sketch's rank/CDF queries).
  virtual uint64_t CumulativeCount(int32_t index) const noexcept;

  /// Bytes of live memory retained (buffers + bookkeeping), the quantity
  /// plotted in Figure 6.
  virtual size_t size_in_bytes() const noexcept = 0;

  /// Resets to empty without releasing capacity.
  virtual void Clear() noexcept = 0;

  /// Deep copy.
  virtual std::unique_ptr<Store> Clone() const = 0;

  /// The strategy tag (serialization).
  virtual StoreType type() const noexcept = 0;

  /// Upper bound on buckets (contiguous span for dense collapsing stores,
  /// non-empty count for bounded sparse stores); 0 means unbounded.
  virtual int32_t max_num_buckets() const noexcept { return 0; }

  /// Factory. `max_num_buckets` is required (> 0) for collapsing stores,
  /// optional (0 = unbounded) for sparse, ignored for unbounded dense.
  static Result<std::unique_ptr<Store>> Create(StoreType type,
                                               int32_t max_num_buckets);
};

/// `hi - lo` for two bucket indices, in 64 bits, so that no span check
/// overflows: INT32_MAX - INT32_MIN is 2^32 - 1. Every dense store's span
/// arithmetic goes through here.
inline int64_t IndexSpan(int32_t lo, int32_t hi) noexcept {
  return static_cast<int64_t>(hi) - lo;
}

/// Contiguous counter array over [offset, offset + counts.size()), growing
/// in both directions in chunks. Base class of the three dense variants.
class DenseStore : public Store {
 public:
  void Add(int32_t index, uint64_t count) override;

  /// The branchless in-range fast path of Add, non-virtual and inline so
  /// DDSketch's devirtualized insert can call it directly: succeeds iff
  /// `index` lands in the already-allocated array without growing it or
  /// collapsing (the steady state once the working span is warm), doing
  /// exactly what Add would do in that case. Returns false — with the
  /// store untouched — when the caller must fall back to virtual Add.
  bool TryAddFast(int32_t index, uint64_t count) noexcept {
    const int64_t slot = static_cast<int64_t>(index) - offset_;
    if (total_count_ == 0 || slot < 0 ||
        slot >= static_cast<int64_t>(counts_.size())) {
      return false;
    }
    // Conditional moves, not branches: min/max tracking and the span-cap
    // check compile without a data-dependent jump.
    const int32_t lo = index < min_index_ ? index : min_index_;
    const int32_t hi = index > max_index_ ? index : max_index_;
    if (static_cast<int64_t>(hi) - lo >= span_cap_) return false;
    counts_[static_cast<size_t>(slot)] += count;
    total_count_ += count;
    min_index_ = lo;
    max_index_ = hi;
    return true;
  }

  /// The batch form of TryAddFast: adds 1 to each bucket of `indices` in
  /// order, keeping the count/extreme bookkeeping in registers for the
  /// whole run instead of round-tripping it through memory per value.
  /// Stops at the first index that would need growth or collapse and
  /// returns how many indices were consumed; the caller routes that one
  /// through virtual Add and resumes.
  size_t TryAddFastRun(std::span<const int32_t> indices) noexcept {
    if (total_count_ == 0) return 0;
    const int64_t cap = span_cap_;
    const int64_t offset = offset_;
    const int64_t slots = static_cast<int64_t>(counts_.size());
    uint64_t* const counts = counts_.data();
    int32_t lo = min_index_, hi = max_index_;
    size_t i = 0;
    for (; i < indices.size(); ++i) {
      const int32_t index = indices[i];
      const int64_t slot = static_cast<int64_t>(index) - offset;
      if (slot < 0 || slot >= slots) break;
      const int32_t nlo = index < lo ? index : lo;
      const int32_t nhi = index > hi ? index : hi;
      if (static_cast<int64_t>(nhi) - nlo >= cap) break;
      ++counts[slot];
      lo = nlo;
      hi = nhi;
    }
    total_count_ += i;
    min_index_ = lo;
    max_index_ = hi;
    return i;
  }

  /// Dense-to-dense merges add the counter arrays directly (one pass, no
  /// per-bucket virtual dispatch) whenever the combined span fits without
  /// collapsing; otherwise falls back to the generic bucket walk.
  void MergeFrom(const Store& other) override;

  /// MergeFrom's direct path, for a source the caller walks itself (an
  /// encoded bucket block, DDSketch::MergeEncoded): when the source's
  /// buckets [lo, hi] fit beside this store's without collapsing, grows
  /// to cover them, counts `total` in and returns true; the caller then
  /// adds every source bucket through AddInSpan. Returns false, with the
  /// store untouched, when the merge would collapse: the caller must then
  /// add bucket by bucket, in ascending order, through Add.
  bool ReserveMergeSpan(int32_t lo, int32_t hi, uint64_t total);

  /// Adds to a bucket of a span ReserveMergeSpan reserved (its total is
  /// already counted).
  void AddInSpan(int32_t index, uint64_t count) {
    counts_[static_cast<size_t>(index - offset_)] += count;
  }
  uint64_t Remove(int32_t index, uint64_t count) override;
  uint64_t total_count() const noexcept override { return total_count_; }
  int32_t min_index() const noexcept override;
  int32_t max_index() const noexcept override;
  size_t num_buckets() const noexcept override;
  bool ForEach(BucketVisitor fn) const override;
  bool ForEachDescending(BucketVisitor fn) const override;
  int32_t KeyAtRank(double rank) const noexcept override;
  int32_t KeyAtRankDescending(double rank) const noexcept override;
  uint64_t CumulativeCount(int32_t index) const noexcept override;
  size_t size_in_bytes() const noexcept override;
  void Clear() noexcept override;

 protected:
  /// Returns the array slot for `index`, growing or collapsing as needed;
  /// a negative return means the add must be redirected to the slot
  /// ~returned (collapsed boundary bucket).
  virtual size_t SlotFor(int32_t index) = 0;

  /// Where Remove must look for `index` given the current collapse state:
  /// collapsing stores redirect indices beyond the fold boundary to the
  /// boundary bucket, exactly mirroring where Add would land them now.
  virtual int32_t RemoveTarget(int32_t index) const noexcept { return index; }

  /// Grows `counts_` so that [new_min, new_max] fits, preserving contents.
  void Extend(int32_t new_min, int32_t new_max);

  /// Re-bases `counts_` onto [lo, hi], the window a fold leaves, keeping
  /// the counts inside it: the caller has folded every count outside it
  /// into it first. A no-op when the array covers the window; otherwise
  /// the new array spans the window plus one growth chunk on the side it
  /// slides toward (above it when `up`), so a collapsing store's array
  /// stays O(max_num_buckets) however far apart its adds.
  void Rebase(int32_t lo, int32_t hi, bool up);

  /// True iff holding the contiguous span [lo, hi] requires no collapse.
  virtual bool SpanFits(int32_t lo, int32_t hi) const noexcept {
    (void)lo;
    (void)hi;
    return true;
  }

  std::vector<uint64_t> counts_;
  int32_t offset_ = 0;          // counts_[i] holds bucket offset_ + i
  uint64_t total_count_ = 0;
  int32_t min_index_ = 0;       // valid iff total_count_ > 0
  int32_t max_index_ = 0;       // valid iff total_count_ > 0
  // Whether any add has ever been folded since construction or Clear();
  // set by the collapsing subclasses' SlotFor, reset by Clear() (which is
  // why it lives here), always false for the unbounded store. Gates the
  // Remove fold redirect: only a store that actually lost information may
  // redirect beyond-the-fold removals into the boundary bucket.
  bool has_collapsed_ = false;
  // The boundary bucket of the most recent fold (valid iff has_collapsed_):
  // where all folded mass currently sits, recorded at collapse time rather
  // than derived from the live window — removes can shrink max_index_/
  // min_index_ afterwards, which must not strand the folded mass.
  int32_t fold_index_ = 0;
  // Max contiguous live span TryAddFast may produce without consulting
  // SlotFor (collapsing subclasses set their bucket cap; unbounded stores
  // never cap). Mirrors SpanFits, hoisted into a plain field so the fast
  // path reads it without a virtual call.
  int64_t span_cap_ = std::numeric_limits<int64_t>::max();
};

/// DenseStore with no size bound (the paper's basic sketch storage).
class UnboundedDenseStore final : public DenseStore {
 public:
  UnboundedDenseStore() = default;
  StoreType type() const noexcept override {
    return StoreType::kUnboundedDense;
  }
  std::unique_ptr<Store> Clone() const override {
    return std::make_unique<UnboundedDenseStore>(*this);
  }

 protected:
  size_t SlotFor(int32_t index) override;
};

/// DenseStore whose contiguous span is capped at `max_num_buckets`; indices
/// below max_index - max_num_buckets + 1 are folded into that lowest kept
/// bucket. This keeps exactly the invariant Proposition 4 needs.
class CollapsingLowestDenseStore final : public DenseStore {
 public:
  explicit CollapsingLowestDenseStore(int32_t max_num_buckets)
      : max_num_buckets_(max_num_buckets) {
    span_cap_ = max_num_buckets;
  }
  StoreType type() const noexcept override {
    return StoreType::kCollapsingLowestDense;
  }
  int32_t max_num_buckets() const noexcept override {
    return max_num_buckets_;
  }
  std::unique_ptr<Store> Clone() const override {
    return std::make_unique<CollapsingLowestDenseStore>(*this);
  }
  /// True iff any add has ever been folded (collapsed) — quantiles below
  /// the fold boundary lose their accuracy guarantee.
  bool has_collapsed() const noexcept { return has_collapsed_; }

 protected:
  size_t SlotFor(int32_t index) override;
  int32_t RemoveTarget(int32_t index) const noexcept override {
    // Redirect only an index that (a) lies outside the live window — an
    // in-window bucket is always the right target, including mass added
    // below the fold bucket after removals shrank the window — and
    // (b) sits beyond a fold that actually happened; before any fold, a
    // below-window index was simply never added (a lossless store must
    // reject, not drain a different value's bucket). The recorded fold
    // bucket — not a boundary recomputed from the live window — is where
    // folded mass actually lives.
    if (total_count_ == 0 || !has_collapsed_ || index >= min_index_) {
      return index;
    }
    return index < fold_index_ ? fold_index_ : index;
  }
  bool SpanFits(int32_t lo, int32_t hi) const noexcept override {
    return IndexSpan(lo, hi) < max_num_buckets_;
  }

 private:
  int32_t max_num_buckets_;
};

/// Mirror of CollapsingLowestDenseStore: folds the *highest* indices
/// downward. Used by the negative sketch, where high indices correspond to
/// large magnitudes, i.e. the most-negative values (§2.2).
class CollapsingHighestDenseStore final : public DenseStore {
 public:
  explicit CollapsingHighestDenseStore(int32_t max_num_buckets)
      : max_num_buckets_(max_num_buckets) {
    span_cap_ = max_num_buckets;
  }
  StoreType type() const noexcept override {
    return StoreType::kCollapsingHighestDense;
  }
  int32_t max_num_buckets() const noexcept override {
    return max_num_buckets_;
  }
  std::unique_ptr<Store> Clone() const override {
    return std::make_unique<CollapsingHighestDenseStore>(*this);
  }
  bool has_collapsed() const noexcept { return has_collapsed_; }

 protected:
  size_t SlotFor(int32_t index) override;
  int32_t RemoveTarget(int32_t index) const noexcept override {
    if (total_count_ == 0 || !has_collapsed_ || index <= max_index_) {
      return index;
    }
    return index > fold_index_ ? fold_index_ : index;
  }
  bool SpanFits(int32_t lo, int32_t hi) const noexcept override {
    return IndexSpan(lo, hi) < max_num_buckets_;
  }

 private:
  int32_t max_num_buckets_;
};

/// Ordered-map store: memory proportional to *non-empty* buckets. When
/// `max_num_buckets` > 0, enforces the paper-literal Algorithm 3 bound on
/// the number of non-empty buckets by merging the two lowest non-empty
/// buckets whenever the bound is exceeded.
class SparseStore final : public Store {
 public:
  explicit SparseStore(int32_t max_num_buckets = 0)
      : max_num_buckets_(max_num_buckets) {}

  void Add(int32_t index, uint64_t count) override;
  uint64_t Remove(int32_t index, uint64_t count) override;
  uint64_t total_count() const noexcept override { return total_count_; }
  int32_t min_index() const noexcept override;
  int32_t max_index() const noexcept override;
  size_t num_buckets() const noexcept override { return counts_.size(); }
  bool ForEach(BucketVisitor fn) const override;
  bool ForEachDescending(BucketVisitor fn) const override;
  size_t size_in_bytes() const noexcept override;
  void Clear() noexcept override;
  StoreType type() const noexcept override { return StoreType::kSparse; }
  int32_t max_num_buckets() const noexcept override {
    return max_num_buckets_;
  }
  std::unique_ptr<Store> Clone() const override {
    return std::make_unique<SparseStore>(*this);
  }

 private:
  void CollapseIfNeeded();

  std::map<int32_t, uint64_t> counts_;
  uint64_t total_count_ = 0;
  int32_t max_num_buckets_;
};

}  // namespace dd

#endif  // DDSKETCH_CORE_STORE_H_
