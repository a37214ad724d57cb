// Index mappings: the bucket-boundary schemes of DDSketch (paper §2.1, §4).
//
// A mapping assigns every positive value x to an integer bucket index such
// that all values sharing a bucket are within a factor gamma = (1+a)/(1-a)
// of each other, which is exactly what is needed for the bucket midpoint
// (harmonic midpoint, see Value()) to be an a-accurate representative
// (Lemma 2 of the paper).
//
// Four mappings are provided:
//  * kLogarithmic            — index = ceil(log_gamma(x)); memory-optimal
//                              (fewest buckets for a given accuracy), but
//                              each insertion computes a log.
//  * kLinearInterpolated     — extracts the IEEE-754 exponent (a free
//  * kQuadraticInterpolated    log2) and approximates log2 within the
//  * kCubicInterpolated        [1,2) significand range with a degree-1/2/3
//                              polynomial. Faster to evaluate; needs more
//                              buckets (~44% / ~8.2% / ~1.0% more) to keep
//                              the same guarantee. The paper's "DDSketch
//                              (fast)" uses these (§4: "mappings [that]
//                              make the most of the binary representation
//                              of floating-point values").
//
// Polynomial overhead factors (derivations in mapping.cc): a mapping whose
// approximate log l(x) satisfies d(log2 x)/d(l) <= c implies the bucket
// count is c times that of an exact log2 mapping. Linear: c = 1/ln2.
// Quadratic: c = 3/(4 ln2). Cubic: c = 7/(10 ln2).
//
// Index() is deliberately NON-virtual: every scheme reduces to the same
// shape — scale an (approximate) logarithm by a precomputed multiplier and
// take the ceiling — so the whole insert-side contract of a mapping is a
// four-field POD (FastIndexParams) plus one inline enum switch (FastIndex).
// DDSketch snapshots the POD at construction and indexes values with zero
// virtual dispatch; the polymorphic interface only covers the query side
// (LowerBound) and lifecycle (Clone).

#ifndef DDSKETCH_CORE_MAPPING_H_
#define DDSKETCH_CORE_MAPPING_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "util/bits.h"
#include "util/status.h"

namespace dd {

/// Identifies a mapping scheme; stable values used in serialization.
enum class MappingType : uint8_t {
  kLogarithmic = 0,
  kLinearInterpolated = 1,
  kQuadraticInterpolated = 2,
  kCubicInterpolated = 3,
};

/// Returns a stable human-readable name ("log", "linear", ...).
const char* MappingTypeToString(MappingType type);

/// Polynomial approximations of log2(1+u) on [0,1] used by the
/// interpolated mappings; each maps [0,1] -> [0,1] monotonically with
/// P(0)=0, P(1)=1 (coefficient derivations in mapping.cc). Shared between
/// the fast insert path and the mappings' own query-side inverses so the
/// two can never disagree.
namespace log2poly {
inline constexpr double kCubicA = 6.0 / 35.0;
inline constexpr double kCubicB = -3.0 / 5.0;
inline constexpr double kCubicC = 10.0 / 7.0;

inline double Linear(double u) noexcept { return u; }
inline double Quadratic(double u) noexcept { return (4.0 - u) * u / 3.0; }
inline double Cubic(double u) noexcept {
  return ((kCubicA * u + kCubicB) * u + kCubicC) * u;
}
}  // namespace log2poly

/// Everything the insert path needs from a mapping, as plain data: an enum
/// plus three doubles reproduce Index() exactly with zero virtual calls.
/// The bounds ride along so DDSketch::Add can hoist its zero-bucket and
/// clamp comparisons out of the pointer chase entirely.
struct FastIndexParams {
  MappingType type = MappingType::kLogarithmic;
  /// Scales the (approximate) log to a bucket index. Natural-log scale
  /// (1/ln gamma) for kLogarithmic; log2 scale inflated by the polynomial
  /// overhead factor (c/log2 gamma) for the interpolated schemes.
  double multiplier = 0.0;
  double min_indexable = 0.0;
  double max_indexable = 0.0;
};

/// The bucket index of positive value x when the mapping type is known at
/// compile time: the innermost form, used by the batch insert loops so
/// the scheme dispatch happens once per batch instead of once per value.
/// Precondition: min_indexable <= x <= max_indexable.
template <MappingType kType>
inline int32_t FastIndexT(double multiplier, double value) noexcept {
  double approx_log;
  if constexpr (kType == MappingType::kLogarithmic) {
    approx_log = std::log(value);
  } else {
    const double u = GetSignificandPlusOne(value) - 1.0;
    double poly;
    if constexpr (kType == MappingType::kLinearInterpolated) {
      poly = log2poly::Linear(u);
    } else if constexpr (kType == MappingType::kQuadraticInterpolated) {
      poly = log2poly::Quadratic(u);
    } else {
      poly = log2poly::Cubic(u);
    }
    approx_log = static_cast<double>(GetExponent(value)) + poly;
  }
  return static_cast<int32_t>(std::ceil(approx_log * multiplier));
}

/// The bucket index of positive value x under `params`: the one shared
/// implementation of every mapping's Index().
/// Precondition: min_indexable <= x <= max_indexable.
inline int32_t FastIndex(const FastIndexParams& params, double value) noexcept {
  switch (params.type) {
    case MappingType::kLinearInterpolated:
      return FastIndexT<MappingType::kLinearInterpolated>(params.multiplier,
                                                          value);
    case MappingType::kQuadraticInterpolated:
      return FastIndexT<MappingType::kQuadraticInterpolated>(params.multiplier,
                                                             value);
    case MappingType::kCubicInterpolated:
      return FastIndexT<MappingType::kCubicInterpolated>(params.multiplier,
                                                         value);
    case MappingType::kLogarithmic:
    default:
      return FastIndexT<MappingType::kLogarithmic>(params.multiplier, value);
  }
}

/// Maps positive doubles to integer bucket indices and back, guaranteeing
/// that Value(Index(x)) is within relative_accuracy() of x for any x in
/// [min_indexable_value(), max_indexable_value()].
///
/// Implementations are immutable and thread-safe after construction.
class IndexMapping {
 public:
  virtual ~IndexMapping() = default;

  /// The bucket index of positive value x. Non-virtual: one enum switch
  /// over precomputed constants (see FastIndex above).
  /// Precondition: min_indexable_value() <= x <= max_indexable_value().
  int32_t Index(double value) const noexcept {
    return FastIndex(params_, value);
  }

  /// The insert-path snapshot of this mapping (see FastIndexParams).
  const FastIndexParams& fast_params() const noexcept { return params_; }

  /// The infimum of the values mapped to `index` (bucket i covers
  /// (LowerBound(i), LowerBound(i+1)]).
  virtual double LowerBound(int32_t index) const noexcept = 0;

  /// The representative value of bucket `index`: the harmonic midpoint
  /// 2*a*b/(a+b) of the bucket boundaries (a, b], which is the point
  /// minimizing the worst-case relative error over the bucket. Equals the
  /// paper's 2*gamma^i/(gamma+1) for the logarithmic mapping.
  double Value(int32_t index) const noexcept {
    // Computed in ratio form lo * 2r/(1+r), r = hi/lo (~gamma), so that
    // neither lo*hi nor lo+hi can underflow or overflow at the extremes of
    // the double range.
    const double lo = LowerBound(index);
    const double ratio = LowerBound(index + 1) / lo;
    return lo * (2.0 * ratio / (1.0 + ratio));
  }

  /// The accuracy parameter alpha this mapping guarantees.
  double relative_accuracy() const noexcept { return relative_accuracy_; }

  /// gamma = (1 + alpha) / (1 - alpha): max ratio between two values in one
  /// bucket. Two sketches are mergeable iff their gammas (and mapping types)
  /// match.
  double gamma() const noexcept { return gamma_; }

  /// Smallest positive value with a valid index (values below go to the
  /// sketch's zero bucket). Chosen so indices stay within int32 and the
  /// significand bit tricks stay in the normal range.
  double min_indexable_value() const noexcept { return params_.min_indexable; }
  /// Largest value with a valid index.
  double max_indexable_value() const noexcept { return params_.max_indexable; }

  /// The scheme identifier (serialization tag).
  MappingType type() const noexcept { return params_.type; }

  /// Deep copy.
  virtual std::unique_ptr<IndexMapping> Clone() const = 0;

  /// True iff `other` produces identical indices (same type and gamma).
  bool IsCompatibleWith(const IndexMapping& other) const noexcept {
    return type() == other.type() && gamma_ == other.gamma_;
  }

  /// True iff Create(type, relative_accuracy) would produce identical
  /// indices, checked without building it (a payload's header declares
  /// both).
  bool IsCompatibleWith(MappingType type,
                        double relative_accuracy) const noexcept;

  /// Factory. Fails with InvalidArgument unless 0 < relative_accuracy < 1.
  static Result<std::unique_ptr<IndexMapping>> Create(
      MappingType type, double relative_accuracy);

 protected:
  IndexMapping(MappingType type, double relative_accuracy, double multiplier,
               double min_indexable, double max_indexable) noexcept;

 private:
  FastIndexParams params_;
  double relative_accuracy_;
  double gamma_;
};

}  // namespace dd

#endif  // DDSKETCH_CORE_MAPPING_H_
