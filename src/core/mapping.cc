#include "core/mapping.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "util/bits.h"

namespace dd {
namespace {

// Polynomial coefficients for the interpolated mappings (shared with the
// insert fast path as dd::log2poly, mapping.h). Each P maps [0, 1] -> [0, 1]
// monotonically with P(0)=0, P(1)=1 and approximates log2(1+u). The
// bucket-count overhead factor of an approximation is
//   c = max_{u in [0,1)} 1 / ((1+u) * ln2 * P'(u)),
// i.e. how much the worst-case derivative of true log2 w.r.t. the
// approximate log exceeds 1. The coefficients maximize min (1+u) P'(u)
// subject to P(1)=1 within their degree class:
//
//   linear     P(u) = u                          min (1+u)P'(u) = 1
//   quadratic  P(u) = (4u - u^2) / 3             min = 4/3
//   cubic      P(u) = (6u^3 - 21u^2 + 50u) / 35  min = 10/7
//
// giving overheads c = 1/ln2 (~1.4427), 3/(4 ln2) (~1.0820) and
// 7/(10 ln2) (~1.0096) respectively.
constexpr double kLn2 = 0.6931471805599453;

double SafeMaxIndexable(double gamma) {
  return std::numeric_limits<double>::max() / (2.0 * gamma);
}

double SafeMinIndexable() {
  // 4x the smallest normal double: keeps LowerBound()/Value() of every
  // valid index inside the normal range where the significand bit tricks
  // of the interpolated mappings are exact.
  return std::numeric_limits<double>::min() * 4.0;
}

double Gamma(double alpha) { return (1.0 + alpha) / (1.0 - alpha); }

}  // namespace

const char* MappingTypeToString(MappingType type) {
  switch (type) {
    case MappingType::kLogarithmic:
      return "log";
    case MappingType::kLinearInterpolated:
      return "linear";
    case MappingType::kQuadraticInterpolated:
      return "quadratic";
    case MappingType::kCubicInterpolated:
      return "cubic";
  }
  return "unknown";
}

IndexMapping::IndexMapping(MappingType type, double relative_accuracy,
                           double multiplier, double min_indexable,
                           double max_indexable) noexcept
    : params_{type, multiplier, min_indexable, max_indexable},
      relative_accuracy_(relative_accuracy),
      gamma_(Gamma(relative_accuracy)) {}

bool IndexMapping::IsCompatibleWith(MappingType type,
                                    double relative_accuracy) const noexcept {
  return this->type() == type && gamma_ == Gamma(relative_accuracy);
}

namespace {

/// index = ceil(log_gamma(x)): the paper's memory-optimal mapping
/// (Algorithm 1). Bucket i covers (gamma^(i-1), gamma^i].
class LogarithmicMapping final : public IndexMapping {
 public:
  explicit LogarithmicMapping(double alpha)
      : LogarithmicMapping(alpha, std::log1p(2.0 * alpha / (1.0 - alpha))) {}

  double LowerBound(int32_t index) const noexcept override {
    return std::exp((static_cast<double>(index) - 1.0) * log_gamma_);
  }

  std::unique_ptr<IndexMapping> Clone() const override {
    return std::make_unique<LogarithmicMapping>(relative_accuracy());
  }

 private:
  // Delegation computes log(gamma) once: it both seeds the insert-path
  // multiplier (its reciprocal) and stays around for LowerBound.
  LogarithmicMapping(double alpha, double log_gamma)
      : IndexMapping(MappingType::kLogarithmic, alpha,
                     /*multiplier=*/1.0 / log_gamma, SafeMinIndexable(),
                     SafeMaxIndexable(Gamma(alpha))),
        log_gamma_(log_gamma) {}

  double log_gamma_;
};

/// Common machinery for the "fast" mappings: an approximate log2
/// l(x) = exponent(x) + P(significand(x) - 1), evaluated with pure bit
/// extraction plus a small polynomial, and a multiplier inflated by the
/// overhead factor c so the alpha guarantee still holds. The forward
/// direction (Index) lives entirely in FastIndex (mapping.h); subclasses
/// only supply the inverse polynomial for the query side.
template <typename Derived>
class InterpolatedMapping : public IndexMapping {
 public:
  InterpolatedMapping(MappingType type, double alpha, double overhead)
      : IndexMapping(type, alpha,
                     /*multiplier=*/overhead / std::log2(Gamma(alpha)),
                     SafeMinIndexable(), SafeMaxIndexable(Gamma(alpha))) {}

  double LowerBound(int32_t index) const noexcept override {
    // Bucket i covers approx-log2 values in ((i-1)/m, i/m].
    const double t =
        (static_cast<double>(index) - 1.0) / fast_params().multiplier;
    const double e = std::floor(t);
    const double u = Derived::PolyInverse(t - e);
    return std::ldexp(1.0 + u, static_cast<int>(e));
  }

  std::unique_ptr<IndexMapping> Clone() const override {
    return std::make_unique<Derived>(relative_accuracy());
  }
};

class LinearInterpolatedMapping final
    : public InterpolatedMapping<LinearInterpolatedMapping> {
 public:
  explicit LinearInterpolatedMapping(double alpha)
      : InterpolatedMapping(MappingType::kLinearInterpolated, alpha,
                            /*overhead=*/1.0 / kLn2) {}

  static double PolyInverse(double w) noexcept { return w; }
};

class QuadraticInterpolatedMapping final
    : public InterpolatedMapping<QuadraticInterpolatedMapping> {
 public:
  explicit QuadraticInterpolatedMapping(double alpha)
      : InterpolatedMapping(MappingType::kQuadraticInterpolated, alpha,
                            /*overhead=*/3.0 / (4.0 * kLn2)) {}

  // Solve (4u - u^2)/3 = w for u in [0,1]: u^2 - 4u + 3w = 0.
  static double PolyInverse(double w) noexcept {
    return 2.0 - std::sqrt(4.0 - 3.0 * w);
  }
};

class CubicInterpolatedMapping final
    : public InterpolatedMapping<CubicInterpolatedMapping> {
 public:
  explicit CubicInterpolatedMapping(double alpha)
      : InterpolatedMapping(MappingType::kCubicInterpolated, alpha,
                            /*overhead=*/7.0 / (10.0 * kLn2)) {}

  // Inverts the monotone cubic on [0,1] by Newton iteration. P' >= 26/35 on
  // [0,1], so convergence is quadratic from any interior start; this is only
  // used on the query path (LowerBound/Value), never on insertion.
  static double PolyInverse(double w) noexcept {
    double u = w;  // P is close to the identity; w is an excellent start
    for (int iter = 0; iter < 32; ++iter) {
      const double f = log2poly::Cubic(u) - w;
      const double fp = (3.0 * log2poly::kCubicA * u + 2.0 * log2poly::kCubicB) *
                            u +
                        log2poly::kCubicC;
      const double step = f / fp;
      u -= step;
      if (std::abs(step) < 1e-16) break;
    }
    if (u < 0.0) u = 0.0;
    if (u > 1.0) u = 1.0;
    return u;
  }
};

}  // namespace

Result<std::unique_ptr<IndexMapping>> IndexMapping::Create(
    MappingType type, double relative_accuracy) {
  if (!(relative_accuracy > 0.0) || !(relative_accuracy < 1.0)) {
    return Status::InvalidArgument(
        "relative_accuracy must be in (0, 1), got " +
        std::to_string(relative_accuracy));
  }
  switch (type) {
    case MappingType::kLogarithmic:
      return std::unique_ptr<IndexMapping>(
          std::make_unique<LogarithmicMapping>(relative_accuracy));
    case MappingType::kLinearInterpolated:
      return std::unique_ptr<IndexMapping>(
          std::make_unique<LinearInterpolatedMapping>(relative_accuracy));
    case MappingType::kQuadraticInterpolated:
      return std::unique_ptr<IndexMapping>(
          std::make_unique<QuadraticInterpolatedMapping>(relative_accuracy));
    case MappingType::kCubicInterpolated:
      return std::unique_ptr<IndexMapping>(
          std::make_unique<CubicInterpolatedMapping>(relative_accuracy));
  }
  return Status::InvalidArgument("unknown mapping type");
}

}  // namespace dd
