// Shared experiment configuration for the figure/table harnesses.
//
// Table 2 of the paper:
//   DDSketch        alpha = 0.01, m = 2048
//   HDR Histogram   d = 2 significant decimal digits
//   GKArray         epsilon = 0.01
//   Moments sketch  k = 20, arcsinh compression enabled
//
// The "DDSketch (fast)" series uses the linearly-interpolated mapping
// (pure bit-trick log2, cheapest polynomial): the fastest insertion at the
// cost of ~1.44x the buckets — matching the paper's "DDSketch (fast) can be
// up to twice the size of DDSketch" (§4.2). The quadratic/cubic variants
// sit between the two; see bench_ablation_mappings.
//
// Stream sizes: the paper sweeps n up to 1e8 (1e6 for power, which is the
// size of the original UCI data set). The default grids here stop at 1e7 so
// the full harness finishes in minutes; set DD_BENCH_FULL=1 to extend to
// the paper's maxima.

#ifndef DDSKETCH_BENCH_COMMON_PARAMS_H_
#define DDSKETCH_BENCH_COMMON_PARAMS_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/ddsketch.h"
#include "data/datasets.h"
#include "gk/gkarray.h"
#include "hdr/hdr_histogram.h"
#include "moments/moment_sketch.h"

namespace dd::bench {

inline constexpr double kDDSketchAlpha = 0.01;
inline constexpr int32_t kDDSketchMaxBuckets = 2048;
inline constexpr int kHdrSignificantDigits = 2;
inline constexpr double kGKEpsilon = 0.01;
inline constexpr int kMomentsK = 20;
inline constexpr bool kMomentsCompress = true;

/// The quantiles reported throughout Section 4.
inline constexpr double kQuantiles[] = {0.5, 0.95, 0.99};

/// True when DD_BENCH_FULL=1: run the paper's full n grids.
inline bool FullScale() {
  const char* env = std::getenv("DD_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// True when DD_BENCH_SMOKE=1: shrink the grids further (CI's perf
/// checks, which compare ratios within one run, not paper-scale curves).
inline bool SmokeScale() {
  const char* env = std::getenv("DD_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// n grid per data set (powers of ten, paper x-axes).
inline std::vector<size_t> SizeGrid(DatasetId id) {
  const size_t cap = id == DatasetId::kPower
                         ? 1000000  // the UCI data set has ~2M rows
                         : (FullScale() ? 100000000 : 10000000);
  std::vector<size_t> grid;
  for (size_t n = 1000; n <= cap; n *= 10) grid.push_back(n);
  return grid;
}

/// HDR needs its range declared up front; these cover each data set
/// (the very up-front knowledge DDSketch does not need — see Table 1).
inline HdrDoubleHistogram MakeHdrFor(DatasetId id) {
  double lo = 1.0, hi = 1e9;
  switch (id) {
    case DatasetId::kPareto:
      lo = 1.0;
      hi = 1e12;
      break;
    case DatasetId::kSpan:
      lo = 100.0;
      hi = 1.9e12;
      break;
    case DatasetId::kPower:
      lo = 0.076;
      hi = 11.122;
      break;
    case DatasetId::kWebLatency:
      lo = 1e-3;
      hi = 1e5;
      break;
  }
  return std::move(HdrDoubleHistogram::Create(kHdrSignificantDigits, lo, hi))
      .value();
}

inline DDSketch MakeDDSketch() {
  return std::move(DDSketch::Create(kDDSketchAlpha, kDDSketchMaxBuckets))
      .value();
}

inline DDSketch MakeDDSketchFast() {
  DDSketchConfig config;
  config.relative_accuracy = kDDSketchAlpha;
  config.mapping = MappingType::kLinearInterpolated;
  config.max_num_buckets = kDDSketchMaxBuckets;
  return std::move(DDSketch::Create(config)).value();
}

inline GKArray MakeGK() { return std::move(GKArray::Create(kGKEpsilon)).value(); }

inline MomentSketch MakeMoments() {
  return std::move(MomentSketch::Create(kMomentsK, kMomentsCompress)).value();
}

}  // namespace dd::bench

#endif  // DDSKETCH_BENCH_COMMON_PARAMS_H_
