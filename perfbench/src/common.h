// Shared helpers of the sketchd load generator: the run clock, sample
// statistics, the metric sink, and the error type that aborts a run.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Anything that makes a run unusable (sketchd will not start, a
/// connection drops, a file cannot be read). main() reports it on stderr
/// and exits non-zero without printing a result line.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void Check(const dd::Status& status, const std::string& what) {
  if (!status.ok()) throw BenchError(what + ": " + status.ToString());
}

template <typename T>
T Check(dd::Result<T> result, const std::string& what) {
  if (!result.ok()) throw BenchError(what + ": " + result.status().ToString());
  return std::move(result).value();
}

/// The q-quantile of a sample, interpolating linearly between order
/// statistics (numpy's default). 0 for an empty sample.
inline double Quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (sample[hi] - sample[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> sample) {
  return Quantile(std::move(sample), 0.5);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in the order they were added; printed as a table and as the
/// result line's "metrics" object.
using Metrics = std::vector<Metric>;

inline void Add(Metrics* metrics, std::string name, double value,
                std::string unit) {
  metrics->push_back({std::move(name), value, std::move(unit)});
}

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
