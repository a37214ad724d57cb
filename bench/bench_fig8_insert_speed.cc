// Figure 8: average time to add a value, per sketch, as n grows (pareto
// data). Expected ordering (paper): GKArray slowest by far; Moments and
// HDR fast; DDSketch (fast) fastest; DDSketch (log mapping) pays for the
// logarithm.
//
// Beyond the paper's series, the harness measures the repo's batch insert
// path (DDSketch::AddBatch) for both mappings: the form the serving stack
// actually uses.
//
// Every row adds the same number of values, the sweep's largest n, as
// largest-n / n fresh sketches of n values each. Each row therefore spans
// a similar stretch of wall time and sees the same share of a contended
// core. Each cell is the median of kPasses passes over the whole sweep,
// so one slow stretch of the host moves no cell. Both keep the ratios
// below steady on a busy host.
//
// Two checks compare numbers taken in this run, so the verdict does not
// depend on how fast the host is. The bench exits 1 when one fails:
//
//   batching  AddBatch under DDSketchConfig::reference_insert_path (the
//             per-value virtual store path) must take at least
//             kMinBatchingRatio times as long as the default AddBatch, for
//             the log and the cubic mapping, at the smallest n (see
//             BatchingRatio). Catches a lost devirtualized batch path.
//             Batch against scalar Add would not: scalar Add shares that
//             path, so losing it slows both sides.
//   scaling   every column's ns/add at the largest n stays within
//             kMaxGrowth of its smallest-n value. Catches a per-add cost
//             that grows with n: an O(n) step in AddBatch read 6-11x across
//             the smoke sweep, against at most 1.7x without it.
//
// Neither catches a constant-factor slowdown on one host; perfbench's
// alternating parent/change pairs own that.
//
// DD_BENCH_SMOKE=1 caps the sweep at n = 1e6 (the CI scale);
// DD_BENCH_FULL=1 extends it to the paper's 1e8.
//
// Values are pre-generated so the measured loop is sketch work only.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/params.h"
#include "bench/common/table.h"
#include "data/datasets.h"

namespace dd::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMinN = 100000;
constexpr size_t kBatch = 1024;  // values per AddBatch call
constexpr int kPasses = 3;
constexpr int kBatchingReps = 5;
// Reference ÷ default read 1.57-2.46 over 50 runs on a 4-core x86 host
// (pinned to an idle core, pinned beside a busy loop, or unpinned), and
// 0.95-1.01 with the default path forced onto the reference one.
constexpr double kMinBatchingRatio = 1.25;
constexpr double kMaxGrowth = 3.0;

double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Nanoseconds to add `values` to a fresh sketch from `make`, one `add`
/// call per value.
template <typename Make, typename Add>
double TimeAdds(Make make, Add add, std::span<const double> values) {
  auto sketch = make();
  const auto start = Clock::now();
  for (double v : values) add(sketch, v);
  return NanosSince(start);
}

/// Nanoseconds to stream `values` through AddBatch in kBatch-value calls
/// (the server's commit size) rather than one call per value.
double TimeBatchAdds(DDSketch sketch, std::span<const double> values) {
  const auto start = Clock::now();
  for (size_t i = 0; i < values.size(); i += kBatch) {
    sketch.AddBatch(values.subspan(i, std::min(kBatch, values.size() - i)));
  }
  return NanosSince(start);
}

DDSketch MakeSketch(MappingType mapping, bool reference_insert_path) {
  DDSketchConfig config;
  config.relative_accuracy = kDDSketchAlpha;
  config.mapping = mapping;
  config.max_num_buckets = kDDSketchMaxBuckets;
  config.reference_insert_path = reference_insert_path;
  return std::move(DDSketch::Create(config)).value();
}

/// Reference ÷ default AddBatch cost on `values`: the median of
/// kBatchingReps repetitions. Each streams `values` into one fresh sketch
/// per path, alternating the paths call by call so that both see the same
/// host, and compares the paths' median call times, which a preempted
/// call does not move.
double BatchingRatio(MappingType mapping, std::span<const double> values) {
  std::vector<double> ratios;
  for (int rep = 0; rep < kBatchingReps; ++rep) {
    DDSketch fast = MakeSketch(mapping, false);
    DDSketch reference = MakeSketch(mapping, true);
    std::vector<double> fast_ns, reference_ns;
    for (size_t i = 0; i < values.size(); i += kBatch) {
      const auto chunk = values.subspan(i, std::min(kBatch, values.size() - i));
      auto start = Clock::now();
      fast.AddBatch(chunk);
      fast_ns.push_back(NanosSince(start));
      start = Clock::now();
      reference.AddBatch(chunk);
      reference_ns.push_back(NanosSince(start));
    }
    ratios.push_back(Median(std::move(reference_ns)) /
                     Median(std::move(fast_ns)));
  }
  return Median(std::move(ratios));
}

struct Column {
  std::string name;
  /// Nanoseconds to add the given values to one fresh sketch.
  std::function<double(std::span<const double>)> time;
};

std::vector<Column> Fig8Columns() {
  auto add = [](auto& sketch, double v) { sketch.Add(v); };
  return {
      {"ddsketch", [=](auto v) { return TimeAdds(MakeDDSketch, add, v); }},
      {"ddsketch_batch",
       [](auto v) { return TimeBatchAdds(MakeDDSketch(), v); }},
      {"ddsketch_fast",
       [=](auto v) { return TimeAdds(MakeDDSketchFast, add, v); }},
      {"ddsketch_fast_batch",
       [](auto v) { return TimeBatchAdds(MakeDDSketchFast(), v); }},
      {"gkarray", [=](auto v) { return TimeAdds(MakeGK, add, v); }},
      {"hdr",
       [](auto v) {
         return TimeAdds([] { return MakeHdrFor(DatasetId::kPareto); },
                         [](HdrDoubleHistogram& h, double x) { h.Record(x); },
                         v);
       }},
      {"moments", [=](auto v) { return TimeAdds(MakeMoments, add, v); }},
  };
}

}  // namespace
}  // namespace dd::bench

int main() {
  using namespace dd;
  using namespace dd::bench;
  std::printf("=== Figure 8: average add time (ns/value), pareto data ===\n");
  const size_t cap =
      SmokeScale() ? 1000000 : (FullScale() ? 100000000 : 10000000);
  const std::vector<double> data = GenerateDataset(DatasetId::kPareto, cap);
  const std::span<const double> all(data);
  const std::vector<Column> columns = Fig8Columns();

  std::vector<size_t> sizes;
  for (size_t n = kMinN; n <= cap; n *= 10) sizes.push_back(n);
  // samples[r][c]: one ns/add per pass for size r, column c.
  std::vector<std::vector<std::vector<double>>> samples(
      sizes.size(), std::vector<std::vector<double>>(columns.size()));
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t r = 0; r < sizes.size(); ++r) {
      for (size_t c = 0; c < columns.size(); ++c) {
        double ns = 0;
        for (size_t i = 0; i < cap; i += sizes[r]) {
          ns += columns[c].time(all.subspan(i, sizes[r]));
        }
        samples[r][c].push_back(ns / static_cast<double>(cap));
      }
    }
  }

  std::vector<std::string> headers{"n"};
  for (const Column& column : columns) headers.push_back(column.name);
  Table table(headers);
  std::vector<std::vector<double>> ns_per_add(sizes.size());
  for (size_t r = 0; r < sizes.size(); ++r) {
    std::vector<std::string> cells{FmtInt(sizes[r])};
    for (size_t c = 0; c < columns.size(); ++c) {
      ns_per_add[r].push_back(Median(samples[r][c]));
      cells.push_back(Fmt(ns_per_add[r].back(), "%.1f"));
    }
    table.AddRow(std::move(cells));
  }
  table.Print("fig8_add_ns");

  bool ok = true;
  std::printf("\nchecks (same run):\n");
  const std::pair<const char*, MappingType> mappings[] = {
      {"log", MappingType::kLogarithmic},
      {"cubic", MappingType::kCubicInterpolated}};
  for (const auto& [name, mapping] : mappings) {
    const double ratio = BatchingRatio(mapping, all.first(kMinN));
    const bool pass = ratio >= kMinBatchingRatio;
    ok = ok && pass;
    std::printf("  %s  batching (%s): reference / default AddBatch = %.2fx "
                "(floor %.2fx)\n",
                pass ? "ok  " : "FAIL", name, ratio, kMinBatchingRatio);
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    const double growth = ns_per_add.back()[c] / ns_per_add.front()[c];
    const bool pass = growth <= kMaxGrowth;
    ok = ok && pass;
    std::printf("  %s  scaling (%s): ns/add at n = %zu is %.2fx n = %zu "
                "(bound %.0fx)\n",
                pass ? "ok  " : "FAIL", columns[c].name.c_str(), cap, growth,
                kMinN, kMaxGrowth);
  }
  std::printf("%s\n", ok ? "all checks passed" : "a check FAILED");
  return ok ? 0 : 1;
}
