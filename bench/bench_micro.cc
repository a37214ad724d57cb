// google-benchmark microbenchmarks: per-operation costs of every sketch
// (add, merge, quantile) plus the mapping index computations — the
// operations behind Figures 8 and 9, measured with proper repetition
// statistics rather than one-shot wall clock.

#include <benchmark/benchmark.h>

#include "bench/common/params.h"
#include "data/datasets.h"

namespace dd::bench {
namespace {

std::vector<double> TestData(size_t n = 1 << 16) {
  return GenerateDataset(DatasetId::kPareto, n);
}

// ---- Add ------------------------------------------------------------------

void BM_DDSketchAdd_Log(benchmark::State& state) {
  const auto data = TestData();
  auto sketch = MakeDDSketch();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(data[i++ & (data.size() - 1)]);
  }
}
BENCHMARK(BM_DDSketchAdd_Log);

void BM_DDSketchAdd_Cubic(benchmark::State& state) {
  const auto data = TestData();
  auto sketch = MakeDDSketchFast();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(data[i++ & (data.size() - 1)]);
  }
}
BENCHMARK(BM_DDSketchAdd_Cubic);

// The seed insert path (virtual mapping + store dispatch per add),
// pinned via DDSketchConfig::reference_insert_path: the baseline the
// devirtualized path is measured against.
void BM_DDSketchAdd_LogReference(benchmark::State& state) {
  const auto data = TestData();
  DDSketchConfig config;
  config.relative_accuracy = kDDSketchAlpha;
  config.max_num_buckets = kDDSketchMaxBuckets;
  config.reference_insert_path = true;
  auto sketch = std::move(DDSketch::Create(config)).value();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(data[i++ & (data.size() - 1)]);
  }
}
BENCHMARK(BM_DDSketchAdd_LogReference);

void BM_DDSketchAddBatch_Log(benchmark::State& state) {
  const auto data = TestData();
  auto sketch = MakeDDSketch();
  for (auto _ : state) {
    sketch.AddBatch(data);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_DDSketchAddBatch_Log);

void BM_DDSketchAddBatch_Cubic(benchmark::State& state) {
  const auto data = TestData();
  auto sketch = MakeDDSketchFast();
  for (auto _ : state) {
    sketch.AddBatch(data);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_DDSketchAddBatch_Cubic);

void BM_DDSketchAdd_Sparse(benchmark::State& state) {
  const auto data = TestData();
  DDSketchConfig config;
  config.store = StoreType::kSparse;
  config.max_num_buckets = 0;
  auto sketch = std::move(DDSketch::Create(config)).value();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(data[i++ & (data.size() - 1)]);
  }
}
BENCHMARK(BM_DDSketchAdd_Sparse);

void BM_GKArrayAdd(benchmark::State& state) {
  const auto data = TestData();
  auto sketch = MakeGK();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(data[i++ & (data.size() - 1)]);
  }
}
BENCHMARK(BM_GKArrayAdd);

void BM_HdrRecord(benchmark::State& state) {
  const auto data = TestData();
  auto sketch = MakeHdrFor(DatasetId::kPareto);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Record(data[i++ & (data.size() - 1)]);
  }
}
BENCHMARK(BM_HdrRecord);

void BM_MomentsAdd(benchmark::State& state) {
  const auto data = TestData();
  auto sketch = MakeMoments();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(data[i++ & (data.size() - 1)]);
  }
}
BENCHMARK(BM_MomentsAdd);

// ---- Mapping index computation ---------------------------------------------

void BM_MappingIndex(benchmark::State& state) {
  const auto type = static_cast<MappingType>(state.range(0));
  auto mapping = std::move(IndexMapping::Create(type, 0.01)).value();
  const auto data = TestData();
  size_t i = 0;
  int64_t sink = 0;
  for (auto _ : state) {
    sink += mapping->Index(data[i++ & (data.size() - 1)]);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MappingIndex)
    ->Arg(static_cast<int>(MappingType::kLogarithmic))
    ->Arg(static_cast<int>(MappingType::kLinearInterpolated))
    ->Arg(static_cast<int>(MappingType::kQuadraticInterpolated))
    ->Arg(static_cast<int>(MappingType::kCubicInterpolated));

// ---- Merge -----------------------------------------------------------------

void BM_DDSketchMerge(benchmark::State& state) {
  auto a = MakeDDSketch(), b = MakeDDSketch();
  DataStream s1(MakeDataset(DatasetId::kPareto), 1);
  DataStream s2(MakeDataset(DatasetId::kPareto), 2);
  for (int i = 0; i < 1000000; ++i) {
    a.Add(s1.Next());
    b.Add(s2.Next());
  }
  for (auto _ : state) {
    DDSketch target = a;
    benchmark::DoNotOptimize(target.MergeFrom(b));
  }
}
BENCHMARK(BM_DDSketchMerge);

// The same merge from b's frozen image (the bytes Serialize() writes
// after its header), as SketchStore reads a frozen interval.
void BM_DDSketchMergeEncoded(benchmark::State& state) {
  auto a = MakeDDSketch(), b = MakeDDSketch();
  DataStream s1(MakeDataset(DatasetId::kPareto), 1);
  DataStream s2(MakeDataset(DatasetId::kPareto), 2);
  for (int i = 0; i < 1000000; ++i) {
    a.Add(s1.Next());
    b.Add(s2.Next());
  }
  const std::string frozen = b.Freeze();
  for (auto _ : state) {
    DDSketch target = a;
    target.MergeEncoded(frozen);
    benchmark::DoNotOptimize(target);
  }
}
BENCHMARK(BM_DDSketchMergeEncoded);

// One interval of a time-series range query: a 50-value sketch (a 10 s
// interval of the store's benchmark history) merged into the query's
// running accumulator, from the dense sketch and from its frozen image.
DDSketch IntervalSketch(uint64_t seed) {
  auto sketch = MakeDDSketch();
  DataStream s(MakeDataset(DatasetId::kPareto), seed);
  for (int i = 0; i < 50; ++i) sketch.Add(s.Next());
  return sketch;
}

void BM_IntervalMergeFrom(benchmark::State& state) {
  DDSketch accumulator = IntervalSketch(1);
  const DDSketch interval = IntervalSketch(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accumulator.MergeFrom(interval));
  }
}
BENCHMARK(BM_IntervalMergeFrom);

void BM_IntervalMergeEncoded(benchmark::State& state) {
  DDSketch accumulator = IntervalSketch(1);
  const std::string frozen = IntervalSketch(2).Freeze();
  for (auto _ : state) {
    accumulator.MergeEncoded(frozen);
    benchmark::DoNotOptimize(accumulator);
  }
}
BENCHMARK(BM_IntervalMergeEncoded);

void BM_MomentsMerge(benchmark::State& state) {
  auto a = MakeMoments(), b = MakeMoments();
  DataStream s1(MakeDataset(DatasetId::kPareto), 1);
  for (int i = 0; i < 100000; ++i) {
    a.Add(s1.Next());
    b.Add(s1.Next());
  }
  for (auto _ : state) {
    MomentSketch target = a;
    benchmark::DoNotOptimize(target.MergeFrom(b));
  }
}
BENCHMARK(BM_MomentsMerge);

void BM_HdrMerge(benchmark::State& state) {
  auto a = MakeHdrFor(DatasetId::kPareto), b = MakeHdrFor(DatasetId::kPareto);
  DataStream s1(MakeDataset(DatasetId::kPareto), 1);
  for (int i = 0; i < 1000000; ++i) {
    a.Record(s1.Next());
    b.Record(s1.Next());
  }
  for (auto _ : state) {
    HdrDoubleHistogram target = a;
    benchmark::DoNotOptimize(target.MergeFrom(b));
  }
}
BENCHMARK(BM_HdrMerge);

void BM_GKMerge(benchmark::State& state) {
  auto a = MakeGK(), b = MakeGK();
  DataStream s1(MakeDataset(DatasetId::kPareto), 1);
  for (int i = 0; i < 1000000; ++i) {
    a.Add(s1.Next());
    b.Add(s1.Next());
  }
  a.Flush();
  b.Flush();
  for (auto _ : state) {
    GKArray target = a;
    target.MergeFrom(b);
    benchmark::DoNotOptimize(target);
  }
}
BENCHMARK(BM_GKMerge);

// ---- Quantile query ---------------------------------------------------------

void BM_DDSketchQuantile(benchmark::State& state) {
  auto sketch = MakeDDSketch();
  DataStream s(MakeDataset(DatasetId::kPareto), 1);
  for (int i = 0; i < 1000000; ++i) sketch.Add(s.Next());
  double q = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.QuantileOrNaN(q));
    q += 0.001;
    if (q > 0.999) q = 0.001;
  }
}
BENCHMARK(BM_DDSketchQuantile);

void BM_MomentsQuantile(benchmark::State& state) {
  auto sketch = MakeMoments();
  DataStream s(MakeDataset(DatasetId::kPareto), 1);
  for (int i = 0; i < 100000; ++i) sketch.Add(s.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.QuantileOrNaN(0.99));
  }
}
BENCHMARK(BM_MomentsQuantile);

// ---- Serialization ----------------------------------------------------------

void BM_DDSketchSerialize(benchmark::State& state) {
  auto sketch = MakeDDSketch();
  DataStream s(MakeDataset(DatasetId::kPareto), 1);
  for (int i = 0; i < 1000000; ++i) sketch.Add(s.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Serialize());
  }
}
BENCHMARK(BM_DDSketchSerialize);

void BM_DDSketchDeserialize(benchmark::State& state) {
  auto sketch = MakeDDSketch();
  DataStream s(MakeDataset(DatasetId::kPareto), 1);
  for (int i = 0; i < 1000000; ++i) sketch.Add(s.Next());
  const std::string payload = sketch.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DDSketch::Deserialize(payload));
  }
}
BENCHMARK(BM_DDSketchDeserialize);

}  // namespace
}  // namespace dd::bench

BENCHMARK_MAIN();
