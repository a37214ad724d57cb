// google-benchmark microbenchmarks: per-operation costs of every sketch
// (add, merge, quantile) plus the mapping index computations — the
// operations behind Figures 8 and 9, measured with proper repetition
// statistics rather than one-shot wall clock — and the per-frame costs
// of sketchd's ingest path (checksum, frame decode, a MERGE payload's
// validation and merge, a snapshot's decode).

#include <benchmark/benchmark.h>

#include <limits>
#include <string>
#include <string_view>

#include "bench/common/params.h"
#include "data/datasets.h"
#include "server/protocol.h"
#include "timeseries/sketch_store.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/crc32.h"
#include "util/rng.h"

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

// ---- MERGE path: a payload's validation, decode and merge -----------------

// One MERGE payload as the durable store handles it: validated on the
// event loop (DurableSketchStore::ValidateRecord), checked again by the
// committer before the WAL append (DecodeRecords), then merged into its
// interval. Two shapes: perfbench's ingest_sketches (1000 Pareto values,
// ~179 buckets, ~405 B) into an interval that already holds data, and
// query_mixed's history preload (50 values, ~40 buckets, ~126 B) into an
// empty interval, which is stored frozen.
// `deserialize_twice` is the path that builds a sketch at each step: two
// Deserialize calls, then MergeFrom into the dense interval, or a copy
// of the prototype + MergeFrom + Freeze for the empty one.
// `decode_once` walks the payload twice (SketchStore::CheckPayload) and
// merges its own image: MergeEncoded into the dense interval, a copy as
// the empty one's frozen bytes.
struct MergePayloadShape {
  int values;
  bool into_empty;
};

constexpr MergePayloadShape kMergeShapes[] = {{1000, false}, {50, true}};

SketchStore MergeStore() {
  SketchStoreOptions options;
  options.sketch.relative_accuracy = kDDSketchAlpha;
  options.sketch.max_num_buckets = kDDSketchMaxBuckets;
  return std::move(SketchStore::Create(options)).value();
}

std::string MergePayload(int values, uint64_t seed) {
  auto sketch = MakeDDSketch();
  DataStream s(MakeDataset(DatasetId::kPareto), seed);
  for (int i = 0; i < values; ++i) sketch.Add(s.Next());
  return sketch.Serialize();
}

template <bool kDecodeOnce>
void BM_MergePayload(benchmark::State& state) {
  const MergePayloadShape shape = kMergeShapes[state.range(0)];
  const SketchStore store = MergeStore();
  const DDSketch prototype = MakeDDSketch();
  const std::string payload = MergePayload(shape.values, 2);
  DDSketch interval = std::move(
      DDSketch::Deserialize(MergePayload(shape.values, 1))).value();
  std::string frozen;
  for (auto _ : state) {
    if constexpr (kDecodeOnce) {
      DDSketch::SerializedView view;
      if (!store.CheckPayload(payload, &view).ok() ||
          !store.CheckPayload(payload, &view).ok()) {
        state.SkipWithError("payload refused");
        return;
      }
      std::string built;
      const std::string_view image = store.MergeImageOf(payload, view, &built);
      if (shape.into_empty) {
        frozen.assign(image);
        benchmark::DoNotOptimize(frozen.data());
        std::string().swap(frozen);  // an empty interval's string is new
      } else {
        interval.MergeEncoded(image);
      }
    } else {
      auto checked = DDSketch::Deserialize(payload);
      if (!checked.ok() || !store.CheckCompatible(checked.value()).ok()) {
        state.SkipWithError("payload refused");
        return;
      }
      auto decoded = DDSketch::Deserialize(payload);
      if (shape.into_empty) {
        DDSketch merged = prototype;
        (void)merged.MergeFrom(decoded.value());
        frozen = merged.Freeze();
        benchmark::DoNotOptimize(frozen.data());
        std::string().swap(frozen);
      } else {
        (void)interval.MergeFrom(decoded.value());
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::to_string(shape.values) + " values into " +
                 (shape.into_empty ? "an empty" : "a dense") + " interval");
}
BENCHMARK_TEMPLATE(BM_MergePayload, false)
    ->Name("BM_MergePayload/deserialize_twice")
    ->Arg(0)
    ->Arg(1);
BENCHMARK_TEMPLATE(BM_MergePayload, true)
    ->Name("BM_MergePayload/decode_once")
    ->Arg(0)
    ->Arg(1);

// A snapshot of query_mixed's compacted history: 50 series, 6 h of 10 s
// intervals of 50 Pareto values under the default ladder, so the last
// hour stays raw (18,000 intervals) and the rest rolls up to 1 min
// (15,000), ~6.7 MB. Recovery and a follower's resync decode it whole.
void BM_SnapshotDecode(benchmark::State& state) {
  SketchStore store = MergeStore();
  constexpr int64_t kIntervals = 6 * 360;
  DataStream s(MakeDataset(DatasetId::kPareto), 1);
  std::vector<double> values(50);
  for (int64_t i = 0; i < kIntervals; ++i) {
    for (int series = 0; series < 50; ++series) {
      for (double& v : values) v = s.Next();
      if (!store.IngestValues("series" + std::to_string(series), 10 * i, values)
               .ok()) {
        state.SkipWithError("ingest failed");
        return;
      }
    }
  }
  store.Compact(std::numeric_limits<int64_t>::max());
  const std::string bytes = EncodeSnapshot(store, 1);
  for (auto _ : state) {
    auto decoded = DecodeSnapshot(bytes);
    if (!decoded.ok()) {
      state.SkipWithError("snapshot did not decode");
      return;
    }
    benchmark::DoNotOptimize(decoded.value().store.num_intervals());
  }
  state.counters["intervals"] = static_cast<double>(store.num_intervals());
  state.counters["bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_SnapshotDecode)->Unit(benchmark::kMillisecond);

// ---- Ingest path: checksum and frame decode -------------------------------

// CRC-32C at the sizes sketchd checksums: about one INGEST frame body
// (22 B), one 256-value type-3 WAL record (2 KB), and a slice of a
// snapshot (1 MB). Each call continues the last one's value, as a
// chained checksum would.
using Crc32cFn = uint32_t (*)(uint32_t, std::string_view) noexcept;

void BM_Crc32c(benchmark::State& state, Crc32cFn crc32c) {
  if (crc32c != &crc32c_internal::Table && !crc32c_internal::UsesHardware()) {
    state.SkipWithError("this CPU has no hardware CRC-32C path");
    return;
  }
  Rng rng(42);
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c(crc, data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, table, &crc32c_internal::Table)
    ->Arg(22)->Arg(2048)->Arg(1 << 20);
#if defined(__x86_64__)
BENCHMARK_CAPTURE(BM_Crc32c, sse42, &crc32c_internal::Sse42)
    ->Arg(22)->Arg(2048)->Arg(1 << 20);
#endif

// 512 framed INGEST frames of one series at one timestamp (the shape of
// perfbench's ingest_raw), read into one unit. `request` decodes each
// body with DecodeRequest, which builds a Request (three strings, two
// vectors) per frame. `in_place` is sketchd's run collector: it reads
// each body with DecodeIngest, and a frame that joins the unit appends
// one double. Both pay DecodeFrame, whose CRC is Crc32c.
constexpr int kBurstFrames = 512;

std::string IngestBurst() {
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "s0042";
  request.timestamp = 1700000000;
  std::string burst;
  for (int i = 0; i < kBurstFrames; ++i) {
    request.value = 0.5 * i;
    burst += EncodeRequest(request);
  }
  return burst;
}

/// Joins one INGEST to `unit` as the collector does: a same-series,
/// same-timestamp frame appends its value, any other restarts the unit.
void JoinUnit(WalRecord* unit, std::string_view series, int64_t timestamp,
              double value) {
  if (!unit->values.empty() && unit->timestamp == timestamp &&
      unit->series == series) {
    unit->values.push_back(value);
    return;
  }
  unit->series.assign(series);
  unit->timestamp = timestamp;
  unit->values.assign(1, value);
}

template <bool kInPlace>
void BM_IngestFrameDecode(benchmark::State& state) {
  const std::string burst = IngestBurst();
  WalRecord unit;
  for (auto _ : state) {
    unit.values.clear();
    std::string_view rest = burst;
    while (!rest.empty()) {
      size_t frame_size = 0;
      auto body = DecodeFrame(rest, &frame_size);
      if (!body.ok()) {
        state.SkipWithError("frame did not decode");
        return;
      }
      if constexpr (kInPlace) {
        const auto ingest = DecodeIngest(body.value());
        if (!ingest) {
          state.SkipWithError("INGEST body did not parse");
          return;
        }
        JoinUnit(&unit, ingest->series, ingest->timestamp, ingest->value);
      } else {
        auto request = DecodeRequest(body.value());
        if (!request.ok()) {
          state.SkipWithError("request did not decode");
          return;
        }
        JoinUnit(&unit, request.value().series, request.value().timestamp,
                 request.value().value);
      }
      rest.remove_prefix(frame_size);
    }
    benchmark::DoNotOptimize(unit.values.data());
    benchmark::ClobberMemory();
  }
  // Time per frame, in seconds.
  state.counters["per_frame"] = benchmark::Counter(
      kBurstFrames, benchmark::Counter::kIsIterationInvariantRate |
                        benchmark::Counter::kInvert);
}
BENCHMARK_TEMPLATE(BM_IngestFrameDecode, false)
    ->Name("BM_IngestFrameDecode/request");
BENCHMARK_TEMPLATE(BM_IngestFrameDecode, true)
    ->Name("BM_IngestFrameDecode/in_place");

}  // namespace
}  // namespace dd::bench

BENCHMARK_MAIN();
