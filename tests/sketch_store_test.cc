#include "timeseries/sketch_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "data/datasets.h"
#include "data/ground_truth.h"
#include "timeseries/snapshot.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/varint.h"

namespace dd {
namespace {

SketchStore MakeStore(int64_t base = 10, int64_t retention = 600,
                      int factor = 6) {
  SketchStoreOptions options;
  options.levels = {{base, retention}, {base * factor, 0}};
  auto r = SketchStore::Create(options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(SketchStoreTest, CreateValidation) {
  SketchStoreOptions options;
  // Zero base interval.
  options.levels = {{0, 600}, {60, 0}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
  // Coarse interval not a multiple of the previous level's.
  options.levels = {{10, 600}, {25, 0}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
  // Coarse interval equal to fine (factor must be >= 2).
  options.levels = {{10, 600}, {10, 0}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
  // Retention shorter than the next level's interval.
  options.levels = {{10, 5}, {60, 0}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
  // retention=0 (keep forever) only allowed on the last level.
  options.levels = {{10, 0}, {60, 0}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
  // Finite last-level retention shorter than its own interval.
  options.levels = {{10, 600}, {60, 30}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
  // Invalid sketch params still rejected.
  options.levels = {{10, 600}, {60, 0}};
  options.sketch.relative_accuracy = 2.0;
  EXPECT_FALSE(SketchStore::Create(options).ok());
  // Empty ladder adopts the default.
  options = SketchStoreOptions{};
  auto adopted = SketchStore::Create(options);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value().options().levels, DefaultRollupLevels());
}

TEST(SketchStoreTest, IngestAndQuerySingleInterval) {
  SketchStore store = MakeStore();
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(store.IngestValue("latency", 1000 + i % 10, i).ok());
  }
  auto q = store.QueryQuantile("latency", 1000, 1010, 0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value(), 50.0, 50.0 * 0.011);
  EXPECT_EQ(store.num_series(), 1u);
  EXPECT_EQ(store.num_intervals(), 1u);
}

TEST(SketchStoreTest, IngestValuesMatchesPerValueIngest) {
  SketchStore batched = MakeStore();
  SketchStore scalar = MakeStore();
  Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(std::exp(rng.NextDouble() * 6));
  }
  ASSERT_TRUE(batched.IngestValues("latency", 1004, values).ok());
  for (double v : values) {
    ASSERT_TRUE(scalar.IngestValue("latency", 1004, v).ok());
  }
  ASSERT_TRUE(batched.IngestValues("latency", 1004, {}).ok());  // no-op
  auto a = batched.QueryRange("latency", 1000, 1010);
  auto b = scalar.QueryRange("latency", 1000, 1010);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().count(), b.value().count());
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.value().QuantileOrNaN(q), b.value().QuantileOrNaN(q));
  }
  EXPECT_EQ(batched.num_intervals(), 1u);
}

TEST(SketchStoreTest, QueryValidation) {
  SketchStore store = MakeStore();
  EXPECT_FALSE(store.QueryRange("nope", 0, 100).ok());
  ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
  EXPECT_FALSE(store.QueryRange("s", 100, 100).ok());
  EXPECT_FALSE(store.QueryRange("s", 200, 100).ok());
  EXPECT_FALSE(store.QuerySeries("s", 0, 100, 0.5, 0).ok());
}

TEST(SketchStoreTest, RangeQueryMatchesReferenceSketch) {
  SketchStore store = MakeStore();
  auto reference = std::move(DDSketch::Create(DDSketchConfig{})).value();
  DataStream stream(MakeDataset(DatasetId::kWebLatency), 211);
  Rng rng(212);
  // 10 minutes of data across scattered timestamps.
  for (int i = 0; i < 20000; ++i) {
    const int64_t ts = static_cast<int64_t>(rng.NextBounded(600));
    const double v = stream.Next();
    ASSERT_TRUE(store.IngestValue("api.latency", ts, v).ok());
    reference.Add(v);
  }
  auto merged = store.QueryRange("api.latency", 0, 600);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged.value().count(), reference.count());
  for (double q = 0.01; q < 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(merged.value().QuantileOrNaN(q),
                     reference.QuantileOrNaN(q))
        << q;
  }
}

TEST(SketchStoreTest, SubrangeQueriesSelectCorrectIntervals) {
  SketchStore store = MakeStore(/*base=*/10);
  // Interval [0,10): value 1; [10,20): value 10; [20,30): value 100.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.IngestValue("s", 3, 1.0).ok());
    ASSERT_TRUE(store.IngestValue("s", 13, 10.0).ok());
    ASSERT_TRUE(store.IngestValue("s", 23, 100.0).ok());
  }
  EXPECT_NEAR(std::move(store.QueryQuantile("s", 0, 10, 0.5)).value(), 1.0,
              0.011);
  EXPECT_NEAR(std::move(store.QueryQuantile("s", 10, 20, 0.5)).value(), 10.0,
              0.11);
  EXPECT_NEAR(std::move(store.QueryQuantile("s", 0, 20, 0.99)).value(), 10.0,
              0.11);
  EXPECT_NEAR(std::move(store.QueryQuantile("s", 0, 30, 0.99)).value(), 100.0,
              1.1);
}

TEST(SketchStoreTest, IngestSerializedWorkerSketches) {
  SketchStore store = MakeStore();
  auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
  for (int i = 1; i <= 1000; ++i) worker.Add(static_cast<double>(i));
  ASSERT_TRUE(store.Ingest("svc", 42, worker.Serialize()).ok());
  ASSERT_TRUE(store.Ingest("svc", 42, worker.Serialize()).ok());
  auto merged = store.QueryRange("svc", 40, 50);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().count(), 2000u);
  // Corrupt payloads and incompatible parameters are rejected.
  EXPECT_EQ(store.Ingest("svc", 42, "garbage").code(),
            StatusCode::kCorruption);
  auto wrong = std::move(DDSketch::Create(0.05)).value();
  wrong.Add(1.0);
  EXPECT_EQ(store.Ingest("svc", 42, wrong.Serialize()).code(),
            StatusCode::kIncompatible);
}

TEST(SketchStoreTest, CompactionPreservesAnswersExactly) {
  // The headline property: rollup is lossless because merging is exact.
  SketchStore store = MakeStore(/*base=*/10, /*retention=*/100,
                                /*factor=*/6);
  DataStream stream(MakeDataset(DatasetId::kWebLatency), 213);
  Rng rng(214);
  for (int i = 0; i < 30000; ++i) {
    const int64_t ts = static_cast<int64_t>(rng.NextBounded(3600));
    ASSERT_TRUE(store.IngestValue("svc", ts, stream.Next()).ok());
  }
  // Snapshot answers before compaction.
  std::vector<double> before;
  for (double q = 0.05; q < 1.0; q += 0.05) {
    before.push_back(std::move(store.QueryQuantile("svc", 0, 3600, q)).value());
  }
  const size_t intervals_before = store.num_intervals();
  const size_t compacted = store.Compact(/*now=*/3600);
  EXPECT_GT(compacted, 0u);
  EXPECT_LT(store.num_intervals(), intervals_before);
  size_t i = 0;
  for (double q = 0.05; q < 1.0; q += 0.05) {
    EXPECT_DOUBLE_EQ(std::move(store.QueryQuantile("svc", 0, 3600, q)).value(),
                     before[i++])
        << q;
  }
  // Compacting again is a no-op.
  EXPECT_EQ(store.Compact(3600), 0u);
}

TEST(SketchStoreTest, CompactionShrinksStorage) {
  SketchStore store = MakeStore(/*base=*/10, /*retention=*/60, /*factor=*/6);
  Rng rng(215);
  for (int64_t ts = 0; ts < 3600; ts += 1) {
    ASSERT_TRUE(store.IngestValue("svc", ts, rng.NextDouble()).ok());
  }
  const size_t before = store.num_intervals();
  store.Compact(3600);
  // 360 raw intervals; all but the last ~6 compacted 6:1.
  EXPECT_EQ(before, 360u);
  EXPECT_LE(store.num_intervals(), 360u / 6 + 7);
  EXPECT_GT(store.size_in_bytes(), 0u);
}

TEST(SketchStoreTest, MultiLevelLadderCascades) {
  // Three levels: 10s (keep 60s) -> 60s (keep 600s) -> 600s (forever).
  // Data old enough crosses both boundaries in a single Compact pass.
  SketchStoreOptions options;
  options.levels = {{10, 60}, {60, 600}, {600, 0}};
  auto store = std::move(SketchStore::Create(options)).value();
  Rng rng(300);
  for (int64_t ts = 0; ts < 3600; ts += 5) {
    ASSERT_TRUE(store.IngestValue("svc", ts, 1 + rng.NextDouble()).ok());
  }
  auto before = store.QueryRange("svc", 0, 3600);
  ASSERT_TRUE(before.ok());
  const size_t folded = store.Compact(3600);
  EXPECT_GT(folded, 0u);
  auto levels = store.LevelStats();
  ASSERT_EQ(levels.size(), 3u);
  // Oldest data cascaded all the way into the 600s tier.
  EXPECT_GT(levels[2].num_intervals, 0u);
  EXPECT_GT(levels[1].num_intervals, 0u);
  EXPECT_GT(levels[2].rollup_merges, 0u);
  // Raw tier retains only the freshest ~60s.
  EXPECT_LE(levels[0].num_intervals, 6u + 1u);
  // Answers unchanged: rollup moves data between tiers, never drops it.
  auto after = store.QueryRange("svc", 0, 3600);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().count(), before.value().count());
  for (double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(after.value().QuantileOrNaN(q),
                     before.value().QuantileOrNaN(q));
  }
}

TEST(SketchStoreTest, CompactClampsToDataHorizon) {
  // A wall clock far ahead of the data must not roll up the newest
  // retention's worth of *data time*: Compact clamps `now` to the data
  // horizon, so lagging ingest clocks never lose raw resolution.
  SketchStore store = MakeStore(/*base=*/10, /*retention=*/600, /*factor=*/6);
  for (int64_t ts = 0; ts < 300; ts += 10) {
    ASSERT_TRUE(store.IngestValue("svc", ts, 1.0).ok());
  }
  EXPECT_EQ(store.DataHorizon(), 300);
  // Horizon-clamped: effective now is 300, newest 600s stay raw.
  EXPECT_EQ(store.Compact(/*now=*/1000000), 0u);
  auto levels = store.LevelStats();
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].num_intervals, 30u);
  EXPECT_EQ(levels[1].num_intervals, 0u);
  // Saturated compact equals compact at the horizon: both are the pure
  // data-time fold (this is what checkpoints run).
  SketchStore a = MakeStore(10, 100, 6);
  SketchStore b = MakeStore(10, 100, 6);
  for (int64_t ts = 0; ts < 1200; ts += 10) {
    ASSERT_TRUE(a.IngestValue("svc", ts, 2.0).ok());
    ASSERT_TRUE(b.IngestValue("svc", ts, 2.0).ok());
  }
  EXPECT_EQ(a.Compact(std::numeric_limits<int64_t>::max()),
            b.Compact(b.DataHorizon()));
  EXPECT_EQ(a.num_intervals(), b.num_intervals());
}

TEST(SketchStoreTest, CompactOnEmptyStoreIsNoop) {
  SketchStore store = MakeStore();
  EXPECT_EQ(store.Compact(std::numeric_limits<int64_t>::max()), 0u);
  EXPECT_EQ(store.DataHorizon(), std::numeric_limits<int64_t>::min());
}

TEST(SketchStoreTest, LastLevelRetentionDropsExpiredBuckets) {
  // Finite retention on the last level deletes (not folds) old buckets.
  SketchStoreOptions options;
  options.levels = {{10, 60}, {60, 120}};
  auto store = std::move(SketchStore::Create(options)).value();
  for (int64_t ts = 0; ts < 600; ts += 10) {
    ASSERT_TRUE(store.IngestValue("svc", ts, 1.0).ok());
  }
  store.Compact(600);
  // Horizon 600: raw keeps [540,600), 60s tier keeps [480,540); buckets
  // before AlignDown(600-120, 60)=480 are gone.
  auto merged = store.QueryRange("svc", 0, 480);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged.value().empty());
  auto kept = store.QueryRange("svc", 480, 600);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value().count(), 12u);
}

TEST(SketchStoreTest, SeriesAreIsolated) {
  SketchStore store = MakeStore();
  ASSERT_TRUE(store.IngestValue("a", 0, 1.0).ok());
  ASSERT_TRUE(store.IngestValue("b", 0, 1000.0).ok());
  EXPECT_NEAR(std::move(store.QueryQuantile("a", 0, 10, 0.5)).value(), 1.0,
              0.011);
  EXPECT_NEAR(std::move(store.QueryQuantile("b", 0, 10, 0.5)).value(), 1000.0,
              10.1);
  const auto names = store.ListSeries();
  EXPECT_EQ(names.size(), 2u);
}

TEST(SketchStoreTest, GraphQueryProducesSteppedQuantiles) {
  SketchStore store = MakeStore(/*base=*/10);
  // Latency steps up by 10x each minute; graph with 60s steps.
  for (int minute = 0; minute < 5; ++minute) {
    const double scale = std::pow(10.0, minute);
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(store.IngestValue(
          "svc", minute * 60 + i % 60, scale * (1 + (i % 10) / 10.0)).ok());
    }
  }
  auto points = store.QuerySeries("svc", 0, 300, 0.5, 60);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points.value().size(), 5u);
  for (size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(points.value()[m].timestamp, static_cast<int64_t>(m) * 60);
    EXPECT_EQ(points.value()[m].count, 600u);
    EXPECT_NEAR(points.value()[m].value / std::pow(10.0, m), 1.5, 0.2) << m;
  }
  // Gaps are skipped.
  auto sparse = store.QuerySeries("svc", 0, 600, 0.5, 60);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse.value().size(), 5u);  // minutes 5..9 have no data
}

TEST(SketchStoreTest, NegativeTimestampsWork) {
  SketchStore store = MakeStore(/*base=*/10);
  ASSERT_TRUE(store.IngestValue("s", -25, 7.0).ok());
  ASSERT_TRUE(store.IngestValue("s", -21, 7.0).ok());
  auto q = store.QueryQuantile("s", -30, -20, 0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(q.value(), 7.0, 0.08);
  // The interval floor must round towards negative infinity, not zero.
  auto empty = store.QueryRange("s", -20, -10);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(SketchStoreTest, WritesThawIntervalsAndCompactFreezesThem) {
  // An interval that takes no writes is held as its encoded buckets, a
  // few hundred bytes; one taking writes is a dense sketch of kilobytes
  // until the next Compact freezes it again. The byte accounting reports
  // what is held, and no form changes an answer.
  SketchStore store = MakeStore();
  auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
  for (int i = 0; i < 50; ++i) worker.Add(1.0 + i);
  for (int64_t t = 0; t < 600; t += 10) {
    ASSERT_TRUE(store.IngestSketch("s", t, worker).ok());  // arrives frozen
  }
  const size_t frozen = store.size_in_bytes();
  EXPECT_LT(frozen / 60, 512u);

  ASSERT_TRUE(store.IngestValue("s", 5, 2.0).ok());      // thaws [0, 10)
  ASSERT_TRUE(store.IngestSketch("s", 15, worker).ok());  // thaws [10, 20)
  EXPECT_GT(store.size_in_bytes(), frozen + 2048);
  ASSERT_TRUE(store.IngestSketch("s", 15, worker).ok());  // stays dense
  auto thawed = store.QueryRange("s", 0, 600);
  ASSERT_TRUE(thawed.ok());
  EXPECT_EQ(thawed.value().count(), 60u * 50 + 1 + 2 * 50);

  store.Compact(0);  // folds nothing here, freezes everything
  EXPECT_EQ(store.num_intervals(), 60u);
  EXPECT_LT(store.size_in_bytes(), frozen + 256);
  EXPECT_EQ(store.QueryRange("s", 0, 600).value().Serialize(),
            thawed.value().Serialize());
  const std::vector<LevelUsage> levels = store.LevelStats();
  EXPECT_EQ(levels[0].retained_bytes + levels[1].retained_bytes,
            store.size_in_bytes() - sizeof(SketchStore) - 1);
}

TEST(SketchStoreTest, TimestampsOutsideTheBoundAreRefused) {
  // Ingest timestamps and query bounds arrive unchecked from the wire.
  // Past +/-kMaxTimestamp they are refused, so no interval arithmetic
  // (DataHorizon's start + width, a query's start - width + 1) can
  // overflow; the bound itself works end to end, snapshot included.
  SketchStore store = MakeStore();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(store.IngestValue("s", kMax, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.num_series(), 0u);
  store.Compact(kMax);
  ASSERT_TRUE(store.IngestValue("s", 5, 1.0).ok());
  EXPECT_EQ(store.QueryRange("s", kMin, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.QueryRange("s", 0, kMax).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.QuerySeries("s", 0, 10, 0.5, kMax).status().code(),
            StatusCode::kInvalidArgument);
  auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
  worker.Add(2.0);
  EXPECT_EQ(store.IngestSketch("s", kMin, worker).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.IngestValues("s", kMaxTimestamp + 1, std::vector{1.0})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.num_intervals(), 1u);

  ASSERT_TRUE(store.IngestValue("s", kMaxTimestamp, 3.0).ok());
  ASSERT_TRUE(store.IngestSketch("s", -kMaxTimestamp, worker).ok());
  store.Compact(kMin);
  store.Compact(kMax);
  auto all = store.QueryRange("s", -kMaxTimestamp, kMaxTimestamp);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  // The interval holding kMaxTimestamp starts before it, so it counts.
  EXPECT_EQ(all.value().count(), 3u);
  auto points = store.QuerySeries("s", -kMaxTimestamp, kMaxTimestamp, 0.5,
                                  kMaxTimestamp);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points.value().size(), 2u);
  auto reloaded = DecodeSnapshot(EncodeSnapshot(store, 1));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(EncodeSnapshot(reloaded.value().store, 1),
            EncodeSnapshot(store, 1));
  // The ladder is capped too, so its cutoffs stay in range.
  SketchStoreOptions options;
  options.levels = {{10, kMaxLevelSeconds + 1}, {60, 0}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
  options.levels = {{10, 600}, {kMaxLevelSeconds * 2, 0}};
  EXPECT_FALSE(SketchStore::Create(options).ok());
}

/// `image` with the first occurrence of `from` in its body replaced by
/// `to` and the body CRC recomputed: a snapshot that passes the checksum
/// and must be refused by what the decoder checks after it.
std::string PatchSnapshotBody(const std::string& image, const std::string& from,
                              const std::string& to) {
  constexpr size_t kBodyAt = 9;  // magic, version, fixed32 CRC
  std::string body = image.substr(kBodyAt);
  const size_t at = body.find(from);
  EXPECT_NE(at, std::string::npos);
  body.replace(at, from.size(), to);
  std::string patched = image.substr(0, 5);
  PutFixed32(&patched, Crc32c(body));
  return patched + body;
}

TEST(SketchStoreTest, SnapshotIntervalsAreCheckedBeforeTheyAreStoredFrozen) {
  // Decode stores each interval frozen behind the store's one header, so
  // an interval whose own header differs (here: another store type, a
  // payload Deserialize accepts and the mapping check passes) is
  // Corruption, as is an interval start outside the timestamp bound.
  SketchStore store = MakeStore();
  ASSERT_TRUE(store.IngestValue("s", kMaxTimestamp, 1.0).ok());
  const std::string image = EncodeSnapshot(store, 1);
  ASSERT_TRUE(DecodeSnapshot(image).ok());

  auto prototype = std::move(DDSketch::Create(DDSketchConfig{})).value();
  const std::string header = prototype.SerializedHeader();
  std::string other_store = header;
  other_store[14] = static_cast<char>(StoreType::kUnboundedDense);
  EXPECT_EQ(DecodeSnapshot(PatchSnapshotBody(image, header, other_store))
                .status()
                .code(),
            StatusCode::kCorruption);

  // The raw interval holding kMaxTimestamp starts at 2^61 - 2; 2^61 + 8
  // is aligned too, one interval past the bound, with as long a varint.
  std::string start, past;
  PutVarintSigned64(&start, kMaxTimestamp - 2);
  PutVarintSigned64(&past, kMaxTimestamp + 8);
  ASSERT_EQ(start.size(), past.size());
  EXPECT_EQ(DecodeSnapshot(PatchSnapshotBody(image, start, past))
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(SketchStoreTest, AccuracyGuaranteeSurvivesStorePath) {
  // End to end: values -> worker sketches -> wire -> store -> compaction
  // -> range query, still alpha-accurate vs raw ground truth.
  SketchStore store = MakeStore(/*base=*/10, /*retention=*/60, /*factor=*/6);
  DataStream stream(MakeDataset(DatasetId::kSpan), 216);
  std::vector<double> all;
  for (int64_t interval = 0; interval < 120; ++interval) {
    auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
    for (int i = 0; i < 500; ++i) {
      const double v = stream.Next();
      worker.Add(v);
      all.push_back(v);
    }
    ASSERT_TRUE(store.Ingest("svc", interval * 10, worker.Serialize()).ok());
  }
  store.Compact(1200);
  ExactQuantiles truth(all);
  for (double q : {0.5, 0.95, 0.99}) {
    auto estimate = store.QueryQuantile("svc", 0, 1200, q);
    ASSERT_TRUE(estimate.ok());
    EXPECT_LE(RelativeError(estimate.value(), truth.Quantile(q)),
              0.01 * (1 + 1e-9))
        << q;
  }
}

}  // namespace
}  // namespace dd
