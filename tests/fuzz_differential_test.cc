// Randomized differential testing: long random operation sequences
// (add / weighted add / remove / merge / serialize-roundtrip / clear)
// executed against both a DDSketch and an exact reference multiset, with
// invariant checks after every phase. Seeds sweep via TEST_P so failures
// reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/ddsketch.h"
#include "data/ground_truth.h"
#include "server/protocol.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/rng.h"
#include "util/varint.h"

namespace dd {
namespace {

constexpr double kAlpha = 0.02;

/// Exact reference: a multiset of accepted values.
class ReferenceModel {
 public:
  void Add(double v, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) values_.push_back(v);
  }
  template <typename Pred>
  uint64_t RemoveIf(uint64_t count, Pred&& matches) {
    uint64_t removed = 0;
    for (auto it = values_.begin(); it != values_.end() && removed < count;) {
      if (matches(*it)) {
        it = values_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }
  void MergeFrom(const ReferenceModel& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  void Clear() { values_.clear(); }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

// Sketch deletion is bucket-granular: Remove(v) decrements v's bucket even
// if the mass there came from a different co-bucketed value. Mirror that
// exactly in the model: remove up to `count` elements sharing v's bucket
// (same sign + same mapping index, or both within the zero bucket).
uint64_t RemoveBucketPeers(ReferenceModel& model, const DDSketch& sketch,
                           double v, uint64_t count) {
  const IndexMapping& mapping = sketch.mapping();
  const double min_indexable = mapping.min_indexable_value();
  const double max_indexable = mapping.max_indexable_value();
  const double v_mag = std::abs(v);
  if (v_mag < min_indexable) {
    return model.RemoveIf(count, [&](double x) {
      return std::abs(x) < min_indexable;
    });
  }
  const int32_t v_index = mapping.Index(std::min(v_mag, max_indexable));
  return model.RemoveIf(count, [&](double x) {
    const double x_mag = std::abs(x);
    if (x_mag < min_indexable) return false;
    if ((v > 0) != (x > 0)) return false;
    return mapping.Index(std::min(x_mag, max_indexable)) == v_index;
  });
}

void CheckAgainstModel(const DDSketch& sketch, const ReferenceModel& model) {
  ASSERT_EQ(sketch.count(), model.size());
  if (model.size() == 0) return;
  ExactQuantiles truth(model.values());
  // After removals the tracked extremes are conservative, so evaluate
  // interior quantiles only; the guarantee applies to uncollapsed buckets
  // (the fuzz uses an unbounded store, so all of them).
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double actual = truth.Quantile(q);
    const double estimate = sketch.QuantileOrNaN(q);
    ASSERT_LE(RelativeError(estimate, actual), kAlpha * (1 + 1e-9))
        << "q=" << q << " n=" << model.size();
  }
}

class FuzzDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferentialTest, RandomOperationSequences) {
  Rng rng(GetParam());
  DDSketchConfig config;
  config.relative_accuracy = kAlpha;
  config.store = StoreType::kUnboundedDense;

  auto main_sketch = std::move(DDSketch::Create(config)).value();
  ReferenceModel main_model;
  // A set of values we know are present, for meaningful removals. Values
  // are snapped to bucket representatives? No — raw; removal uses exact
  // values previously added.
  std::vector<double> live;

  auto random_value = [&]() -> double {
    switch (rng.NextBounded(6)) {
      case 0:
        return rng.NextDoubleOpenZero();  // (0, 1)
      case 1:
        return std::exp(rng.NextDouble() * 40 - 20);  // 2e-9 .. 5e8
      case 2:
        return -std::exp(rng.NextDouble() * 20 - 10);
      case 3:
        return 0.0;
      case 4:
        return static_cast<double>(rng.NextBounded(1000));  // small ints
      default:
        return rng.NextDouble() * 2e12;  // span-scale
    }
  };

  for (int step = 0; step < 300; ++step) {
    switch (rng.NextBounded(10)) {
      case 0: {  // weighted add
        const double v = random_value();
        const uint64_t w = 1 + rng.NextBounded(50);
        main_sketch.Add(v, w);
        main_model.Add(v, w);
        live.push_back(v);
        break;
      }
      case 1: {  // remove a known-present value (its bucket is occupied)
        if (!live.empty()) {
          const size_t pick = rng.NextBounded(live.size());
          const double v = live[pick];
          const uint64_t removed = main_sketch.Remove(v, 1);
          const uint64_t mirrored =
              RemoveBucketPeers(main_model, main_sketch, v, removed);
          // Model and sketch hold identical per-bucket counts, so the
          // mirror must account for every removed unit.
          ASSERT_EQ(removed, mirrored) << "v=" << v;
          live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
        }
        break;
      }
      case 2: {  // remove a likely-absent value (usually a no-op)
        const double v = random_value();
        const uint64_t removed = main_sketch.Remove(v, 3);
        const uint64_t mirrored =
            RemoveBucketPeers(main_model, main_sketch, v, removed);
        ASSERT_EQ(removed, mirrored) << "v=" << v;
        break;
      }
      case 3: {  // merge a random side-sketch
        auto side = std::move(DDSketch::Create(config)).value();
        ReferenceModel side_model;
        const int k = 1 + static_cast<int>(rng.NextBounded(200));
        for (int i = 0; i < k; ++i) {
          const double v = random_value();
          side.Add(v);
          side_model.Add(v, 1);
          live.push_back(v);
        }
        ASSERT_TRUE(main_sketch.MergeFrom(side).ok());
        main_model.MergeFrom(side_model);
        break;
      }
      case 4: {  // serialize round-trip (must be lossless)
        auto decoded = DDSketch::Deserialize(main_sketch.Serialize());
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        main_sketch = std::move(decoded).value();
        break;
      }
      case 5: {  // rejected inputs never change counts
        const uint64_t before = main_sketch.count();
        main_sketch.Add(std::nan(""));
        main_sketch.Add(std::numeric_limits<double>::infinity());
        ASSERT_EQ(main_sketch.count(), before);
        break;
      }
      case 6: {  // occasional clear
        if (rng.NextBounded(20) == 0) {
          main_sketch.Clear();
          main_model.Clear();
          live.clear();
        }
        break;
      }
      default: {  // plain adds (most common)
        const int k = 1 + static_cast<int>(rng.NextBounded(100));
        for (int i = 0; i < k; ++i) {
          const double v = random_value();
          main_sketch.Add(v);
          main_model.Add(v, 1);
          live.push_back(v);
        }
        break;
      }
    }
    if (step % 25 == 24) CheckAgainstModel(main_sketch, main_model);
  }
  CheckAgainstModel(main_sketch, main_model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range<uint64_t>(1, 17));

// Sparse-store variant of the same fuzz (different code paths).
class FuzzSparseTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSparseTest, SparseStoreMatchesDense) {
  Rng rng(GetParam() * 7919);
  DDSketchConfig dense_cfg, sparse_cfg;
  dense_cfg.store = StoreType::kUnboundedDense;
  sparse_cfg.store = StoreType::kSparse;
  sparse_cfg.max_num_buckets = 0;
  auto dense = std::move(DDSketch::Create(dense_cfg)).value();
  auto sparse = std::move(DDSketch::Create(sparse_cfg)).value();
  for (int step = 0; step < 5000; ++step) {
    const double v = std::exp(rng.NextDouble() * 30 - 15) *
                     ((rng.NextU64() & 1) ? 1.0 : -1.0);
    const uint64_t w = 1 + rng.NextBounded(3);
    dense.Add(v, w);
    sparse.Add(v, w);
    if (step % 500 == 499) {
      for (double q = 0.0; q <= 1.0; q += 0.1) {
        ASSERT_DOUBLE_EQ(dense.QuantileOrNaN(q), sparse.QuantileOrNaN(q))
            << "step=" << step << " q=" << q;
      }
      ASSERT_EQ(dense.num_buckets(), sparse.num_buckets());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSparseTest,
                         ::testing::Range<uint64_t>(1, 9));

// Serialization fuzz: random bit flips must never crash or be silently
// accepted as a different-but-valid sketch with impossible statistics.
class FuzzCorruptionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzCorruptionTest, BitFlipsNeverCrash) {
  Rng rng(GetParam() * 104729);
  auto sketch = std::move(DDSketch::Create(0.01)).value();
  for (int i = 0; i < 1000; ++i) {
    sketch.Add(std::exp(rng.NextDouble() * 10 - 5));
  }
  const std::string payload = sketch.Serialize();
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupted = payload;
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(corrupted.size());
      corrupted[pos] = static_cast<char>(
          static_cast<uint8_t>(corrupted[pos]) ^
          (1u << rng.NextBounded(8)));
    }
    // Must not crash; on success the decoded sketch must at least be
    // internally usable.
    auto decoded = DDSketch::Deserialize(corrupted);
    if (decoded.ok() && !decoded.value().empty()) {
      const double p50 = decoded.value().QuantileOrNaN(0.5);
      // NaN min/max can surface from flipped doubles; the quantile itself
      // must not trip assertions or UB (exercised by calling it).
      (void)p50;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCorruptionTest,
                         ::testing::Range<uint64_t>(1, 5));

// ---------------------------------------------------------------------
// Frozen images: SketchStore holds an interval that takes no writes as
// DDSketch::Freeze() bytes and reads it through MergeEncoded. Both are
// pinned against MergeFrom here: merging a frozen image, merging the
// sketch, and merging the sketch after a Serialize/Deserialize round trip
// must leave byte-identical accumulators, and the store's one header plus
// the frozen image must be the sketch's Serialize() exactly.

/// The accumulator's configuration: a SketchStore interval's (alpha 0.01,
/// collapsing at 2048 buckets per sign).
DDSketch EmptyAccumulator() {
  return std::move(DDSketch::Create(DDSketchConfig{})).value();
}

/// A value drawn from the shapes that reach different sketch paths:
/// both signs over up to 24 decades (wide enough to collapse at 2048
/// buckets), zeros, clamped magnitudes and rejected non-finite inputs.
double FrozenFuzzValue(Rng& rng, double decades) {
  switch (rng.NextBounded(40)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::max();
    case 3:
      return -std::numeric_limits<double>::max();
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
    case 5:
      return std::numeric_limits<double>::infinity();
    default: {
      const double magnitude =
          std::pow(10.0, (rng.NextDouble() - 0.5) * decades);
      return (rng.NextU64() & 3) == 0 ? -magnitude : magnitude;
    }
  }
}

/// A sketch with the accumulator's mapping but `store` and `bound`, as a
/// MERGE payload may declare them.
DDSketch RandomSketch(Rng& rng, StoreType store, int32_t bound, int n,
                      double decades) {
  DDSketchConfig config;
  config.store = store;
  config.max_num_buckets = bound;
  auto sketch = std::move(DDSketch::Create(config)).value();
  for (int i = 0; i < n; ++i) sketch.Add(FrozenFuzzValue(rng, decades));
  return sketch;
}

/// `sketch` decoded from a payload whose sum and min fields were
/// rewritten, e.g. to -0.0 or NaN (values no Add produces).
DDSketch WithSideStats(const DDSketch& sketch, double sum, double min) {
  std::string counts;
  PutVarint64(&counts, sketch.zero_count());
  PutVarint64(&counts, sketch.rejected_count());
  PutVarint64(&counts, sketch.clamped_count());
  std::string payload = sketch.SerializedHeader() + counts;
  PutFixedDouble(&payload, sum);
  PutFixedDouble(&payload, min);
  payload += sketch.Freeze().substr(counts.size() + 2 * sizeof(double));
  return std::move(DDSketch::Deserialize(payload)).value();
}

/// Merges `x` into copies of `acc` three ways and requires one result;
/// also pins the header + Freeze == Serialize split. Returns the merged
/// accumulator.
DDSketch ExpectEncodedMergeMatches(const DDSketch& acc, const DDSketch& x) {
  const std::string frozen = x.Freeze();
  EXPECT_EQ(x.SerializedHeader() + frozen, x.Serialize());
  DDSketch by_merge = acc;
  EXPECT_TRUE(by_merge.MergeFrom(x).ok());
  DDSketch by_decoded = acc;
  EXPECT_TRUE(
      by_decoded.MergeFrom(DDSketch::Deserialize(x.Serialize()).value()).ok());
  DDSketch by_encoded = acc;
  by_encoded.MergeEncoded(frozen);
  const std::string want = by_merge.Serialize();
  EXPECT_EQ(by_decoded.Serialize(), want);
  EXPECT_EQ(by_encoded.Serialize(), want);
  return by_encoded;
}

TEST(FrozenImageTest, CollapseAtTheBucketBoundInEachSignsDirection) {
  // 24 decades is ~2760 buckets at alpha 0.01: each sign's store of the
  // accumulator must collapse (the positive one its lowest buckets, the
  // negative one its highest), both from a payload whose own unbounded
  // store kept every bucket and on a second merge into a full window.
  for (const double sign : {1.0, -1.0}) {
    DDSketchConfig unbounded;
    unbounded.store = StoreType::kUnboundedDense;
    auto wide = std::move(DDSketch::Create(unbounded)).value();
    for (int e = -120; e <= 120; ++e) {
      wide.Add(sign * std::pow(10.0, e / 10.0));
    }
    for (int i = 0; i < 3000; ++i) wide.Add(sign * (1.0 + i * 1e-3));
    DDSketch acc = ExpectEncodedMergeMatches(EmptyAccumulator(), wide);
    const Store& store = sign > 0 ? acc.positive_store() : acc.negative_store();
    EXPECT_LE(store.max_index() - store.min_index(), 2047);
    EXPECT_GT(wide.num_buckets(), acc.num_buckets());
    ExpectEncodedMergeMatches(acc, wide);
  }
}

TEST(FrozenImageTest, OddSideStatsMergeAsMergeFromDoes) {
  Rng rng(99);
  DDSketch acc = EmptyAccumulator();
  acc.Add(3.0);
  const DDSketch x = RandomSketch(rng, StoreType::kCollapsingLowestDense, 2048,
                                  50, 6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double sum : {-0.0, 0.0, nan}) {
    for (const double min : {-0.0, nan, x.min()}) {
      const DDSketch odd = WithSideStats(x, sum, min);
      ExpectEncodedMergeMatches(EmptyAccumulator(), odd);
      ExpectEncodedMergeMatches(acc, odd);
    }
  }
}

class FuzzFrozenImageTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzFrozenImageTest, MergeEncodedMatchesMergeFrom) {
  Rng rng(GetParam() * 2654435761u);
  const StoreType kStores[] = {
      StoreType::kCollapsingLowestDense, StoreType::kCollapsingHighestDense,
      StoreType::kUnboundedDense, StoreType::kSparse};
  DDSketch acc = EmptyAccumulator();
  for (int round = 0; round < 40; ++round) {
    // Mostly the store's own configuration; otherwise another store type
    // or a wider (or, for sparse, a non-empty-count) bound.
    const bool own = rng.NextBounded(2) == 0;
    const StoreType store = own ? StoreType::kCollapsingLowestDense
                                : kStores[rng.NextBounded(4)];
    const int32_t bound = own ? 2048 : (rng.NextBounded(2) ? 4096 : 2048);
    const int n = static_cast<int>(1 + rng.NextBounded(400));
    const double decades = rng.NextBounded(3) == 0 ? 24.0 : 4.0;
    DDSketch x = RandomSketch(rng, store, bound, n, decades);
    if (rng.NextBounded(8) == 0) x = WithSideStats(x, -0.0, x.min());
    acc = ExpectEncodedMergeMatches(acc, x);
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << GetParam() << " round " << round;
    }
    if (rng.NextBounded(10) == 0) acc = EmptyAccumulator();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFrozenImageTest,
                         ::testing::Range<uint64_t>(1, 17));

// ---------------------------------------------------------------------
// Persistence-format corruption fuzz: unlike the checksum-free wire
// format above (where a lucky bit flip may decode as a different valid
// sketch), the on-disk WAL and snapshot formats are CRC-framed, so the
// contract is strict — corrupted input must ALWAYS yield
// Status::Corruption, never a crash and never silent acceptance.

/// A deterministic multi-record WAL image plus its record boundaries.
struct WalImage {
  std::string bytes;
  std::vector<size_t> boundaries;  // header end + end of each record
};

WalImage BuildWalImage(Rng& rng) {
  WalImage image;
  image.bytes = EncodeWalHeader(/*epoch=*/7);
  image.boundaries.push_back(image.bytes.size());
  for (int i = 0; i < 10; ++i) {
    WalRecord record;
    if (i % 2 == 0) {
      auto sketch = std::move(DDSketch::Create(0.01)).value();
      for (int k = 0; k < 20; ++k) {
        sketch.Add(std::exp(rng.NextDouble() * 10 - 5));
      }
      record.type = WalRecord::Type::kIngestSketch;
      record.payload = sketch.Serialize();
    } else if (i % 4 == 1) {
      record.type = WalRecord::Type::kIngestValue;
      record.value = rng.NextDouble() * 1e6;
    } else {
      // A sketchd unit: 1-16 values at one timestamp.
      record.type = WalRecord::Type::kIngestValues;
      record.values.resize(1 + rng.NextBounded(16));
      for (double& value : record.values) value = rng.NextDouble() * 1e6;
    }
    record.series = (i % 3 == 0) ? "api.latency" : "db.queries";
    record.timestamp = static_cast<int64_t>(rng.NextBounded(10000)) - 500;
    image.bytes += EncodeWalRecord(record);
    image.boundaries.push_back(image.bytes.size());
  }
  return image;
}

class FuzzWalCorruptionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzWalCorruptionTest, BitFlipsAlwaysRejected) {
  Rng rng(GetParam() * 15485863);
  const WalImage image = BuildWalImage(rng);
  // The pristine image parses in full.
  auto clean = ReadWal(image.bytes, WalRead::kStrict);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean.value().records.size(), 10u);

  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupted = image.bytes;
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(corrupted.size());
      corrupted[pos] = static_cast<char>(
          static_cast<uint8_t>(corrupted[pos]) ^ (1u << rng.NextBounded(8)));
    }
    if (corrupted == image.bytes) continue;  // flips cancelled out
    auto result = ReadWal(corrupted, WalRead::kStrict);
    ASSERT_FALSE(result.ok()) << "trial=" << trial;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST_P(FuzzWalCorruptionTest, TruncationsAlwaysDetected) {
  Rng rng(GetParam() * 32452843);
  const WalImage image = BuildWalImage(rng);
  for (size_t cut = 0; cut < image.bytes.size(); ++cut) {
    const std::string_view prefix =
        std::string_view(image.bytes).substr(0, cut);
    const bool at_boundary =
        std::find(image.boundaries.begin(), image.boundaries.end(), cut) !=
        image.boundaries.end();
    auto strict = ReadWal(prefix, WalRead::kStrict);
    if (at_boundary) {
      // A prefix ending exactly on a record boundary is a valid shorter
      // log — that is the crash-recovery contract, not corruption.
      ASSERT_TRUE(strict.ok()) << "cut=" << cut;
    } else {
      ASSERT_FALSE(strict.ok()) << "cut=" << cut;
      EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
      // Tolerant mode recovers the complete-record prefix instead.
      auto tolerant = ReadWal(prefix, WalRead::kTolerateTornTail);
      ASSERT_TRUE(tolerant.ok()) << "cut=" << cut;
      EXPECT_TRUE(tolerant.value().torn_tail);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzWalCorruptionTest,
                         ::testing::Range<uint64_t>(1, 5));

std::string BuildSnapshotImage(Rng& rng) {
  SketchStoreOptions options;
  options.levels = {{10, 60}, {60, 0}};
  auto store = std::move(SketchStore::Create(options)).value();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(store
                    .IngestValue(i % 2 ? "a" : "b",
                                 static_cast<int64_t>(rng.NextBounded(600)),
                                 std::exp(rng.NextDouble() * 8 - 4))
                    .ok());
  }
  store.Compact(600);
  return EncodeSnapshot(store, /*epoch=*/2);
}

class FuzzSnapshotCorruptionTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FuzzSnapshotCorruptionTest, BitFlipsAndTruncationsAlwaysRejected) {
  Rng rng(GetParam() * 49979687);
  const std::string image = BuildSnapshotImage(rng);
  ASSERT_TRUE(DecodeSnapshot(image).ok());

  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupted = image;
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(corrupted.size());
      corrupted[pos] = static_cast<char>(
          static_cast<uint8_t>(corrupted[pos]) ^ (1u << rng.NextBounded(8)));
    }
    if (corrupted == image) continue;
    auto result = DecodeSnapshot(corrupted);
    ASSERT_FALSE(result.ok()) << "trial=" << trial;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }

  // Every proper prefix is rejected: the CRC covers the whole body, so a
  // snapshot is all-or-nothing.
  for (size_t cut = 0; cut < image.size();
       cut += 1 + rng.NextBounded(7)) {
    auto result = DecodeSnapshot(std::string_view(image).substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut=" << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSnapshotCorruptionTest,
                         ::testing::Range<uint64_t>(1, 5));

// Wire-format truncation: the network payload format has no checksum
// (bit flips may be undetectable — see FuzzCorruptionTest above), but
// truncation must always be caught by the structural length checks.
TEST(FuzzWireTruncationTest, EveryProperPrefixIsRejected) {
  Rng rng(8675309);
  auto sketch = std::move(DDSketch::Create(0.01)).value();
  for (int i = 0; i < 500; ++i) {
    sketch.Add(std::exp(rng.NextDouble() * 12 - 6) *
               ((rng.NextU64() & 1) ? 1.0 : -1.0));
  }
  const std::string payload = sketch.Serialize();
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto result =
        DDSketch::Deserialize(std::string_view(payload).substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut=" << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------
// Protocol v4 frame corruption fuzz: the frames the event-loop server
// added in v3/v4 — BUSY admission refusals and STATS responses carrying
// the serving counters, per-op latency rows (v4), and per-shard rows.
// Frames are CRC-framed, so
// the contract matches the WAL's: a flipped frame must ALWAYS be
// rejected (Corruption, or OutOfRange when the flip shortens the
// declared length), never crash, and never decode as different-but-
// valid data. Mutations applied to the already-CRC-verified body
// exercise the strict field decoders directly.

/// A BUSY ingest refusal, as the admission controller sends it.
std::string BusyResponseFrame() {
  Response response;
  response.op = Request::Op::kIngest;
  response.code = StatusCode::kBusy;
  response.message = "staged-bytes budget exceeded; retry with backoff";
  return EncodeResponse(response);
}

/// A v4 STATS response: serving counters, populated per-op latency
/// rows, and several per-shard rows.
std::string StatsResponseFrame() {
  Response response;
  response.op = Request::Op::kStats;
  response.stats.num_series = 12;
  response.stats.num_intervals = 340;
  response.stats.size_in_bytes = 65536;
  response.stats.wal_offset = 9001;
  response.stats.epoch = 4;
  response.stats.batch_commits = 77;
  response.stats.background_checkpoints = 3;
  response.stats.connections_open = 1024;
  response.stats.connections_accepted = 5000;
  response.stats.connections_shed = 17;
  response.stats.busy_rejections = 256;
  response.stats.staged_bytes = 1 << 19;
  for (size_t i = 0; i < kNumLatencyOps; ++i) {
    OpLatencyStats& row = response.stats.op_latencies[i];
    row.count = 100 * (i + 1);
    row.p50_us = 50.5 * static_cast<double>(i + 1);
    row.p90_us = 90.25 * static_cast<double>(i + 1);
    row.p99_us = 99.125 * static_cast<double>(i + 1);
    row.p999_us = 999.0625 * static_cast<double>(i + 1);
    row.max_us = 1234.5 * static_cast<double>(i + 1);
  }
  for (uint64_t k = 0; k < 4; ++k) {
    ShardStats shard;
    shard.shard = k;
    shard.num_series = 3 * k + 1;
    shard.wal_bytes = 1000 * (k + 1);
    shard.epoch = 4;
    shard.batch_commits = 19 + k;
    shard.background_checkpoints = k;
    response.stats.shards.push_back(shard);
  }
  // v6 per-level rollup rows.
  response.stats.levels.push_back({10, 3600, 360, 0, 1 << 16});
  response.stats.levels.push_back({60, 86400, 1440, 2100, 1 << 18});
  response.stats.levels.push_back({3600, 0, 24, 35, 1 << 14});
  return EncodeResponse(response);
}

/// A v6 COMPACT exchange (request carries a zigzag `now`; the response
/// reports folded intervals and the post-checkpoint epoch).
std::string CompactRequestFrame() {
  Request request;
  request.op = Request::Op::kCompact;
  request.compact_now = -1234567;
  return EncodeRequest(request);
}

std::string CompactResponseFrame() {
  Response response;
  response.op = Request::Op::kCompact;
  response.compacted = 4096;
  response.epoch = 9;
  return EncodeResponse(response);
}

class FuzzProtocolV4CorruptionTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FuzzProtocolV4CorruptionTest, FrameBitFlipsAlwaysRejected) {
  Rng rng(GetParam() * 68111);
  for (const std::string& frame :
       {BusyResponseFrame(), StatsResponseFrame(), CompactRequestFrame(),
        CompactResponseFrame()}) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string corrupted = frame;
      const int flips = 1 + static_cast<int>(rng.NextBounded(8));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = rng.NextBounded(corrupted.size());
        corrupted[pos] = static_cast<char>(
            static_cast<uint8_t>(corrupted[pos]) ^ (1u << rng.NextBounded(8)));
      }
      if (corrupted == frame) continue;  // flips cancelled out
      size_t frame_size = 0;
      auto body = DecodeFrame(corrupted, &frame_size);
      ASSERT_FALSE(body.ok()) << "flipped frame decoded cleanly";
      const StatusCode code = body.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kOutOfRange)
          << body.status().ToString();
    }
  }
}

TEST_P(FuzzProtocolV4CorruptionTest, BodyMutationsNeverCrashStrictDecoders) {
  Rng rng(GetParam() * 76003);
  for (const std::string& frame :
       {BusyResponseFrame(), StatsResponseFrame(), CompactResponseFrame()}) {
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    const std::string original(body.value());
    for (int trial = 0; trial < 400; ++trial) {
      // Mutate the CRC-verified body directly: this models a decoder
      // bug, not a wire error, so the only requirement is no crash, no
      // over-read, and strict drain (a successful decode must consume
      // exactly the body).
      std::string mutated = original;
      const int edits = 1 + static_cast<int>(rng.NextBounded(4));
      for (int e = 0; e < edits; ++e) {
        const size_t pos = rng.NextBounded(mutated.size());
        mutated[pos] = static_cast<char>(rng.NextBounded(256));
      }
      auto decoded = DecodeResponse(mutated);
      if (decoded.ok()) {
        // Accepted mutations must still re-encode to a parseable frame
        // (internal consistency — no half-poisoned Response escapes).
        const std::string reencoded = EncodeResponse(decoded.value());
        size_t n = 0;
        EXPECT_TRUE(DecodeFrame(reencoded, &n).ok());
      }
    }
  }
}

TEST(FuzzProtocolV4TruncationTest, EveryFramePrefixIsIncomplete) {
  for (const std::string& frame :
       {BusyResponseFrame(), StatsResponseFrame(), CompactRequestFrame(),
        CompactResponseFrame()}) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      size_t frame_size = 0;
      auto body =
          DecodeFrame(std::string_view(frame).substr(0, cut), &frame_size);
      ASSERT_FALSE(body.ok()) << "cut=" << cut;
      EXPECT_EQ(body.status().code(), StatusCode::kOutOfRange)
          << "cut=" << cut << ": " << body.status().ToString();
    }
  }
}

TEST(FuzzProtocolV4TruncationTest, EveryBodyTruncationIsCorruption) {
  for (const std::string& frame :
       {BusyResponseFrame(), StatsResponseFrame(), CompactResponseFrame()}) {
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    const std::string original(body.value());
    for (size_t cut = 0; cut < original.size(); ++cut) {
      auto decoded =
          DecodeResponse(std::string_view(original).substr(0, cut));
      ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "cut=" << cut << ": " << decoded.status().ToString();
    }
    // And trailing garbage is refused just as strictly.
    EXPECT_EQ(DecodeResponse(original + '\0').status().code(),
              StatusCode::kCorruption);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProtocolV4CorruptionTest,
                         ::testing::Range<uint64_t>(1, 5));

// ---------------------------------------------------------------------
// Protocol v5 frame corruption fuzz: the replication additions — the
// SUBSCRIBE handshake, FENCED refusals, and the replication-channel
// frames (snapshot / segment / heartbeat / ack / fence). Same contract
// as v4: flips are always rejected by the CRC framing, truncations read
// as incomplete (frame) or corrupt (body), and mutations of a verified
// body never crash the strict decoders.

/// A follower's SUBSCRIBE handshake with a token and resume positions.
std::string SubscribeRequestFrame() {
  Request request;
  request.op = Request::Op::kSubscribe;
  request.repl_token = 3;
  request.positions = {{2, 13}, {2, 8192}, {5, 65536}, {5, 13}};
  return EncodeRequest(request);
}

/// A FENCED ingest refusal, as a deposed primary sends it.
std::string FencedResponseFrame() {
  Response response;
  response.op = Request::Op::kIngest;
  response.code = StatusCode::kFenced;
  response.message = "writer fenced: a newer primary holds the fencing token";
  return EncodeResponse(response);
}

/// A WAL-segment replication frame with a binary payload.
std::string SegmentReplFrame() {
  ReplFrame frame;
  frame.tag = ReplFrame::Tag::kSegment;
  frame.shard = 2;
  frame.epoch = 6;
  frame.start_offset = 4096;
  frame.payload.reserve(256);
  for (int i = 0; i < 256; ++i) {
    frame.payload.push_back(static_cast<char>(i));
  }
  return EncodeReplFrame(frame);
}

/// A heartbeat replication frame with the fence token and positions.
std::string HeartbeatReplFrame() {
  ReplFrame frame;
  frame.tag = ReplFrame::Tag::kHeartbeat;
  frame.token = 9;
  frame.positions = {{6, 4352}, {6, 13}, {7, 90000}};
  return EncodeReplFrame(frame);
}

/// A v6 chunked-bootstrap frame: one slice of a large snapshot image.
std::string SnapshotChunkReplFrame() {
  ReplFrame frame;
  frame.tag = ReplFrame::Tag::kSnapshotChunk;
  frame.shard = 1;
  frame.payload.reserve(512);
  for (int i = 0; i < 512; ++i) {
    frame.payload.push_back(static_cast<char>(i * 7));
  }
  return EncodeReplFrame(frame);
}

/// The v6 chunk-train terminator carrying the snapshot's epoch.
std::string SnapshotEndReplFrame() {
  ReplFrame frame;
  frame.tag = ReplFrame::Tag::kSnapshotEnd;
  frame.shard = 1;
  frame.epoch = 11;
  return EncodeReplFrame(frame);
}

std::vector<std::string> V5Frames() {
  return {SubscribeRequestFrame(),  FencedResponseFrame(),
          SegmentReplFrame(),       HeartbeatReplFrame(),
          SnapshotChunkReplFrame(), SnapshotEndReplFrame()};
}

/// Runs every strict body decoder over `body`; any acceptance must
/// survive a re-encode round trip (no half-poisoned value escapes). The
/// v5 frames span three decoders, and a mutated body no longer says
/// which one it was meant for — all of them must hold the line.
void ExpectStrictDecodersSurvive(std::string_view body) {
  if (auto request = DecodeRequest(body); request.ok()) {
    size_t n = 0;
    EXPECT_TRUE(DecodeFrame(EncodeRequest(request.value()), &n).ok());
  }
  if (auto response = DecodeResponse(body); response.ok()) {
    size_t n = 0;
    EXPECT_TRUE(DecodeFrame(EncodeResponse(response.value()), &n).ok());
  }
  if (auto repl = DecodeReplFrame(body); repl.ok()) {
    size_t n = 0;
    EXPECT_TRUE(DecodeFrame(EncodeReplFrame(repl.value()), &n).ok());
  }
}

class FuzzProtocolV5CorruptionTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FuzzProtocolV5CorruptionTest, FrameBitFlipsAlwaysRejected) {
  Rng rng(GetParam() * 50923);
  for (const std::string& frame : V5Frames()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string corrupted = frame;
      const int flips = 1 + static_cast<int>(rng.NextBounded(8));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = rng.NextBounded(corrupted.size());
        corrupted[pos] = static_cast<char>(
            static_cast<uint8_t>(corrupted[pos]) ^ (1u << rng.NextBounded(8)));
      }
      if (corrupted == frame) continue;  // flips cancelled out
      size_t frame_size = 0;
      auto body = DecodeFrame(corrupted, &frame_size);
      ASSERT_FALSE(body.ok()) << "flipped v5 frame decoded cleanly";
      const StatusCode code = body.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kOutOfRange)
          << body.status().ToString();
    }
  }
}

TEST_P(FuzzProtocolV5CorruptionTest, BodyMutationsNeverCrashStrictDecoders) {
  Rng rng(GetParam() * 41381);
  for (const std::string& frame : V5Frames()) {
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    const std::string original(body.value());
    for (int trial = 0; trial < 400; ++trial) {
      std::string mutated = original;
      const int edits = 1 + static_cast<int>(rng.NextBounded(4));
      for (int e = 0; e < edits; ++e) {
        const size_t pos = rng.NextBounded(mutated.size());
        mutated[pos] = static_cast<char>(rng.NextBounded(256));
      }
      ExpectStrictDecodersSurvive(mutated);
    }
  }
}

TEST(FuzzProtocolV5TruncationTest, EveryFramePrefixIsIncomplete) {
  for (const std::string& frame : V5Frames()) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      size_t frame_size = 0;
      auto body =
          DecodeFrame(std::string_view(frame).substr(0, cut), &frame_size);
      ASSERT_FALSE(body.ok()) << "cut=" << cut;
      EXPECT_EQ(body.status().code(), StatusCode::kOutOfRange)
          << "cut=" << cut << ": " << body.status().ToString();
    }
  }
}

TEST(FuzzProtocolV5TruncationTest, EveryReplBodyTruncationIsCorruption) {
  for (const std::string& frame :
       {SegmentReplFrame(), HeartbeatReplFrame(), SnapshotChunkReplFrame(),
        SnapshotEndReplFrame()}) {
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    const std::string original(body.value());
    for (size_t cut = 0; cut < original.size(); ++cut) {
      auto decoded =
          DecodeReplFrame(std::string_view(original).substr(0, cut));
      ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "cut=" << cut << ": " << decoded.status().ToString();
    }
    // And trailing garbage is refused just as strictly.
    EXPECT_EQ(DecodeReplFrame(original + '\0').status().code(),
              StatusCode::kCorruption);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProtocolV5CorruptionTest,
                         ::testing::Range<uint64_t>(1, 5));

// ---------------------------------------------------------------------
// Protocol v7 frame corruption fuzz: the per-tag admission additions —
// SET_TAG declarations, BUSY refusals carrying the refusing tag's
// retry_after_ms hint, and STATS responses with per-tag ledger rows
// (length-prefixed names plus fixed-double percentiles make these the
// most structurally varied bodies on the wire). Same contract as
// v4/v5: flips always rejected, truncations incomplete (frame) or
// corrupt (body), mutations of a verified body never crash.

/// A connection declaring its admission tag.
std::string SetTagRequestFrame() {
  Request request;
  request.op = Request::Op::kSetTag;
  request.tag = "team-a.prod_42";
  return EncodeRequest(request);
}

/// A BUSY ingest refusal with the v7 retry hint payload.
std::string BusyHintResponseFrame() {
  Response response;
  response.op = Request::Op::kIngest;
  response.code = StatusCode::kBusy;
  response.message = "staged-bytes budget exceeded; retry with backoff";
  response.retry_after_ms = 10;
  return EncodeResponse(response);
}

/// A STATS response whose payload ends in populated per-tag rows.
std::string TaggedStatsResponseFrame() {
  Response response;
  response.op = Request::Op::kStats;
  response.stats.busy_rejections = 256;
  response.stats.staged_bytes = 1 << 19;
  response.stats.levels.push_back({10, 3600, 360, 0, 1 << 16});
  const char* names[] = {"default", "gold", "team-b.batch_2"};
  for (uint64_t k = 0; k < 3; ++k) {
    TagStatsRow row;
    row.tag = names[k];
    row.floor_bytes = (k + 1) << 18;
    row.budget_bytes = (k + 1) << 20;
    row.staged_bytes = 777 * k;
    row.busy_rejections = 42 * k;
    row.throttle_permille = 1000 - 250 * k;
    row.count = 100 * (k + 1);
    row.p50_us = 81.5 * static_cast<double>(k + 1);
    row.p99_us = 950.25 * static_cast<double>(k + 1);
    row.p999_us = 4096.0 * static_cast<double>(k + 1);
    response.stats.tags.push_back(row);
  }
  return EncodeResponse(response);
}

std::vector<std::string> V7Frames() {
  return {SetTagRequestFrame(), BusyHintResponseFrame(),
          TaggedStatsResponseFrame()};
}

class FuzzProtocolV7CorruptionTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FuzzProtocolV7CorruptionTest, FrameBitFlipsAlwaysRejected) {
  Rng rng(GetParam() * 67867);
  for (const std::string& frame : V7Frames()) {
    for (int trial = 0; trial < 400; ++trial) {
      std::string corrupted = frame;
      const int flips = 1 + static_cast<int>(rng.NextBounded(8));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = rng.NextBounded(corrupted.size());
        corrupted[pos] = static_cast<char>(
            static_cast<uint8_t>(corrupted[pos]) ^ (1u << rng.NextBounded(8)));
      }
      if (corrupted == frame) continue;  // flips cancelled out
      size_t frame_size = 0;
      auto body = DecodeFrame(corrupted, &frame_size);
      ASSERT_FALSE(body.ok()) << "flipped v7 frame decoded cleanly";
      const StatusCode code = body.status().code();
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kOutOfRange)
          << body.status().ToString();
    }
  }
}

TEST_P(FuzzProtocolV7CorruptionTest, BodyMutationsNeverCrashStrictDecoders) {
  Rng rng(GetParam() * 93719);
  for (const std::string& frame : V7Frames()) {
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    const std::string original(body.value());
    for (int trial = 0; trial < 400; ++trial) {
      std::string mutated = original;
      const int edits = 1 + static_cast<int>(rng.NextBounded(4));
      for (int e = 0; e < edits; ++e) {
        const size_t pos = rng.NextBounded(mutated.size());
        mutated[pos] = static_cast<char>(rng.NextBounded(256));
      }
      ExpectStrictDecodersSurvive(mutated);
    }
  }
}

TEST(FuzzProtocolV7TruncationTest, EveryFramePrefixIsIncomplete) {
  for (const std::string& frame : V7Frames()) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      size_t frame_size = 0;
      auto body =
          DecodeFrame(std::string_view(frame).substr(0, cut), &frame_size);
      ASSERT_FALSE(body.ok()) << "cut=" << cut;
      EXPECT_EQ(body.status().code(), StatusCode::kOutOfRange)
          << "cut=" << cut << ": " << body.status().ToString();
    }
  }
}

TEST(FuzzProtocolV7TruncationTest, EveryBodyTruncationIsCorruption) {
  // The response bodies, cut anywhere, must read as corruption — the
  // retry hint and the tag rows add trailing fields a lenient decoder
  // might silently default instead.
  for (const std::string& frame :
       {BusyHintResponseFrame(), TaggedStatsResponseFrame()}) {
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    const std::string original(body.value());
    for (size_t cut = 0; cut < original.size(); ++cut) {
      auto decoded =
          DecodeResponse(std::string_view(original).substr(0, cut));
      ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "cut=" << cut << ": " << decoded.status().ToString();
    }
    EXPECT_EQ(DecodeResponse(original + '\0').status().code(),
              StatusCode::kCorruption);
  }
  // Same for the SET_TAG request body on the request decoder.
  {
    // DecodeFrame returns a view into its argument: keep the frame alive.
    const std::string frame = SetTagRequestFrame();
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    const std::string original(body.value());
    for (size_t cut = 0; cut < original.size(); ++cut) {
      auto decoded = DecodeRequest(std::string_view(original).substr(0, cut));
      ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << "cut=" << cut << ": " << decoded.status().ToString();
    }
    EXPECT_EQ(DecodeRequest(original + 'x').status().code(),
              StatusCode::kCorruption);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProtocolV7CorruptionTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace dd
