// Randomized differential testing: long random operation sequences
// (add / weighted add / remove / merge / serialize-roundtrip / clear)
// executed against both a DDSketch and an exact reference multiset, with
// invariant checks after every phase. Seeds sweep via TEST_P so failures
// reproduce exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/ddsketch.h"
#include "data/ground_truth.h"
#include "server/protocol.h"
#include "timeseries/sketch_store.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/crc32.h"
#include "util/frame.h"
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

std::string HexBytes(std::string_view bytes) {
  std::string out;
  char buf[3];
  for (const char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<uint8_t>(c));
    out += buf;
  }
  return out;
}

/// `value` as a LEB128 varint of exactly `width` bytes, at least its
/// minimal width: zero groups with the continuation bit pad it out.
std::string PaddedVarint(uint64_t value, int width) {
  std::string out;
  for (int i = 0; i < width; ++i) {
    uint8_t group = 7 * i < 64 ? (value >> (7 * i)) & 0x7f : 0;
    if (i + 1 < width) group |= 0x80;
    out.push_back(static_cast<char>(group));
  }
  return out;
}

int VarintWidth(uint64_t value) {
  std::string encoded;
  PutVarint64(&encoded, value);
  return static_cast<int>(encoded.size());
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
// The MERGE path. A store walks a MERGE payload once
// (DDSketch::CheckSerialized), takes the payload's own image when it is
// canonical for the store and builds the image of any other payload
// once (MergeImageOf), then adds it (IngestImage): copied into an empty
// interval, MergeEncoded into a dense one, and into a frozen one after a
// thaw. A store fed that way must equal, byte for byte, a reference fed
// by Deserialize + IngestSketch, for payloads of every shape a peer may
// send. And the walk must refuse exactly what the decoder before it
// refused. That decoder is kept below as the oracle: the payload read
// through Slice field by field, each bucket added in payload order.

/// What the oracle decoded.
struct OracleSketch {
  DDSketchConfig config;
  uint64_t zero = 0, rejected = 0, clamped = 0;
  double sum = 0, min = 0, max = 0;
  std::unique_ptr<Store> positive, negative;
};

Status OracleDecodeStore(Slice* in, Store* store) {
  uint64_t n_entries = 0;
  DD_RETURN_IF_ERROR(in->GetVarint64(&n_entries));
  int64_t index = 0;
  for (uint64_t i = 0; i < n_entries; ++i) {
    if (i == 0) {
      DD_RETURN_IF_ERROR(in->GetVarintSigned64(&index));
    } else {
      uint64_t delta = 0;
      DD_RETURN_IF_ERROR(in->GetVarint64(&delta));
      if (delta == 0) return Status::Corruption("non-ascending store entry");
      // `index += static_cast<int64_t>(delta)`, added modulo 2^64: the
      // same index wherever that signed add is defined.
      index = static_cast<int64_t>(static_cast<uint64_t>(index) + delta);
    }
    if (index < INT32_MIN || index > INT32_MAX) {
      return Status::Corruption("store index out of int32 range");
    }
    uint64_t count = 0;
    DD_RETURN_IF_ERROR(in->GetVarint64(&count));
    if (count == 0) return Status::Corruption("zero-count store entry");
    if (store != nullptr) store->Add(static_cast<int32_t>(index), count);
  }
  return Status::OK();
}

/// The oracle; decodes into *out unless it is null (a check only, which
/// allocates no stores: flipped bits may declare huge spans).
Status OracleDecode(std::string_view payload, OracleSketch* out) {
  Slice in(payload);
  std::string_view magic;
  DD_RETURN_IF_ERROR(in.GetBytes(4, &magic));
  if (magic != "DDSK") {
    return Status::Corruption("bad magic; not a DDSketch payload");
  }
  std::string_view header;
  DD_RETURN_IF_ERROR(in.GetBytes(2, &header));
  if (static_cast<uint8_t>(header[0]) != 1) {
    return Status::Corruption("unsupported DDSketch version");
  }
  const uint8_t mapping_tag = static_cast<uint8_t>(header[1]);
  if (mapping_tag > static_cast<uint8_t>(MappingType::kCubicInterpolated)) {
    return Status::Corruption("unknown mapping type tag");
  }
  double alpha = 0;
  DD_RETURN_IF_ERROR(in.GetFixedDouble(&alpha));
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Corruption("relative accuracy out of (0, 1)");
  }
  std::string_view store_tag_bytes;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &store_tag_bytes));
  const uint8_t store_tag = static_cast<uint8_t>(store_tag_bytes[0]);
  if (store_tag > static_cast<uint8_t>(StoreType::kSparse)) {
    return Status::Corruption("unknown store type tag");
  }
  uint64_t max_buckets = 0;
  DD_RETURN_IF_ERROR(in.GetVarint64(&max_buckets));
  if (max_buckets > INT32_MAX) {
    return Status::Corruption("max_num_buckets out of range");
  }
  OracleSketch local;
  OracleSketch& sketch = out != nullptr ? *out : local;
  sketch.config.relative_accuracy = alpha;
  sketch.config.mapping = static_cast<MappingType>(mapping_tag);
  sketch.config.store = static_cast<StoreType>(store_tag);
  sketch.config.max_num_buckets = static_cast<int32_t>(max_buckets);
  auto created = DDSketch::Create(sketch.config);
  if (!created.ok()) {
    return Status::Corruption("invalid sketch parameters: " +
                              created.status().message());
  }
  if (out != nullptr) {
    out->positive = std::move(Store::Create(sketch.config.store,
                                            sketch.config.max_num_buckets))
                        .value();
    out->negative =
        std::move(Store::Create(created.value().negative_store().type(),
                                sketch.config.max_num_buckets))
            .value();
  }
  DD_RETURN_IF_ERROR(in.GetVarint64(&sketch.zero));
  DD_RETURN_IF_ERROR(in.GetVarint64(&sketch.rejected));
  DD_RETURN_IF_ERROR(in.GetVarint64(&sketch.clamped));
  DD_RETURN_IF_ERROR(in.GetFixedDouble(&sketch.sum));
  DD_RETURN_IF_ERROR(in.GetFixedDouble(&sketch.min));
  DD_RETURN_IF_ERROR(in.GetFixedDouble(&sketch.max));
  DD_RETURN_IF_ERROR(
      OracleDecodeStore(&in, out != nullptr ? out->positive.get() : nullptr));
  DD_RETURN_IF_ERROR(
      OracleDecodeStore(&in, out != nullptr ? out->negative.get() : nullptr));
  if (!in.empty()) {
    return Status::Corruption("trailing bytes after sketch payload");
  }
  return Status::OK();
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<std::pair<int32_t, uint64_t>> BucketList(const Store& store) {
  std::vector<std::pair<int32_t, uint64_t>> buckets;
  store.ForEach([&](int32_t index, uint64_t count) {
    buckets.emplace_back(index, count);
  });
  return buckets;
}

/// Deserialize decodes `payload` to what the oracle decodes, field by
/// field and bit for bit, or refuses it with the oracle's status.
void ExpectDeserializeMatchesOracle(std::string_view payload) {
  OracleSketch want;
  const Status oracle = OracleDecode(payload, &want);
  auto got = DDSketch::Deserialize(payload);
  ASSERT_EQ(got.status(), oracle) << HexBytes(payload);
  if (!oracle.ok()) return;
  const DDSketch& sketch = got.value();
  EXPECT_EQ(sketch.mapping().type(), want.config.mapping);
  EXPECT_EQ(Bits(sketch.relative_accuracy()),
            Bits(want.config.relative_accuracy));
  EXPECT_EQ(sketch.positive_store().type(), want.positive->type());
  EXPECT_EQ(sketch.negative_store().type(), want.negative->type());
  EXPECT_EQ(sketch.positive_store().max_num_buckets(),
            want.positive->max_num_buckets());
  EXPECT_EQ(sketch.zero_count(), want.zero);
  EXPECT_EQ(sketch.rejected_count(), want.rejected);
  EXPECT_EQ(sketch.clamped_count(), want.clamped);
  EXPECT_EQ(Bits(sketch.sum()), Bits(want.sum));
  EXPECT_EQ(Bits(sketch.min()), Bits(want.min));
  EXPECT_EQ(Bits(sketch.max()), Bits(want.max));
  EXPECT_EQ(BucketList(sketch.positive_store()), BucketList(*want.positive));
  EXPECT_EQ(BucketList(sketch.negative_store()), BucketList(*want.negative));
  EXPECT_EQ(sketch.positive_store().total_count(),
            want.positive->total_count());
  EXPECT_EQ(sketch.negative_store().total_count(),
            want.negative->total_count());
}

/// The image a MERGE of `payload` into an empty interval of the store's
/// configuration stores: Freeze() of the decoded payload merged into an
/// empty sketch.
std::string MergedImage(std::string_view payload) {
  DDSketch merged = EmptyAccumulator();
  EXPECT_TRUE(
      merged.MergeFrom(DDSketch::Deserialize(payload).value()).ok());
  return merged.Freeze();
}

/// The walk and the oracle agree on `payload`: the same verdict and
/// status. When the walk accepts a payload with the store's header and
/// calls its image canonical, the image is MergedImage's. With `both_ways`
/// the converse is checked too: a payload whose image is MergedImage's
/// is called canonical. That decodes payloads that are not canonical, so
/// it is left out for flipped bits, which may declare buckets billions
/// of indices apart (a dense store allocates across the gap).
void ExpectWalkMatchesOracle(std::string_view payload, bool both_ways) {
  DDSketch::SerializedView view;
  const Status walked = DDSketch::CheckSerialized(payload, &view);
  ASSERT_EQ(walked, OracleDecode(payload, nullptr)) << HexBytes(payload);
  if (!walked.ok()) return;
  EXPECT_EQ(std::string(view.header) + std::string(view.image), payload);
  if (view.header == EmptyAccumulator().SerializedHeader() &&
      (view.canonical || both_ways)) {
    EXPECT_EQ(view.canonical, view.image == MergedImage(payload))
        << HexBytes(payload);
  }
}

/// The fields of a hand-made frozen image. Bucket lists are in payload
/// order; an index below its predecessor is encoded as the delta that
/// wraps modulo 2^64 (a block that does not ascend).
struct ImageFields {
  uint64_t zero = 0, rejected = 0, clamped = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::vector<std::pair<int64_t, uint64_t>> positive, negative;
};

/// Which varint of an image EncodeImage writes two bytes longer than it
/// must.
enum class Pad { kNone, kZeroCount, kFirstIndex, kCount, kDelta };

std::string EncodeImage(const ImageFields& f, Pad pad = Pad::kNone) {
  std::string out;
  const auto varint = [&out](uint64_t value, bool padded) {
    out += PaddedVarint(value, VarintWidth(value) + (padded ? 2 : 0));
  };
  varint(f.zero, pad == Pad::kZeroCount);
  varint(f.rejected, false);
  varint(f.clamped, false);
  PutFixedDouble(&out, f.sum);
  PutFixedDouble(&out, f.min);
  PutFixedDouble(&out, f.max);
  for (const auto* block : {&f.positive, &f.negative}) {
    varint(block->size(), false);
    for (size_t i = 0; i < block->size(); ++i) {
      const auto [index, count] = (*block)[i];
      if (i == 0) {
        varint(ZigZagEncode(index), pad == Pad::kFirstIndex);
      } else {
        varint(static_cast<uint64_t>(index) -
                   static_cast<uint64_t>((*block)[i - 1].first),
               pad == Pad::kDelta && i == 1);
      }
      varint(count, pad == Pad::kCount && i == 0);
    }
  }
  return out;
}

/// SerializedHeader() of the store's configuration with another store
/// type and bound.
std::string HeaderOf(StoreType store, int32_t bound) {
  DDSketchConfig config;
  config.store = store;
  config.max_num_buckets = bound;
  return std::move(DDSketch::Create(config)).value().SerializedHeader();
}

/// Buckets over exactly `span` indices from `lo`: both ends, and every
/// seventh index between them.
std::vector<std::pair<int64_t, uint64_t>> SpanBuckets(int64_t lo,
                                                      int64_t span) {
  std::vector<std::pair<int64_t, uint64_t>> buckets;
  for (int64_t i = 0; i < span; ++i) {
    if (i == 0 || i + 1 == span || i % 7 == 0) {
      buckets.emplace_back(lo + i, 1 + static_cast<uint64_t>(i % 5));
    }
  }
  return buckets;
}

/// The MERGE payloads of every shape: the store's own configuration,
/// other store types, wider bounds, narrower bounds whose own store
/// collapses at decode, spans about the store's 2048-bucket bound,
/// negative blocks, an empty sketch, odd side statistics, non-minimal
/// varints and a block that does not ascend.
std::vector<std::string> MergePayloads(Rng& rng) {
  const std::string own = HeaderOf(StoreType::kCollapsingLowestDense, 2048);
  std::vector<std::string> payloads;
  const auto real = [&](StoreType store, int32_t bound, double decades) {
    const int n = static_cast<int>(1 + rng.NextBounded(1000));
    payloads.push_back(
        RandomSketch(rng, store, bound, n, decades).Serialize());
  };
  for (const double decades : {4.0, 24.0}) {
    real(StoreType::kCollapsingLowestDense, 2048, decades);
    real(StoreType::kUnboundedDense, 0, decades);
    real(StoreType::kCollapsingHighestDense, 2048, decades);
    real(StoreType::kSparse, 0, decades);
    real(StoreType::kSparse, 64, decades);
    real(StoreType::kCollapsingLowestDense, 4096, decades);
  }
  // Narrower bounds: an unbounded sketch's image under a header whose
  // store holds 100 buckets, which collapses at decode.
  const DDSketch wide = RandomSketch(rng, StoreType::kUnboundedDense, 0,
                                     static_cast<int>(200 + rng.NextBounded(400)),
                                     24.0);
  payloads.push_back(HeaderOf(StoreType::kCollapsingLowestDense, 100) +
                     wide.Freeze());
  payloads.push_back(HeaderOf(StoreType::kCollapsingHighestDense, 100) +
                     wide.Freeze());
  payloads.push_back(HeaderOf(StoreType::kSparse, 100) + wide.Freeze());
  // Spans about the bound, under the store's own header, in each sign.
  const int64_t lo = static_cast<int64_t>(rng.NextBounded(600)) - 300;
  for (const int64_t span : {2047, 2048, 2049}) {
    ImageFields positive;
    positive.positive = SpanBuckets(lo, span);
    positive.sum = 12.5;
    positive.min = 0.5;
    positive.max = 1e9;
    payloads.push_back(own + EncodeImage(positive));
    ImageFields negative;
    negative.negative = SpanBuckets(lo, span);
    negative.sum = -12.5;
    negative.min = -1e9;
    negative.max = -0.5;
    payloads.push_back(own + EncodeImage(negative));
  }
  // Both signs and the zero bucket.
  ImageFields both;
  both.zero = 3;
  both.positive = {{-5, 2}, {0, 1}, {17, 4}};
  both.negative = {{-40, 1}, {2, 9}};
  both.sum = 1.25;
  both.min = -3.5;
  both.max = 7.0;
  payloads.push_back(own + EncodeImage(both));
  // An empty sketch.
  payloads.push_back(EmptyAccumulator().Serialize());
  // Side statistics a merge rewrites.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  for (const auto& [sum, min, max] :
       {std::tuple{-0.0, both.min, both.max}, std::tuple{both.sum, nan, both.max},
        std::tuple{both.sum, both.min, nan}, std::tuple{snan, both.min, both.max},
        std::tuple{nan, nan, nan}, std::tuple{-0.0, -0.0, -0.0}}) {
    ImageFields odd = both;
    odd.sum = sum;
    odd.min = min;
    odd.max = max;
    payloads.push_back(own + EncodeImage(odd));
  }
  // Non-minimal varints.
  for (const Pad pad :
       {Pad::kZeroCount, Pad::kFirstIndex, Pad::kCount, Pad::kDelta}) {
    payloads.push_back(own + EncodeImage(both, pad));
  }
  // A block that steps down: accepted, and decoded in payload order.
  ImageFields descending = both;
  descending.positive = {{10, 1}, {12, 2}, {11, 3}, {30, 1}};
  payloads.push_back(own + EncodeImage(descending));
  descending.positive = {{10, 1}, {12, 2}, {10, 3}};
  payloads.push_back(own + EncodeImage(descending));
  return payloads;
}

/// A store of the configuration EmptyAccumulator() has.
SketchStore MergeTargetStore() {
  SketchStoreOptions options;
  options.levels = {{10, 600}, {60, 0}};
  return std::move(SketchStore::Create(options)).value();
}

TEST(MergePayloadTest, EveryPayloadShapeDecodesAsTheOracleDoes) {
  Rng rng(7);
  for (const std::string& payload : MergePayloads(rng)) {
    ExpectDeserializeMatchesOracle(payload);
    ExpectWalkMatchesOracle(payload, /*both_ways=*/true);
  }
}

TEST(MergePayloadTest, ASketchOfTheStoresConfigurationMergesItsOwnImage) {
  // The common case builds nothing: the image merged is the payload's
  // own bytes after its header.
  Rng rng(11);
  const SketchStore store = MergeTargetStore();
  for (const double decades : {0.5, 4.0, 24.0}) {
    const std::string payload =
        RandomSketch(rng, StoreType::kCollapsingLowestDense, 2048, 1000,
                     decades)
            .Serialize();
    DDSketch::SerializedView view;
    ASSERT_TRUE(store.CheckPayload(payload, &view).ok());
    EXPECT_TRUE(view.canonical);
    std::string built;
    const std::string_view image = store.MergeImageOf(payload, view, &built);
    EXPECT_TRUE(built.empty());
    EXPECT_EQ(image.data(), payload.data() + view.header.size());
    EXPECT_EQ(image.size(), payload.size() - view.header.size());
  }
}

TEST(MergePayloadTest, AnotherMappingIsRefusedAsIncompatible) {
  SketchStore store = MergeTargetStore();
  DDSketchConfig config;
  config.relative_accuracy = 0.05;
  auto wrong = std::move(DDSketch::Create(config)).value();
  wrong.Add(1.0);
  EXPECT_EQ(store.Ingest("s", 0, wrong.Serialize()).code(),
            StatusCode::kIncompatible);
  config = DDSketchConfig{};
  config.mapping = MappingType::kCubicInterpolated;
  EXPECT_EQ(store.Ingest("s", 0,
                         std::move(DDSketch::Create(config)).value().Serialize())
                .code(),
            StatusCode::kIncompatible);
  EXPECT_EQ(store.num_series(), 0u);
}

TEST(MergePayloadTest, AWideUnboundedImageIsDecodedBeforeItIsHeld) {
  // A store with an unbounded dense store holds a payload's image as it
  // stands only while each block spans at most kMaxUnboundedSpan
  // buckets: every read of a held image expands its blocks to their
  // spans, and a 12-byte image can span 2^31 buckets.
  SketchStoreOptions options;
  options.sketch.store = StoreType::kUnboundedDense;
  options.sketch.max_num_buckets = 0;
  options.levels = {{10, 600}, {60, 0}};
  SketchStore store = std::move(SketchStore::Create(options)).value();
  SketchStore reference = std::move(SketchStore::Create(options)).value();
  const std::string header = HeaderOf(StoreType::kUnboundedDense, 0);
  // Two buckets 2^31 - 1 indices apart: accepted by a walk that
  // allocates nothing, and not canonical, so it is never held undecoded
  // (decoding it would allocate 16 GiB, so this test does not).
  ImageFields far;
  far.positive = {{0, 1}, {INT32_MAX, 1}};
  far.sum = 2.0;
  far.min = 1.0;
  far.max = 1e300;
  DDSketch::SerializedView view;
  ASSERT_TRUE(store.CheckPayload(header + EncodeImage(far), &view).ok());
  EXPECT_FALSE(view.canonical);
  // At the cap the image is held as it stands; one bucket past it, the
  // image is built. Either way the store ends as Deserialize +
  // IngestSketch leaves it.
  constexpr auto kMax =
      static_cast<int64_t>(DDSketch::SerializedView::kMaxUnboundedSpan);
  for (const int64_t span : {kMax, kMax + 1}) {
    ImageFields wide;
    wide.positive = SpanBuckets(-300, span);
    wide.sum = 12.5;
    wide.min = 0.5;
    wide.max = 1e9;
    const std::string payload = header + EncodeImage(wide);
    ASSERT_TRUE(store.CheckPayload(payload, &view).ok());
    EXPECT_EQ(view.canonical, span == kMax) << span;
    std::string built;
    store.MergeImageOf(payload, view, &built);
    EXPECT_EQ(built.empty(), span == kMax) << span;
    const int64_t timestamp = span == kMax ? 100 : 200;
    ASSERT_TRUE(store.Ingest("s", timestamp, payload).ok());
    ASSERT_TRUE(reference
                    .IngestSketch("s", timestamp,
                                  DDSketch::Deserialize(payload).value())
                    .ok());
  }
  EXPECT_EQ(EncodeSnapshot(store, 1), EncodeSnapshot(reference, 1));
}

TEST(MergePayloadTest, TruncationsAndBitFlipsAreRefusedAsTheOracleDoes) {
  Rng rng(40503);
  for (const std::string& payload : MergePayloads(rng)) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      ExpectWalkMatchesOracle(std::string_view(payload).substr(0, cut),
                              /*both_ways=*/false);
    }
    for (size_t bit = 0; bit < 8 * payload.size(); ++bit) {
      std::string flipped = payload;
      flipped[bit / 8] = static_cast<char>(
          static_cast<uint8_t>(flipped[bit / 8]) ^ (1u << (bit % 8)));
      ExpectWalkMatchesOracle(flipped, /*both_ways=*/false);
    }
    if (::testing::Test::HasFailure()) FAIL() << HexBytes(payload);
  }
}

class FuzzMergePayloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzMergePayloadTest, MatchesDeserializeAndIngestSketch) {
  // One store pair per target: payloads into fresh (empty) intervals,
  // into one interval held dense, and into one frozen before every merge.
  Rng rng(GetParam() * 40503);
  const std::vector<std::string> payloads = MergePayloads(rng);
  enum Target { kEmpty, kDense, kFrozen };
  for (const Target target : {kEmpty, kDense, kFrozen}) {
    SketchStore store = MergeTargetStore();
    SketchStore reference = MergeTargetStore();
    for (SketchStore* s : {&store, &reference}) {
      ASSERT_TRUE(s->IngestValue("s", 100, 3.0).ok());
    }
    for (size_t i = 0; i < payloads.size(); ++i) {
      const int64_t timestamp =
          target == kEmpty ? 1000 + 10 * static_cast<int64_t>(i) : 100;
      if (target == kFrozen) {
        store.Compact(-kMaxTimestamp);  // freezes every interval, folds none
        reference.Compact(-kMaxTimestamp);
      }
      const Status ingested = store.Ingest("s", timestamp, payloads[i]);
      ASSERT_TRUE(ingested.ok()) << ingested.ToString();
      ASSERT_TRUE(reference
                      .IngestSketch("s", timestamp,
                                    DDSketch::Deserialize(payloads[i]).value())
                      .ok());
      ASSERT_EQ(EncodeSnapshot(store, 1), EncodeSnapshot(reference, 1))
          << "target " << target << " payload " << i << ": "
          << HexBytes(payloads[i]);
    }
    auto merged = store.QueryRange("s", 0, 100000);
    auto want = reference.QueryRange("s", 0, 100000);
    ASSERT_TRUE(merged.ok() && want.ok());
    EXPECT_EQ(merged.value().Serialize(), want.value().Serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMergePayloadTest,
                         ::testing::Range<uint64_t>(1, 5));

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

// ---------------------------------------------------------------------
// INGEST bodies read in place. sketchd's run collector parses every
// INGEST body with DecodeIngest, which reads views and builds no Status
// per field. It must accept exactly the bodies a field-by-field Slice
// parse accepts, with equal fields, or the collector and DecodeRequest
// would disagree about what a peer sent. The mix covers one- and
// two-byte series lengths, the timestamp extremes and the double
// values that compare oddly; the mutations cover bit flips, every
// truncation, a trailing byte, over-long varints and a 10th varint byte
// carrying more than bit 63.

/// An INGEST's fields, the value as its bits (NaN payloads, -0.0).
struct IngestFields {
  std::string series;
  int64_t timestamp = 0;
  uint64_t value_bits = 0;
  bool operator==(const IngestFields&) const = default;
};

/// The reference: the INGEST layout read through Slice, field by field.
std::optional<IngestFields> SliceIngest(std::string_view body) {
  Slice in(body);
  std::string_view op;
  if (!in.GetBytes(1, &op).ok() ||
      static_cast<uint8_t>(op[0]) !=
          static_cast<uint8_t>(Request::Op::kIngest)) {
    return std::nullopt;
  }
  uint64_t series_len = 0;
  std::string_view series;
  IngestFields fields;
  double value = 0;
  if (!in.GetVarint64(&series_len).ok() || series_len > in.remaining() ||
      !in.GetBytes(series_len, &series).ok() ||
      !in.GetVarintSigned64(&fields.timestamp).ok() ||
      !in.GetFixedDouble(&value).ok() || !in.empty()) {
    return std::nullopt;
  }
  fields.series.assign(series);
  std::memcpy(&fields.value_bits, &value, sizeof(value));
  return fields;
}

std::optional<IngestFields> ViewIngest(std::string_view body) {
  const std::optional<IngestView> ingest = DecodeIngest(body);
  if (!ingest) return std::nullopt;
  IngestFields fields;
  fields.series.assign(ingest->series);
  fields.timestamp = ingest->timestamp;
  std::memcpy(&fields.value_bits, &ingest->value, sizeof(double));
  return fields;
}

/// Both parsers, and DecodeRequest, give one verdict on `body`.
void ExpectIngestParsersAgree(std::string_view body) {
  const std::optional<IngestFields> reference = SliceIngest(body);
  const std::optional<IngestFields> view = ViewIngest(body);
  ASSERT_EQ(view.has_value(), reference.has_value()) << HexBytes(body);
  if (view) {
    EXPECT_EQ(*view, *reference) << HexBytes(body);
  }
  if (body.empty() || static_cast<uint8_t>(body[0]) !=
                          static_cast<uint8_t>(Request::Op::kIngest)) {
    return;
  }
  auto request = DecodeRequest(body);
  ASSERT_EQ(request.ok(), reference.has_value()) << HexBytes(body);
  if (request.ok()) {
    EXPECT_EQ(request.value().series, reference->series);
    EXPECT_EQ(request.value().timestamp, reference->timestamp);
  } else {
    EXPECT_EQ(request.status().code(), StatusCode::kCorruption);
  }
}

/// An INGEST body from its encoded parts.
std::string IngestBody(std::string_view series_len, std::string_view series,
                       std::string_view timestamp, double value) {
  std::string body(1, static_cast<char>(Request::Op::kIngest));
  body.append(series_len);
  body.append(series);
  body.append(timestamp);
  PutFixedDouble(&body, value);
  return body;
}

/// The INGEST bodies of the mix, as EncodeRequest frames them.
std::vector<std::string> IngestWireMix() {
  const std::string series[] = {"", "s0042", std::string(127, 'a'),
                                std::string(128, 'b')};
  const int64_t timestamps[] = {0,
                                -1,
                                1700000000,
                                int64_t{1} << 61,
                                -(int64_t{1} << 61),
                                std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max()};
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -2.25e300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  std::vector<std::string> bodies;
  for (const std::string& s : series) {
    for (const int64_t ts : timestamps) {
      for (const double v : values) {
        Request request;
        request.op = Request::Op::kIngest;
        request.series = s;
        request.timestamp = ts;
        request.value = v;
        const std::string frame = EncodeRequest(request);
        size_t frame_size = 0;
        auto body = DecodeFrame(frame, &frame_size);
        EXPECT_TRUE(body.ok());
        bodies.emplace_back(body.value());
      }
    }
  }
  return bodies;
}

TEST(IngestParserDifferentialTest, WireMixAndItsFlipsTruncationsAndTails) {
  for (const std::string& body : IngestWireMix()) {
    ASSERT_TRUE(ViewIngest(body).has_value()) << HexBytes(body);
    ExpectIngestParsersAgree(body);
    for (size_t bit = 0; bit < 8 * body.size(); ++bit) {
      std::string flipped = body;
      flipped[bit / 8] = static_cast<char>(static_cast<uint8_t>(
          flipped[bit / 8] ^ (1u << (bit % 8))));
      ExpectIngestParsersAgree(flipped);
    }
    for (size_t cut = 0; cut < body.size(); ++cut) {
      ExpectIngestParsersAgree(std::string_view(body).substr(0, cut));
    }
    for (const char tail : {'\x00', '\x01', '\x80', '\xff'}) {
      ExpectIngestParsersAgree(body + tail);
    }
  }
}

TEST(IngestParserDifferentialTest, RandomEditsOfTheWireMix) {
  Rng rng(31337);
  for (const std::string& body : IngestWireMix()) {
    for (int trial = 0; trial < 40; ++trial) {
      std::string mutated = body;
      const int edits = 1 + static_cast<int>(rng.NextBounded(4));
      for (int e = 0; e < edits; ++e) {
        mutated[rng.NextBounded(mutated.size())] =
            static_cast<char>(rng.NextBounded(256));
      }
      ExpectIngestParsersAgree(mutated);
    }
  }
}

TEST(IngestParserDifferentialTest, OverLongVarints) {
  const std::string series = "s0042";
  for (const int64_t ts : {int64_t{0}, int64_t{-1}, int64_t{1700000000},
                           std::numeric_limits<int64_t>::min()}) {
    const uint64_t zigzag = ZigZagEncode(ts);
    // Padded past its minimal width, up to and past the 10-byte limit:
    // up to 10 bytes both parsers accept the value, an 11th refuses it.
    for (int width = VarintWidth(series.size()); width <= 11; ++width) {
      for (int ts_width = VarintWidth(zigzag); ts_width <= 11; ++ts_width) {
        ExpectIngestParsersAgree(
            IngestBody(PaddedVarint(series.size(), width), series,
                       PaddedVarint(zigzag, ts_width), 2.5));
      }
    }
  }
}

TEST(IngestParserDifferentialTest, TenthVarintByteCarriesOnlyBit63) {
  // A 10-byte varint's last byte holds bit 63 alone: 0x00 and 0x01 parse,
  // anything else (a continuation bit, or bits past 63) is refused.
  const std::string series = "s0042";
  for (int last = 0; last < 256; ++last) {
    std::string timestamp = PaddedVarint(ZigZagEncode(-7), 10);
    timestamp[9] = static_cast<char>(last);
    ExpectIngestParsersAgree(
        IngestBody(PaddedVarint(series.size(), 1), series, timestamp, 2.5));
    std::string series_len = PaddedVarint(series.size(), 10);
    series_len[9] = static_cast<char>(last);
    ExpectIngestParsersAgree(IngestBody(series_len, series,
                                        PaddedVarint(ZigZagEncode(-7), 1),
                                        2.5));
  }
}

TEST(IngestParserDifferentialTest, OtherRequestBodiesAreNotIngests) {
  // Every other request of the mix, and its bit flips (one of which
  // turns its op byte into INGEST's).
  Request query;
  query.op = Request::Op::kQuery;
  query.series = "s0042";
  query.start = 0;
  query.end = 3600;
  query.quantiles = {0.5, 0.99};
  Request merge;
  merge.op = Request::Op::kMerge;
  merge.series = "s0042";
  merge.timestamp = 1700000000;
  merge.payload = "not checked by the protocol";
  for (const std::string& frame :
       {EncodeRequest(query), EncodeRequest(merge), CompactRequestFrame(),
        SubscribeRequestFrame(), SetTagRequestFrame()}) {
    size_t frame_size = 0;
    auto decoded = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(decoded.ok());
    const std::string body(decoded.value());
    ASSERT_FALSE(DecodeIngest(body).has_value());
    for (size_t bit = 0; bit < 8 * body.size(); ++bit) {
      std::string flipped = body;
      flipped[bit / 8] = static_cast<char>(static_cast<uint8_t>(
          flipped[bit / 8] ^ (1u << (bit % 8))));
      ExpectIngestParsersAgree(flipped);
    }
  }
}


// ---------------------------------------------------------------------
// Frames split without a Status per field. DecodeFrame reads the length
// with ConsumeVarint64 and the CRC with one load. It must give what the
// Slice-based split gave (kept below as the reference): the same status,
// the same body view and the same *frame_size, for every prefix, bit
// flip and over-long length of the protocol fixture's frames.

/// DecodeFrame as it was: the length, CRC and body read through Slice.
Result<std::string_view> SliceDecodeFrame(std::string_view buffer,
                                          size_t* frame_size) {
  *frame_size = 0;
  Slice in(buffer);
  uint64_t body_len = 0;
  if (!in.GetVarint64(&body_len).ok()) {
    if (buffer.size() >= static_cast<size_t>(kMaxVarintBytes)) {
      return Status::Corruption("malformed frame length");
    }
    return Status::OutOfRange("incomplete frame");
  }
  if (body_len > kMaxFrameBytes) {
    return Status::Corruption("frame length implausibly large");
  }
  *frame_size = buffer.size() - in.remaining() + sizeof(uint32_t) + body_len;
  uint32_t crc = 0;
  std::string_view body;
  if (!in.GetFixed32(&crc).ok() || !in.GetBytes(body_len, &body).ok()) {
    return Status::OutOfRange("incomplete frame");
  }
  if (crc != Crc32c(body)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return body;
}

void ExpectFrameSplitsAgree(std::string_view buffer) {
  size_t want_size = 1, got_size = 2;
  const auto want = SliceDecodeFrame(buffer, &want_size);
  const auto got = DecodeFrame(buffer, &got_size);
  ASSERT_EQ(got.status(), want.status()) << HexBytes(buffer);
  EXPECT_EQ(got_size, want_size) << HexBytes(buffer);
  if (want.ok()) {
    EXPECT_EQ(got.value().data(), want.value().data());
    EXPECT_EQ(got.value().size(), want.value().size());
  }
}

/// The frames of the protocol fixture (every request, response and
/// replication frame of the v7 protocol), after its hello.
std::vector<std::string> ProtocolFixtureFrames() {
  std::ifstream in(std::string(DD_GOLDEN_DIR) + "/protocol_v7.bin",
                   std::ios::binary);
  const std::string fixture((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::vector<std::string> frames;
  std::string_view rest(fixture);
  if (rest.size() < kHelloBytes) return frames;
  rest.remove_prefix(kHelloBytes);
  while (!rest.empty()) {
    size_t frame_size = 0;
    if (!SliceDecodeFrame(rest, &frame_size).ok()) break;
    frames.emplace_back(rest.substr(0, frame_size));
    rest.remove_prefix(frame_size);
  }
  return frames;
}

TEST(FrameSplitDifferentialTest, PrefixesFlipsAndOverLongLengths) {
  const std::vector<std::string> frames = ProtocolFixtureFrames();
  ASSERT_GE(frames.size(), 20u);
  for (size_t f = 0; f < frames.size(); ++f) {
    const std::string& frame = frames[f];
    // Every prefix, and the frame with the next one buffered behind it.
    for (size_t cut = 0; cut <= frame.size(); ++cut) {
      ExpectFrameSplitsAgree(std::string_view(frame).substr(0, cut));
    }
    ExpectFrameSplitsAgree(frame + frames[(f + 1) % frames.size()]);
    // Every single-bit flip.
    for (size_t bit = 0; bit < 8 * frame.size(); ++bit) {
      std::string flipped = frame;
      flipped[bit / 8] = static_cast<char>(
          static_cast<uint8_t>(flipped[bit / 8]) ^ (1u << (bit % 8)));
      ExpectFrameSplitsAgree(flipped);
    }
    // The length padded to every width up to past kMaxVarintBytes, each
    // with every prefix, and lengths at and past kMaxFrameBytes.
    std::string_view length_and_rest(frame);
    uint64_t body_len = 0;
    ASSERT_TRUE(ConsumeVarint64(&length_and_rest, &body_len));
    const std::string_view rest = length_and_rest;
    for (int width = VarintWidth(body_len); width <= kMaxVarintBytes + 2;
         ++width) {
      const std::string padded = PaddedVarint(body_len, width) + std::string(rest);
      for (size_t cut = 0; cut <= padded.size(); ++cut) {
        ExpectFrameSplitsAgree(std::string_view(padded).substr(0, cut));
      }
    }
    for (const uint64_t len :
         {kMaxFrameBytes, kMaxFrameBytes + 1, uint64_t{1} << 63,
          std::numeric_limits<uint64_t>::max()}) {
      std::string huge;
      PutVarint64(&huge, len);
      ExpectFrameSplitsAgree(huge + std::string(rest));
    }
    if (::testing::Test::HasFailure()) FAIL() << "frame " << f;
  }
}
}  // namespace
}  // namespace dd
