#include "core/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace dd {
namespace {

std::unique_ptr<Store> MakeStore(StoreType type, int32_t max_buckets) {
  auto r = Store::Create(type, max_buckets);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---- behaviour shared by every store type (unbounded configuration) -----

class AnyStoreTest : public ::testing::TestWithParam<StoreType> {
 protected:
  std::unique_ptr<Store> Make(int32_t max_buckets = 1 << 20) {
    // Large cap: collapsing stores behave like unbounded ones in these
    // shared tests.
    return MakeStore(GetParam(), max_buckets);
  }
};

TEST_P(AnyStoreTest, EmptyInvariants) {
  auto s = Make();
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->total_count(), 0u);
  EXPECT_EQ(s->num_buckets(), 0u);
  int calls = 0;
  s->ForEach([&](int32_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_P(AnyStoreTest, SingleBucket) {
  auto s = Make();
  s->Add(42, 3);
  EXPECT_EQ(s->total_count(), 3u);
  EXPECT_EQ(s->min_index(), 42);
  EXPECT_EQ(s->max_index(), 42);
  EXPECT_EQ(s->num_buckets(), 1u);
  EXPECT_EQ(s->KeyAtRank(0), 42);
  EXPECT_EQ(s->KeyAtRank(2.9), 42);
}

TEST_P(AnyStoreTest, AddZeroCountIsNoOp) {
  auto s = Make();
  s->Add(5, 0);
  EXPECT_TRUE(s->empty());
}

TEST_P(AnyStoreTest, NegativeAndPositiveIndices) {
  auto s = Make();
  s->Add(-100, 1);
  s->Add(0, 2);
  s->Add(100, 3);
  EXPECT_EQ(s->min_index(), -100);
  EXPECT_EQ(s->max_index(), 100);
  EXPECT_EQ(s->total_count(), 6u);
  EXPECT_EQ(s->num_buckets(), 3u);
}

TEST_P(AnyStoreTest, ForEachAscendingAndComplete) {
  auto s = Make();
  Rng rng(11);
  std::map<int32_t, uint64_t> expected;
  for (int i = 0; i < 2000; ++i) {
    const int32_t index = static_cast<int32_t>(rng.NextBounded(400)) - 200;
    const uint64_t count = 1 + rng.NextBounded(5);
    expected[index] += count;
    s->Add(index, count);
  }
  std::map<int32_t, uint64_t> seen;
  int32_t prev = INT32_MIN;
  s->ForEach([&](int32_t index, uint64_t count) {
    EXPECT_GT(index, prev);
    prev = index;
    seen[index] = count;
  });
  EXPECT_EQ(seen, expected);
}

TEST_P(AnyStoreTest, KeyAtRankMatchesLinearScan) {
  auto s = Make();
  Rng rng(12);
  std::map<int32_t, uint64_t> model;
  for (int i = 0; i < 500; ++i) {
    const int32_t index = static_cast<int32_t>(rng.NextBounded(100)) - 50;
    model[index] += 1;
    s->Add(index, 1);
  }
  const uint64_t n = s->total_count();
  for (double rank : {0.0, 0.5, 10.0, 250.0, 499.0, n - 1.0}) {
    uint64_t cum = 0;
    int32_t expected = model.rbegin()->first;
    for (const auto& [index, count] : model) {
      cum += count;
      if (static_cast<double>(cum) > rank) {
        expected = index;
        break;
      }
    }
    EXPECT_EQ(s->KeyAtRank(rank), expected) << "rank=" << rank;
  }
}

TEST_P(AnyStoreTest, KeyAtRankDescendingMirrors) {
  auto s = Make();
  s->Add(1, 10);
  s->Add(2, 10);
  s->Add(3, 10);
  // Descending: ranks 0..9 -> 3, 10..19 -> 2, 20..29 -> 1.
  EXPECT_EQ(s->KeyAtRankDescending(0), 3);
  EXPECT_EQ(s->KeyAtRankDescending(9.5), 3);
  EXPECT_EQ(s->KeyAtRankDescending(10), 2);
  EXPECT_EQ(s->KeyAtRankDescending(25), 1);
}

TEST_P(AnyStoreTest, CumulativeCountMatchesModel) {
  auto s = Make();
  Rng rng(14);
  std::map<int32_t, uint64_t> model;
  for (int i = 0; i < 1000; ++i) {
    const int32_t index = static_cast<int32_t>(rng.NextBounded(200)) - 100;
    const uint64_t count = 1 + rng.NextBounded(4);
    model[index] += count;
    s->Add(index, count);
  }
  for (int32_t probe = -120; probe <= 120; probe += 3) {
    uint64_t expected = 0;
    for (const auto& [index, count] : model) {
      if (index <= probe) expected += count;
    }
    EXPECT_EQ(s->CumulativeCount(probe), expected) << probe;
  }
  EXPECT_EQ(s->CumulativeCount(INT32_MAX), s->total_count());
  EXPECT_EQ(s->CumulativeCount(INT32_MIN), 0u);
}

TEST_P(AnyStoreTest, CumulativeCountInvertsKeyAtRank) {
  auto s = Make();
  Rng rng(15);
  for (int i = 0; i < 500; ++i) {
    s->Add(static_cast<int32_t>(rng.NextBounded(60)), 1);
  }
  for (double rank : {0.0, 10.0, 100.0, 499.0}) {
    const int32_t key = s->KeyAtRank(rank);
    // The cumulative count through `key` must exceed the rank, and the
    // cumulative count below must not.
    EXPECT_GT(static_cast<double>(s->CumulativeCount(key)), rank);
    EXPECT_LE(static_cast<double>(s->CumulativeCount(key - 1)), rank);
  }
}

TEST_P(AnyStoreTest, RemoveDecrements) {
  auto s = Make();
  s->Add(7, 5);
  EXPECT_EQ(s->Remove(7, 2), 2u);
  EXPECT_EQ(s->total_count(), 3u);
  EXPECT_EQ(s->Remove(7, 10), 3u);  // clamped at what's present
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->Remove(7, 1), 0u);  // nothing left
  EXPECT_EQ(s->Remove(99, 1), 0u);  // never present
}

TEST_P(AnyStoreTest, RemoveUpdatesExtremes) {
  auto s = Make();
  s->Add(1, 1);
  s->Add(5, 1);
  s->Add(9, 1);
  EXPECT_EQ(s->Remove(9, 1), 1u);
  EXPECT_EQ(s->max_index(), 5);
  EXPECT_EQ(s->Remove(1, 1), 1u);
  EXPECT_EQ(s->min_index(), 5);
}

TEST_P(AnyStoreTest, ClearResets) {
  auto s = Make();
  s->Add(3, 4);
  s->Clear();
  EXPECT_TRUE(s->empty());
  EXPECT_EQ(s->num_buckets(), 0u);
  s->Add(-8, 1);  // usable after clear
  EXPECT_EQ(s->min_index(), -8);
}

TEST_P(AnyStoreTest, CloneIsDeepAndEqual) {
  auto s = Make();
  s->Add(1, 2);
  s->Add(10, 3);
  auto c = s->Clone();
  s->Add(20, 5);  // original diverges
  EXPECT_EQ(c->total_count(), 5u);
  EXPECT_EQ(c->max_index(), 10);
  EXPECT_EQ(s->total_count(), 10u);
}

TEST_P(AnyStoreTest, MergeMatchesSequentialAdds) {
  Rng rng(13);
  auto merged = Make();
  auto reference = Make();
  auto other = Make();
  for (int i = 0; i < 3000; ++i) {
    const int32_t index = static_cast<int32_t>(rng.NextBounded(300)) - 150;
    if (i % 2 == 0) {
      merged->Add(index, 1);
    } else {
      other->Add(index, 1);
    }
    reference->Add(index, 1);
  }
  merged->MergeFrom(*other);
  EXPECT_EQ(merged->total_count(), reference->total_count());
  std::map<int32_t, uint64_t> a, b;
  merged->ForEach([&](int32_t i, uint64_t c) { a[i] = c; });
  reference->ForEach([&](int32_t i, uint64_t c) { b[i] = c; });
  EXPECT_EQ(a, b);
}

TEST_P(AnyStoreTest, SizeInBytesIsPositiveAndGrows) {
  auto s = Make();
  const size_t empty_size = s->size_in_bytes();
  EXPECT_GT(empty_size, 0u);
  for (int i = 0; i < 1000; ++i) s->Add(i, 1);
  EXPECT_GT(s->size_in_bytes(), empty_size);
}

INSTANTIATE_TEST_SUITE_P(AllStores, AnyStoreTest,
                         ::testing::Values(StoreType::kUnboundedDense,
                                           StoreType::kCollapsingLowestDense,
                                           StoreType::kCollapsingHighestDense,
                                           StoreType::kSparse),
                         [](const ::testing::TestParamInfo<StoreType>& info) {
                           return StoreTypeToString(info.param);
                         });

// ---- collapse semantics ---------------------------------------------------

TEST(CollapsingLowestTest, FoldsLowIndicesWhenSpanExceeded) {
  CollapsingLowestDenseStore s(/*max_num_buckets=*/4);
  for (int32_t i = 0; i < 8; ++i) s.Add(i, 1);
  // Span capped at 4: indices 0..4 folded into 4.
  EXPECT_EQ(s.total_count(), 8u);
  EXPECT_TRUE(s.has_collapsed());
  EXPECT_EQ(s.min_index(), 4);
  EXPECT_EQ(s.max_index(), 7);
  std::map<int32_t, uint64_t> got;
  s.ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  const std::map<int32_t, uint64_t> expected = {{4, 5}, {5, 1}, {6, 1}, {7, 1}};
  EXPECT_EQ(got, expected);

  // A fold across a wide gap: the array moves onto the window the fold
  // leaves instead of spanning the gap (which would take 128 MB here).
  constexpr int32_t kFar = 1 << 24;
  CollapsingLowestDenseStore wide(2048);
  wide.Add(0, 3);
  wide.Add(kFar, 1);
  EXPECT_LT(wide.size_in_bytes(), 64u << 10);
  EXPECT_TRUE(wide.has_collapsed());
  EXPECT_EQ(wide.min_index(), kFar - 2047);
  EXPECT_EQ(wide.max_index(), kFar);
  got.clear();
  wide.ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  EXPECT_EQ(got, (std::map<int32_t, uint64_t>{{kFar - 2047, 3}, {kFar, 1}}));
  EXPECT_EQ(wide.Remove(0, 1), 1u);  // redirected into the fold bucket
  EXPECT_EQ(wide.total_count(), 3u);
  wide.Add(kFar + 1, 1);  // the window slides within the moved array
  EXPECT_EQ(wide.min_index(), kFar - 2046);
  EXPECT_EQ(wide.total_count(), 4u);
}

TEST(CollapsingLowestTest, LowIncomingValueRedirected) {
  CollapsingLowestDenseStore s(4);
  s.Add(100, 1);
  s.Add(103, 1);
  s.Add(0, 7);  // far below the window [100, 103]: folds to its bottom
  EXPECT_EQ(s.min_index(), 100);
  std::map<int32_t, uint64_t> got;
  s.ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  const std::map<int32_t, uint64_t> expected = {{100, 8}, {103, 1}};
  EXPECT_EQ(got, expected);
}

TEST(CollapsingLowestTest, NoCollapseWithinBound) {
  CollapsingLowestDenseStore s(10);
  for (int32_t i = 0; i < 10; ++i) s.Add(i, 1);
  EXPECT_FALSE(s.has_collapsed());
  EXPECT_EQ(s.num_buckets(), 10u);
}

TEST(CollapsingLowestTest, UpperBucketsExactAfterCollapse) {
  // Collapse must never disturb counts above the fold boundary.
  CollapsingLowestDenseStore s(8);
  for (int32_t i = 0; i < 100; ++i) s.Add(i, 1);
  uint64_t above = 0;
  s.ForEach([&](int32_t i, uint64_t c) {
    if (i > 92) {
      above += c;
      EXPECT_EQ(c, 1u) << i;
    }
  });
  EXPECT_EQ(above, 7u);
  EXPECT_EQ(s.total_count(), 100u);
}

TEST(CollapsingHighestTest, FoldsHighIndices) {
  CollapsingHighestDenseStore s(4);
  for (int32_t i = 0; i < 8; ++i) s.Add(i, 1);
  EXPECT_TRUE(s.has_collapsed());
  EXPECT_EQ(s.min_index(), 0);
  EXPECT_EQ(s.max_index(), 3);
  std::map<int32_t, uint64_t> got;
  s.ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  const std::map<int32_t, uint64_t> expected = {{0, 1}, {1, 1}, {2, 1}, {3, 5}};
  EXPECT_EQ(got, expected);

  // The mirror of CollapsingLowestTest's wide gap.
  constexpr int32_t kFar = 1 << 24;
  CollapsingHighestDenseStore wide(2048);
  wide.Add(kFar, 3);
  wide.Add(0, 1);
  EXPECT_LT(wide.size_in_bytes(), 64u << 10);
  EXPECT_TRUE(wide.has_collapsed());
  EXPECT_EQ(wide.min_index(), 0);
  EXPECT_EQ(wide.max_index(), 2047);
  got.clear();
  wide.ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  EXPECT_EQ(got, (std::map<int32_t, uint64_t>{{0, 1}, {2047, 3}}));
  EXPECT_EQ(wide.Remove(kFar, 1), 1u);  // redirected into the fold bucket
  EXPECT_EQ(wide.total_count(), 3u);
  wide.Add(-1, 1);  // the window slides within the moved array
  EXPECT_EQ(wide.max_index(), 2046);
  EXPECT_EQ(wide.total_count(), 4u);
}

TEST(IndexSpanTest, ExtremeIndicesDoNotOverflow) {
  // Read through volatiles so the subtraction runs where a sanitizer
  // sees it, not in the compiler's constant folding.
  volatile int32_t lo = std::numeric_limits<int32_t>::min();
  volatile int32_t hi = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(IndexSpan(lo, hi), (int64_t{1} << 32) - 1);
  EXPECT_EQ(IndexSpan(hi, lo), -((int64_t{1} << 32) - 1));
  CollapsingLowestDenseStore lowest(2048);
  EXPECT_FALSE(lowest.ReserveMergeSpan(lo, hi, 1));

  // Folds at both ends of the index range keep the array inside it.
  lowest.Add(lo, 1);
  lowest.Add(hi, 1);
  EXPECT_LT(lowest.size_in_bytes(), 64u << 10);
  EXPECT_EQ(lowest.min_index(), hi - 2047);
  EXPECT_EQ(lowest.max_index(), hi);
  EXPECT_EQ(lowest.total_count(), 2u);
  CollapsingHighestDenseStore highest(2048);
  highest.Add(hi, 1);
  highest.Add(lo, 1);
  EXPECT_LT(highest.size_in_bytes(), 64u << 10);
  EXPECT_EQ(highest.min_index(), lo);
  EXPECT_EQ(highest.max_index(), lo + 2047);
  EXPECT_EQ(highest.total_count(), 2u);

  // The bucket walks stop at the range's ends instead of stepping past.
  const auto buckets = [](const Store& store, bool descending) {
    std::vector<int32_t> seen;
    const auto visit = [&](int32_t i, uint64_t) { seen.push_back(i); };
    descending ? store.ForEachDescending(visit) : store.ForEach(visit);
    return seen;
  };
  EXPECT_EQ(buckets(lowest, false), (std::vector<int32_t>{hi - 2047, hi}));
  EXPECT_EQ(buckets(highest, true), (std::vector<int32_t>{lo + 2047, lo}));
  EXPECT_EQ(lowest.num_buckets(), 2u);
  CollapsingLowestDenseStore merged(2048);
  merged.MergeFrom(lowest);
  EXPECT_EQ(buckets(merged, true), (std::vector<int32_t>{hi, hi - 2047}));
}

TEST(CollapsingHighestTest, HighIncomingValueRedirected) {
  CollapsingHighestDenseStore s(4);
  s.Add(0, 1);
  s.Add(3, 1);
  s.Add(50, 9);
  EXPECT_EQ(s.max_index(), 3);
  std::map<int32_t, uint64_t> got;
  s.ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  const std::map<int32_t, uint64_t> expected = {{0, 1}, {3, 10}};
  EXPECT_EQ(got, expected);
}

TEST(SparseBoundedTest, PaperLiteralCollapseOnNonEmptyCount) {
  // Algorithm 3: the bound is on *non-empty* buckets; the two lowest merge.
  SparseStore s(/*max_num_buckets=*/3);
  s.Add(10, 1);
  s.Add(20, 2);
  s.Add(30, 3);
  EXPECT_EQ(s.num_buckets(), 3u);
  s.Add(40, 4);  // exceeds: buckets 10 and 20 merge into 20
  EXPECT_EQ(s.num_buckets(), 3u);
  std::map<int32_t, uint64_t> got;
  s.ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  const std::map<int32_t, uint64_t> expected = {{20, 3}, {30, 3}, {40, 4}};
  EXPECT_EQ(got, expected);
}

TEST(SparseBoundedTest, WideSpanFineWhileFewBuckets) {
  // Contrast with the dense collapsing store: span doesn't matter, only
  // the bucket count.
  SparseStore s(3);
  s.Add(-1000000, 1);
  s.Add(0, 1);
  s.Add(1000000, 1);
  EXPECT_EQ(s.num_buckets(), 3u);
  EXPECT_EQ(s.min_index(), -1000000);
  EXPECT_EQ(s.max_index(), 1000000);
}

TEST(CollapseEquivalenceTest, MergeOrderIndependent) {
  // Fully-mergeable property at the store level: merging in any order and
  // adding everything to one store agree bucket-for-bucket.
  Rng rng(21);
  std::vector<std::pair<int32_t, uint64_t>> all;
  for (int i = 0; i < 4000; ++i) {
    all.emplace_back(static_cast<int32_t>(rng.NextBounded(3000)),
                     1 + rng.NextBounded(3));
  }
  CollapsingLowestDenseStore single(128);
  for (auto [i, c] : all) single.Add(i, c);

  CollapsingLowestDenseStore parts[4] = {
      CollapsingLowestDenseStore(128), CollapsingLowestDenseStore(128),
      CollapsingLowestDenseStore(128), CollapsingLowestDenseStore(128)};
  for (size_t i = 0; i < all.size(); ++i) {
    parts[i % 4].Add(all[i].first, all[i].second);
  }
  // Merge in a skewed order: ((3 <- 1), (0 <- 2)), then 3 <- 0.
  parts[3].MergeFrom(parts[1]);
  parts[0].MergeFrom(parts[2]);
  parts[3].MergeFrom(parts[0]);

  std::map<int32_t, uint64_t> got, expected;
  parts[3].ForEach([&](int32_t i, uint64_t c) { got[i] = c; });
  single.ForEach([&](int32_t i, uint64_t c) { expected[i] = c; });
  EXPECT_EQ(got, expected);
}

TEST(CollapsingLowestTest, AddRemoveRoundTripThroughFoldBoundary) {
  // Regression: Remove used to check only the raw [min_index, max_index]
  // bounds, so a value whose Add was redirected into the fold bucket
  // could never be removed (or, pre-collapse state permitting, drained
  // the wrong bucket). Remove now redirects through the same boundary.
  CollapsingLowestDenseStore store(4);
  for (int32_t i = 6; i <= 9; ++i) store.Add(i, 1);  // saturate [6, 9]
  store.Add(2, 1);  // below the window: folded into bucket 6
  EXPECT_EQ(store.total_count(), 5u);
  EXPECT_EQ(store.CumulativeCount(6), 2u);
  EXPECT_EQ(store.Remove(2, 1), 1u);  // mirrors the Add redirect
  EXPECT_EQ(store.total_count(), 4u);
  EXPECT_EQ(store.CumulativeCount(6), 1u);
}

TEST(CollapsingLowestTest, RemoveBelowWindowWithoutCollapseRejects) {
  // The redirect must not fire while the store is still lossless: with no
  // fold ever performed, a below-window index was simply never added, and
  // draining the boundary bucket would delete a different value's mass.
  CollapsingLowestDenseStore store(4);
  for (int32_t i = 6; i <= 9; ++i) store.Add(i, 1);  // saturated, lossless
  ASSERT_FALSE(store.has_collapsed());
  EXPECT_EQ(store.Remove(2, 1), 0u);
  EXPECT_EQ(store.total_count(), 4u);
  EXPECT_EQ(store.CumulativeCount(6), 1u);
}

TEST(CollapsingLowestTest, ClearResetsCollapseStateForRemoveRedirect) {
  // Clear() must reset the fold history: a refilled store that has lost
  // nothing since the Clear must reject below-window removals again
  // rather than redirect them into the boundary bucket.
  CollapsingLowestDenseStore store(4);
  for (int32_t i = 6; i <= 9; ++i) store.Add(i, 1);
  store.Add(2, 1);  // collapse
  ASSERT_TRUE(store.has_collapsed());
  store.Clear();
  EXPECT_FALSE(store.has_collapsed());
  for (int32_t i = 6; i <= 9; ++i) store.Add(i, 1);  // lossless refill
  EXPECT_EQ(store.Remove(2, 1), 0u);
  EXPECT_EQ(store.total_count(), 4u);
}

TEST(CollapsingLowestTest, FoldRedirectSurvivesWindowDrift) {
  // The redirect targets the recorded fold bucket, not a boundary
  // recomputed from the live window: draining the top bucket shrinks
  // max_index, and a drifting derivation would point below the window
  // and strand the folded mass forever.
  CollapsingLowestDenseStore store(4);
  for (int32_t i = 6; i <= 9; ++i) store.Add(i, 1);
  store.Add(2, 1);                    // folded into bucket 6
  EXPECT_EQ(store.Remove(9, 1), 1u);  // window max drifts down to 8
  EXPECT_EQ(store.Remove(2, 1), 1u);  // still finds the folded mass at 6
  EXPECT_EQ(store.total_count(), 3u);
}

TEST(CollapsingLowestTest, InWindowBucketBelowFoldIsNotRedirected) {
  // After removals shrink the window, a later add below the fold bucket
  // can land at its true index again. Removing that index must hit its
  // own (in-window) bucket, not the fold bucket.
  CollapsingLowestDenseStore store(4);
  for (int32_t i = 6; i <= 9; ++i) store.Add(i, 1);
  store.Add(2, 1);                    // collapse; fold bucket 6 holds 2
  EXPECT_EQ(store.Remove(9, 1), 1u);  // window shrinks to [6, 8]
  store.Add(5, 1);                    // span [5, 8] fits: true bucket 5
  EXPECT_EQ(store.Remove(5, 1), 1u);  // drains bucket 5, not bucket 6
  EXPECT_EQ(store.CumulativeCount(6) - store.CumulativeCount(5), 2u);
}

TEST(CollapsingLowestTest, MergePropagatesFoldStateForRemove) {
  // Folded mass merged into another store must stay removable: the
  // direct dense-to-dense merge carries the source's fold state along
  // with its counts.
  CollapsingLowestDenseStore src(4);
  for (int32_t i = 6; i <= 9; ++i) src.Add(i, 1);
  src.Add(2, 1);  // collapse: fold bucket 6 holds 2
  CollapsingLowestDenseStore dst(4);
  dst.MergeFrom(src);
  EXPECT_EQ(dst.Remove(2, 1), 1u);  // redirect active on the merged store
  EXPECT_EQ(dst.total_count(), 4u);
}

TEST(CollapsingLowestTest, CrossDirectionMergeDoesNotAdoptFoldState) {
  // A mirror-type source's fold bucket sits on the wrong side of the
  // destination's window; adopting it would let RemoveTarget redirect a
  // never-added low index into a live high bucket and drain it.
  CollapsingHighestDenseStore src(4);
  for (int32_t i = 50; i <= 53; ++i) src.Add(i, 1);
  src.Add(100, 1);  // collapse downward: fold bucket 53
  CollapsingLowestDenseStore dst(64);
  dst.MergeFrom(src);
  EXPECT_EQ(dst.Remove(10, 1), 0u);  // below-window index stays rejected
  EXPECT_EQ(dst.total_count(), 5u);
}

TEST(CollapsingHighestTest, AddRemoveRoundTripThroughFoldBoundary) {
  CollapsingHighestDenseStore store(4);
  for (int32_t i = 1; i <= 4; ++i) store.Add(i, 1);  // saturate [1, 4]
  store.Add(9, 1);  // above the window: folded into bucket 4
  EXPECT_EQ(store.total_count(), 5u);
  EXPECT_EQ(store.Remove(9, 1), 1u);
  EXPECT_EQ(store.total_count(), 4u);
  EXPECT_EQ(store.Remove(9, 1), 1u);  // drains the fold bucket's own mass
  EXPECT_EQ(store.total_count(), 3u);
}

TEST(CollapsingLowestTest, RandomAddRemoveRoundTripConservesTotal) {
  // Adding a multiset (collapsing along the way) and then removing the
  // exact same multiset drains the store back to empty: every remove
  // finds its mass where the fold redirect put it. Removal runs in
  // ascending index order — the fold boundary tracks the live maximum,
  // so draining the top first would move the boundary away from the
  // folded mass (the same caveat class as the paper's collapsed
  // quantiles).
  Rng rng(77);
  CollapsingLowestDenseStore store(16);
  std::vector<int32_t> added;
  for (int i = 0; i < 500; ++i) {
    const int32_t index = static_cast<int32_t>(rng.NextBounded(400));
    store.Add(index, 1);
    added.push_back(index);
  }
  EXPECT_TRUE(store.has_collapsed());
  EXPECT_EQ(store.total_count(), 500u);
  std::sort(added.begin(), added.end());
  for (int32_t index : added) {
    EXPECT_EQ(store.Remove(index, 1), 1u) << index;
  }
  EXPECT_EQ(store.total_count(), 0u);
}

// Wraps a SparseStore but counts how many buckets each ascending walk
// touches: the probe for asserting that the generic (visitor-based) rank
// queries stop at the answering bucket.
class VisitCountingSparseStore final : public Store {
 public:
  void Add(int32_t index, uint64_t count) override { inner_.Add(index, count); }
  uint64_t Remove(int32_t index, uint64_t count) override {
    return inner_.Remove(index, count);
  }
  uint64_t total_count() const noexcept override {
    return inner_.total_count();
  }
  int32_t min_index() const noexcept override { return inner_.min_index(); }
  int32_t max_index() const noexcept override { return inner_.max_index(); }
  size_t num_buckets() const noexcept override { return inner_.num_buckets(); }
  bool ForEach(BucketVisitor fn) const override {
    return inner_.ForEach([&](int32_t index, uint64_t count) -> bool {
      ++visited;
      return fn(index, count);
    });
  }
  size_t size_in_bytes() const noexcept override {
    return inner_.size_in_bytes();
  }
  void Clear() noexcept override { inner_.Clear(); }
  StoreType type() const noexcept override { return StoreType::kSparse; }
  std::unique_ptr<Store> Clone() const override {
    return std::make_unique<VisitCountingSparseStore>(*this);
  }

  mutable size_t visited = 0;

 private:
  SparseStore inner_;
};

TEST(StoreVisitorTest, KeyAtRankStopsAtAnsweringBucket) {
  // Regression: the std::function-based walk could not stop early, so
  // sparse-store rank queries kept iterating the full bucket map after
  // the target rank was found (the `found` flag only skipped the callback
  // body). The visitor walk must touch no bucket past the answer.
  VisitCountingSparseStore store;
  for (int32_t i = 0; i < 100; ++i) store.Add(i, 1);
  store.visited = 0;
  EXPECT_EQ(store.KeyAtRank(4.5), 4);  // cumulative 5 > 4.5 at bucket 4
  EXPECT_EQ(store.visited, 5u);
  store.visited = 0;
  EXPECT_EQ(store.KeyAtRank(0), 0);
  EXPECT_EQ(store.visited, 1u);
}

TEST(StoreVisitorTest, CumulativeCountStopsPastIndex) {
  VisitCountingSparseStore store;
  for (int32_t i = 0; i < 100; ++i) store.Add(i, 1);
  store.visited = 0;
  EXPECT_EQ(store.CumulativeCount(10), 11u);
  // Visits buckets 0..10 plus the one probe at 11 that stops the walk.
  EXPECT_EQ(store.visited, 12u);
}

TEST(StoreVisitorTest, ForEachEarlyTerminationReturnsFalse) {
  auto s = MakeStore(StoreType::kSparse, 0);
  for (int32_t i = 0; i < 10; ++i) s->Add(i, 1);
  int seen = 0;
  const bool completed = s->ForEach([&](int32_t, uint64_t) -> bool {
    return ++seen < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 3);
  seen = 0;
  EXPECT_TRUE(s->ForEachDescending([&](int32_t index, uint64_t) {
    EXPECT_EQ(index, 9 - seen);
    ++seen;
  }));
  EXPECT_EQ(seen, 10);
}

TEST(StoreFactoryTest, Validation) {
  EXPECT_FALSE(Store::Create(StoreType::kCollapsingLowestDense, 0).ok());
  EXPECT_FALSE(Store::Create(StoreType::kCollapsingHighestDense, -1).ok());
  EXPECT_TRUE(Store::Create(StoreType::kSparse, 0).ok());  // 0 = unbounded
  EXPECT_TRUE(Store::Create(StoreType::kUnboundedDense, 0).ok());
}

TEST(StoreStressTest, DenseHandlesAdversarialGrowthPattern) {
  // Alternating far-apart indices force repeated two-sided growth.
  UnboundedDenseStore s;
  for (int i = 1; i <= 200; ++i) {
    s.Add(i * 37, 1);
    s.Add(-i * 41, 1);
  }
  EXPECT_EQ(s.total_count(), 400u);
  EXPECT_EQ(s.min_index(), -200 * 41);
  EXPECT_EQ(s.max_index(), 200 * 37);
  EXPECT_EQ(s.num_buckets(), 400u);
}

}  // namespace
}  // namespace dd
