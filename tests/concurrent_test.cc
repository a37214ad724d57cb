#include "core/concurrent.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "data/ground_truth.h"
#include "util/rng.h"

namespace dd {
namespace {

ConcurrentDDSketch Make(int shards = 16) {
  DDSketchConfig config;
  auto r = ConcurrentDDSketch::Create(config, shards);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ConcurrentTest, CreateValidation) {
  DDSketchConfig config;
  EXPECT_FALSE(ConcurrentDDSketch::Create(config, 0).ok());
  EXPECT_FALSE(ConcurrentDDSketch::Create(config, 5000).ok());
  EXPECT_TRUE(ConcurrentDDSketch::Create(config, 1).ok());
  config.relative_accuracy = -1;
  EXPECT_FALSE(ConcurrentDDSketch::Create(config, 4).ok());
}

TEST(ConcurrentTest, SingleThreadMatchesPlainSketch) {
  ConcurrentDDSketch c = Make();
  auto plain = std::move(DDSketch::Create(0.01)).value();
  Rng rng(141);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.NextDouble() * 8);
    c.Add(x);
    plain.Add(x);
  }
  DDSketch snapshot = c.Snapshot();
  EXPECT_EQ(snapshot.count(), plain.count());
  for (double q = 0.01; q < 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(snapshot.QuantileOrNaN(q), plain.QuantileOrNaN(q)) << q;
  }
}

TEST(ConcurrentTest, AddBatchMatchesScalarAdds) {
  ConcurrentDDSketch batched = Make();
  ConcurrentDDSketch scalar = Make();
  Rng rng(142);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back(std::exp(rng.NextDouble() * 8));
  }
  batched.AddBatch(values);
  for (double v : values) scalar.Add(v);
  DDSketch a = batched.Snapshot(), b = scalar.Snapshot();
  EXPECT_EQ(a.count(), b.count());
  for (double q = 0.01; q < 1.0; q += 0.01) {
    EXPECT_DOUBLE_EQ(a.QuantileOrNaN(q), b.QuantileOrNaN(q)) << q;
  }
}

TEST(ConcurrentTest, ParallelBatchAddsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  ConcurrentDDSketch c = Make();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      Rng rng(2000 + static_cast<uint64_t>(t));
      std::vector<double> batch(1000);
      for (int i = 0; i < kPerThread; i += 1000) {
        for (double& v : batch) v = std::exp(rng.NextDouble() * 10 - 5);
        c.AddBatch(batch);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.Snapshot().count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ConcurrentTest, ParallelAddsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  ConcurrentDDSketch c = Make();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        c.Add(std::exp(rng.NextDouble() * 10 - 5));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.count(), static_cast<uint64_t>(kThreads) * kPerThread);

  // Accuracy: compare against ground truth regenerated from the same seeds.
  std::vector<double> all;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + static_cast<uint64_t>(t));
    for (int i = 0; i < kPerThread; ++i) {
      all.push_back(std::exp(rng.NextDouble() * 10 - 5));
    }
  }
  ExactQuantiles truth(all);
  DDSketch snapshot = c.Snapshot();
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_LE(RelativeError(snapshot.QuantileOrNaN(q), truth.Quantile(q)),
              0.01 * (1 + 1e-9))
        << q;
  }
}

TEST(ConcurrentTest, SnapshotDuringIngestionIsConsistent) {
  constexpr int kThreads = 4;
  ConcurrentDDSketch c = Make();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c, &stop, t] {
      Rng rng(2000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        c.Add(1.0 + rng.NextDouble());
      }
    });
  }
  // Take snapshots while writers hammer the shards; each snapshot must be
  // internally consistent (count matches its own quantile validity) and
  // counts must be non-decreasing over time.
  uint64_t last_count = 0;
  for (int i = 0; i < 50; ++i) {
    DDSketch snapshot = c.Snapshot();
    if (!snapshot.empty()) {
      const double p50 = snapshot.QuantileOrNaN(0.5);
      EXPECT_GE(p50, 1.0 * (1 - 0.011));
      EXPECT_LE(p50, 2.0 * (1 + 0.011));
    }
    EXPECT_GE(snapshot.count(), last_count);
    last_count = snapshot.count();
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(ConcurrentTest, DrainDuringIngestionLosesAndRepeatsNothing) {
  // A window drained while writers add: every value must land in exactly
  // one drain or in the final snapshot — none lost between a shard's
  // read and its reset, none counted by two drains.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  ConcurrentDDSketch c = Make(4);
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c, &running, t] {
      Rng rng(4000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) c.Add(1.0 + rng.NextDouble());
      running.fetch_sub(1);
    });
  }
  uint64_t drained = 0;
  int drains = 0;
  while (running.load() > 0) {
    const DDSketch window = c.Drain();
    drained += window.count();
    ++drains;
    if (!window.empty()) {
      const double p50 = window.QuantileOrNaN(0.5);
      EXPECT_GE(p50, 1.0 * (1 - 0.011));
      EXPECT_LE(p50, 2.0 * (1 + 0.011));
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_GT(drains, 1);
  EXPECT_EQ(drained + c.Snapshot().count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // A drain empties the sketch; the next one sees only later adds.
  c.Drain();
  EXPECT_EQ(c.count(), 0u);
  c.Add(3.0, 5);
  EXPECT_EQ(c.Drain().count(), 5u);
  EXPECT_TRUE(c.Snapshot().empty());
}

TEST(ConcurrentTest, MergeFromRemoteSketches) {
  ConcurrentDDSketch c = Make(4);
  constexpr int kWorkers = 16;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&c, w] {
      auto local = std::move(DDSketch::Create(0.01)).value();
      Rng rng(3000 + static_cast<uint64_t>(w));
      for (int i = 0; i < 5000; ++i) local.Add(rng.NextDoubleOpenZero() * 10);
      ASSERT_TRUE(c.MergeFrom(local).ok());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.count(), static_cast<uint64_t>(kWorkers) * 5000);
}

TEST(ConcurrentTest, IncompatibleMergeRejected) {
  ConcurrentDDSketch c = Make();
  auto wrong = std::move(DDSketch::Create(0.05)).value();
  wrong.Add(1.0);
  EXPECT_EQ(c.MergeFrom(wrong).code(), StatusCode::kIncompatible);
}

TEST(ConcurrentTest, WeightedAddsThreadSafe) {
  ConcurrentDDSketch c = Make();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.Add(2.5, 10);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.count(), 40000u);
  EXPECT_NEAR(c.Snapshot().QuantileOrNaN(0.5), 2.5, 2.5 * 0.011);
}

}  // namespace
}  // namespace dd
