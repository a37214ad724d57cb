// Crash-recovery tests for the durable sketch store. The central harness
// simulates a crash at every byte of the write-ahead log: it truncates a
// copy of the log at each offset, reopens the store, and asserts that
// exactly the fully-written prefix of ingests is recovered and that
// queries are byte-identical to a reference store fed the same prefix.
// The checkpoint protocol (snapshot + WAL epoch handshake) is exercised
// at its crash windows too — including the interrupted checkpoint, where
// a stale log must not be double-applied.

#include "timeseries/durable_store.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "core/ddsketch.h"
#include "file_faults.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/varint.h"

namespace dd {
namespace {

namespace fs = std::filesystem;

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("dd_durability_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  static DurableSketchStoreOptions Options() {
    DurableSketchStoreOptions options;
    options.store.levels = {{10, 600}, {60, 0}};
    return options;
  }

  static DurableSketchStore MustOpen(const std::string& dir) {
    auto opened = DurableSketchStore::Open(dir, Options());
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }

  static std::string ReadFile(const std::string& path) {
    auto r = ReadFileToString(path);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  static void WriteFile(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  /// A deterministic worker sketch with a few values derived from `seed`.
  static std::string WorkerPayload(int seed) {
    auto sketch = std::move(DDSketch::Create(DDSketchConfig{})).value();
    for (int i = 1; i <= 5; ++i) {
      sketch.Add(static_cast<double>((seed * 13 + i * 7) % 997) + 0.5);
    }
    return sketch.Serialize();
  }

  static uint64_t WalFileSize(const std::string& dir) {
    return fs::file_size(DurableSketchStore::WalPath(dir));
  }

  /// Runs `write` as if the disk filled up at `cap` bytes: the process
  /// file-size limit is `cap` for the call (with SIGXFSZ ignored, a
  /// write past it fails with EFBIG after writing what fits, in any
  /// file). The limit and the handler are restored right after the call.
  template <typename Write>
  static Status WithFileSizeCap(uint64_t cap, Write write) {
    struct rlimit saved;
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit capped = saved;
    capped.rlim_cur = cap;
    const auto handler = std::signal(SIGXFSZ, SIG_IGN);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const Status status = write();
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, handler);
    return status;
  }

  /// WithFileSizeCap a few bytes into the WAL's next record.
  template <typename Write>
  static Status WithWalCapped(const std::string& dir, Write write) {
    return WithFileSizeCap(WalFileSize(dir) + 5, write);
  }

  /// A group-commit batch whose sum only an in-order merge reproduces:
  /// one run of 64 fractional values into one interval, then worker
  /// sketches into the same interval and another series.
  static std::vector<WalRecord> FractionalBatch() {
    std::vector<WalRecord> records;
    for (int i = 0; i < 64; ++i) {
      WalRecord record;
      record.type = WalRecord::Type::kIngestValue;
      record.series = "api.latency";
      record.timestamp = 5;
      record.value = 0.1 * (i + 1) + 1.0 / 3.0;
      records.push_back(std::move(record));
    }
    for (int i = 0; i < 4; ++i) {
      WalRecord record;
      record.type = WalRecord::Type::kIngestSketch;
      record.series = (i % 2 == 0) ? "api.latency" : "db.latency";
      record.timestamp = 5;
      record.payload = WorkerPayload(i);
      records.push_back(std::move(record));
    }
    return records;
  }

  /// FractionalBatch's 64 values again, as sketchd logs pipelined
  /// windows of them: units (type-3 records) of 1, 7 and 40 values at
  /// three timestamps of one interval, a single-value record, a unit of
  /// the rest in the next interval, and a unit of another series.
  static std::vector<WalRecord> PipelinedWindows() {
    const std::vector<WalRecord> values = FractionalBatch();
    std::vector<WalRecord> records;
    const auto unit = [&](const std::string& series, int64_t timestamp,
                          size_t from, size_t to) {
      WalRecord& record = records.emplace_back();
      record.type = WalRecord::Type::kIngestValues;
      record.series = series;
      record.timestamp = timestamp;
      for (size_t i = from; i < to; ++i) {
        record.values.push_back(values[i].value);
      }
    };
    unit("api.latency", 5, 0, 1);
    unit("api.latency", 9, 1, 8);
    unit("api.latency", 0, 8, 48);
    WalRecord& single = records.emplace_back(values[48]);
    single.timestamp = 1;
    unit("api.latency", 15, 49, 60);
    unit("db.latency", 15, 60, 64);
    return records;
  }

  /// `records` with every type-3 record split into single-value records.
  static std::vector<WalRecord> OneValuePerRecord(
      const std::vector<WalRecord>& records) {
    std::vector<WalRecord> out;
    for (const WalRecord& record : records) {
      if (record.type != WalRecord::Type::kIngestValues) {
        out.push_back(record);
        continue;
      }
      for (double value : record.values) {
        WalRecord& single = out.emplace_back();
        single.type = WalRecord::Type::kIngestValue;
        single.series = record.series;
        single.timestamp = record.timestamp;
        single.value = value;
      }
    }
    return out;
  }

  /// Sketch records whose payloads are not canonical for the store, so
  /// each route to a state builds their merge images itself: another
  /// store type, a -0.0 sum and an over-long varint, each into an empty
  /// interval and into one that holds data.
  static std::vector<WalRecord> OddPayloads() {
    DDSketchConfig unbounded;
    unbounded.store = StoreType::kUnboundedDense;
    auto other = std::move(DDSketch::Create(unbounded)).value();
    for (int i = 1; i <= 9; ++i) other.Add(0.37 * i * i);
    const DDSketch worker =
        std::move(DDSketch::Deserialize(WorkerPayload(7))).value();
    const std::string header = worker.SerializedHeader();
    const std::string image = worker.Freeze();
    // The worker's three counts are zero, one byte each; the sum follows.
    std::string negative_zero_sum = header + image.substr(0, 3);
    PutFixedDouble(&negative_zero_sum, -0.0);
    negative_zero_sum += image.substr(3 + sizeof(double));
    const std::string over_long = header + '\x80' + image;
    std::vector<WalRecord> records;
    for (const std::string& payload :
         {other.Serialize(), negative_zero_sum, over_long}) {
      for (const int64_t timestamp : {5, 45}) {
        WalRecord& record = records.emplace_back();
        record.type = WalRecord::Type::kIngestSketch;
        record.series = "api.latency";
        record.timestamp = timestamp;
        record.payload = payload;
      }
    }
    return records;
  }

  static DurableSketchStoreOptions FollowerOptions() {
    DurableSketchStoreOptions options = Options();
    options.role = StoreRole::kFollower;
    return options;
  }

  static std::string SnapshotBytes(const DurableSketchStore& store) {
    return EncodeSnapshot(store.store(), store.epoch());
  }

  /// Byte-exact fingerprint of a store's full queryable state: every
  /// series' merged sketch over a window covering all test data.
  static std::string Fingerprint(const SketchStore& store) {
    std::string fp;
    for (const std::string& name : store.ListSeries()) {
      auto merged = store.QueryRange(name, -1000000, 1000000);
      EXPECT_TRUE(merged.ok()) << merged.status().ToString();
      fp += name + ":" + merged.value().Serialize() + ";";
    }
    return fp;
  }

  fs::path root_;
};

/// One scripted ingest, applied identically to durable and reference
/// stores.
struct Op {
  bool is_sketch;
  std::string series;
  int64_t timestamp;
  double value;   // !is_sketch
  int seed;       // is_sketch
};

std::vector<Op> ScriptedOps(int n) {
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    Op op;
    op.series = (i % 3 == 0) ? "api.latency" : "db.latency";
    op.timestamp = (i * 7) % 200 - 40;  // spans intervals, incl. negatives
    op.is_sketch = (i % 4 == 1);
    op.value = static_cast<double>((i * 31) % 500) + 0.25;
    op.seed = i;
    ops.push_back(op);
  }
  return ops;
}

TEST_F(DurabilityTest, FreshDirectoryOpensEmpty) {
  DurableSketchStore store = MustOpen(Dir("fresh"));
  EXPECT_EQ(store.store().num_series(), 0u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_TRUE(FileExists(DurableSketchStore::WalPath(Dir("fresh"))));
  // A fresh directory immediately gets an empty epoch-0 snapshot that
  // pins the store options on disk.
  auto snapshot =
      ReadSnapshotFile(DurableSketchStore::SnapshotPath(Dir("fresh")));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().epoch, 0u);
  EXPECT_EQ(snapshot.value().store.num_series(), 0u);
}

TEST_F(DurabilityTest, SecondOpenIsLockedOut) {
  const std::string dir = Dir("locked");
  DurableSketchStore store = MustOpen(dir);
  auto second = DurableSketchStore::Open(dir, Options());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(DurabilityTest, LockIsReleasedOnClose) {
  const std::string dir = Dir("relock");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(std::move(reopened.QueryRange("s", 0, 10)).value().count(), 1u);
}

TEST_F(DurabilityTest, ReopenRecoversEveryAckedIngest) {
  const std::string dir = Dir("reopen");
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  {
    DurableSketchStore store = MustOpen(dir);
    for (const Op& op : ScriptedOps(50)) {
      if (op.is_sketch) {
        const std::string payload = WorkerPayload(op.seed);
        ASSERT_TRUE(store.Ingest(op.series, op.timestamp, payload).ok());
        ASSERT_TRUE(ref.Ingest(op.series, op.timestamp, payload).ok());
      } else {
        ASSERT_TRUE(store.IngestValue(op.series, op.timestamp, op.value).ok());
        ASSERT_TRUE(ref.IngestValue(op.series, op.timestamp, op.value).ok());
      }
    }
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(Fingerprint(reopened.store()), Fingerprint(ref));
  for (double q : {0.1, 0.5, 0.99}) {
    EXPECT_EQ(
        std::move(reopened.QueryQuantile("api.latency", -100, 300, q)).value(),
        std::move(ref.QueryQuantile("api.latency", -100, 300, q)).value());
  }
}

TEST_F(DurabilityTest, CrashRecoveryAtEveryWalTruncationPoint) {
  const std::string dir = Dir("crash");
  const std::vector<Op> ops = ScriptedOps(40);

  // Build the log, remembering the offset after every acked ingest and
  // the reference fingerprint of every prefix.
  std::vector<uint64_t> boundaries;   // boundaries[n] = offset after n ops
  std::vector<std::string> prefix_fp; // prefix_fp[n] = fingerprint of n ops
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  {
    DurableSketchStore store = MustOpen(dir);
    boundaries.push_back(store.wal_offset());
    prefix_fp.push_back(Fingerprint(ref));
    for (const Op& op : ops) {
      if (op.is_sketch) {
        const std::string payload = WorkerPayload(op.seed);
        ASSERT_TRUE(store.Ingest(op.series, op.timestamp, payload).ok());
        ASSERT_TRUE(ref.Ingest(op.series, op.timestamp, payload).ok());
      } else {
        ASSERT_TRUE(store.IngestValue(op.series, op.timestamp, op.value).ok());
        ASSERT_TRUE(ref.IngestValue(op.series, op.timestamp, op.value).ok());
      }
      boundaries.push_back(store.wal_offset());
      prefix_fp.push_back(Fingerprint(ref));
    }
  }
  const std::string wal_bytes = ReadFile(DurableSketchStore::WalPath(dir));
  ASSERT_EQ(wal_bytes.size(), boundaries.back());

  const std::string crash_dir = Dir("crash_replay");
  for (uint64_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    // Simulate a crash that left only the first `cut` bytes durable.
    fs::remove_all(crash_dir);
    fs::create_directories(crash_dir);
    WriteFile(DurableSketchStore::WalPath(crash_dir),
              std::string_view(wal_bytes).substr(0, cut));

    auto reopened = DurableSketchStore::Open(crash_dir, Options());
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();

    // Every fully-written record — and nothing more — must be recovered.
    size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= cut) {
      ++expected;
    }
    EXPECT_EQ(Fingerprint(reopened.value().store()), prefix_fp[expected])
        << "cut=" << cut;

    // The recovered store must accept new ingests (torn tail truncated).
    ASSERT_TRUE(
        reopened.value().IngestValue("post.crash", 0, 1.0).ok())
        << "cut=" << cut;
  }
}

TEST_F(DurabilityTest, RecoveredStoreContinuesAndSurvivesSecondCrash) {
  const std::string dir = Dir("continue");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 5, 1.0).ok());
  }
  // Crash mid-record: append garbage that looks like a torn frame.
  {
    std::ofstream out(DurableSketchStore::WalPath(dir),
                      std::ios::binary | std::ios::app);
    out.put('\x50');  // a lone length byte, frame never completed
  }
  {
    DurableSketchStore store = MustOpen(dir);
    EXPECT_EQ(std::move(store.QueryRange("s", 0, 10)).value().count(), 1u);
    ASSERT_TRUE(store.IngestValue("s", 5, 2.0).ok());
  }
  DurableSketchStore store = MustOpen(dir);
  EXPECT_EQ(std::move(store.QueryRange("s", 0, 10)).value().count(), 2u);
}

TEST_F(DurabilityTest, CheckpointFoldsWalIntoSnapshot) {
  const std::string dir = Dir("checkpoint");
  std::string before_fp;
  {
    DurableSketchStore store = MustOpen(dir);
    for (const Op& op : ScriptedOps(30)) {
      if (op.is_sketch) {
        ASSERT_TRUE(
            store.Ingest(op.series, op.timestamp, WorkerPayload(op.seed)).ok());
      } else {
        ASSERT_TRUE(store.IngestValue(op.series, op.timestamp, op.value).ok());
      }
    }
    before_fp = Fingerprint(store.store());
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(store.epoch(), 2u);
    // The log is now empty; the snapshot carries the state.
    ASSERT_TRUE(store.IngestValue("late", 0, 9.0).ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(reopened.epoch(), 2u);
  ASSERT_TRUE(std::move(reopened.QueryRange("late", 0, 10)).ok());
  // Remove the post-checkpoint series and compare to the pre-checkpoint
  // fingerprint via a fresh reference decode of the snapshot.
  auto snapshot =
      ReadSnapshotFile(DurableSketchStore::SnapshotPath(dir));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(Fingerprint(snapshot.value().store), before_fp);
  EXPECT_EQ(snapshot.value().epoch, 1u);
}

TEST_F(DurabilityTest, CompactionPreservesQueriesAcrossReopen) {
  const std::string dir = Dir("compact");
  std::vector<double> before;
  {
    DurableSketchStore store = MustOpen(dir);
    for (int64_t ts = 0; ts < 3600; ts += 5) {
      ASSERT_TRUE(
          store.IngestValue("svc", ts, static_cast<double>(ts % 97) + 1.0)
              .ok());
    }
    for (double q = 0.05; q < 1.0; q += 0.05) {
      before.push_back(
          std::move(store.QueryQuantile("svc", 0, 3600, q)).value());
    }
    auto compacted = store.Compact(3600);
    ASSERT_TRUE(compacted.ok());
    EXPECT_GT(compacted.value(), 0u);
  }
  DurableSketchStore reopened = MustOpen(dir);
  size_t i = 0;
  for (double q = 0.05; q < 1.0; q += 0.05) {
    EXPECT_DOUBLE_EQ(
        std::move(reopened.QueryQuantile("svc", 0, 3600, q)).value(),
        before[i++])
        << q;
  }
}

TEST_F(DurabilityTest, InterruptedCheckpointIsNotDoubleApplied) {
  const std::string dir = Dir("interrupted");
  std::string fp;
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i * 10, 1.0 + i).ok());
    }
    fp = Fingerprint(store.store());
    // Simulate the crash window inside Checkpoint(): the snapshot
    // (carrying the current WAL epoch) reached disk, but the WAL reset
    // did not.
    ASSERT_TRUE(WriteSnapshotFile(store.store(), store.epoch(),
                                  DurableSketchStore::SnapshotPath(dir))
                    .ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  // The WAL records are already inside the snapshot; replaying them too
  // would double every count.
  EXPECT_EQ(Fingerprint(reopened.store()), fp);
  EXPECT_EQ(std::move(reopened.QueryRange("s", 0, 200)).value().count(), 20u);
  // The interrupted checkpoint was finished: the log is on the next epoch.
  EXPECT_EQ(reopened.epoch(), 2u);
}

TEST_F(DurabilityTest, StaleNextWalIsIgnoredAndReplacedByTheNextReset) {
  // A crash inside a WAL reset can leave `wal.log.next`, the new epoch's
  // log before its rename. Opening ignores it; the next reset writes
  // its own in its place and renames it over the log.
  const std::string dir = Dir("stale_next");
  const std::string next = DurableSketchStore::WalPath(dir) + ".next";
  std::string fp;
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i * 10, 1.0 + i).ok());
    }
    fp = Fingerprint(store.store());
  }
  WriteFile(next, "not a log");
  {
    DurableSketchStore store = MustOpen(dir);
    EXPECT_EQ(Fingerprint(store.store()), fp);
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_FALSE(fs::exists(next));
    ASSERT_TRUE(store.IngestValue("s", 500, 7.0).ok());
    fp = Fingerprint(store.store());
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(reopened.epoch(), 2u);
  EXPECT_EQ(Fingerprint(reopened.store()), fp);
}

TEST_F(DurabilityTest, FailedWalResetRefusesWritesUntilReopened) {
  // Once a checkpoint's snapshot is renamed into place it carries the
  // WAL's own epoch, so until the WAL reset completes the log must take
  // no more records: the old epoch's are discarded by recovery as
  // already in the snapshot, and a new log's rename may not be durable.
  // The store refuses every later write, and a reopen recovers every
  // acknowledged one. Three steps fail here: removing a stale
  // `wal.log.next` before the reset's rename (a directory stands in its
  // place), the directory fsync after that rename, and the snapshot's
  // own directory fsync after its rename.
  enum class Step { kBeforeResetRename, kResetDirSync, kSnapshotDirSync };
  for (const Step step :
       {Step::kBeforeResetRename, Step::kResetDirSync, Step::kSnapshotDirSync}) {
    const char* name = step == Step::kBeforeResetRename ? "before"
                       : step == Step::kResetDirSync    ? "reset_dir_sync"
                                                        : "snapshot_dir_sync";
    SCOPED_TRACE(name);
    const std::string dir = Dir(name);
    const std::string next = DurableSketchStore::WalPath(dir) + ".next";
    std::string fp;
    {
      DurableSketchStore store = MustOpen(dir);
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(store.IngestValue("s", i * 10, 1.0 + i).ok());
      }
      fp = Fingerprint(store.store());
      Status checkpoint;
      if (step == Step::kBeforeResetRename) {
        fs::create_directories(fs::path(next) / "entry");
        checkpoint = store.Checkpoint();
      } else {
        ScopedFileFault fault(FileOp::kSyncDir,
                              step == Step::kResetDirSync
                                  ? DurableSketchStore::WalPath(dir)
                                  : DurableSketchStore::SnapshotPath(dir),
                              EIO);
        checkpoint = store.Checkpoint();
        EXPECT_EQ(fault.fired(), 1);
      }
      EXPECT_EQ(checkpoint.code(), StatusCode::kInternal)
          << checkpoint.ToString();
      EXPECT_EQ(store.failure(), checkpoint);
      // The writer follows the log the directory names.
      EXPECT_EQ(store.epoch(), step == Step::kResetDirSync ? 2u : 1u);
      EXPECT_EQ(store.IngestValue("s", 500, 7.0).code(),
                StatusCode::kInternal);
      EXPECT_EQ(store.Ingest("s", 500, WorkerPayload(1)).code(),
                StatusCode::kInternal);
      EXPECT_EQ(store.Checkpoint().code(), StatusCode::kInternal);
      EXPECT_EQ(Fingerprint(store.store()), fp);
    }
    fs::remove_all(next);
    DurableSketchStore reopened = MustOpen(dir);
    EXPECT_EQ(Fingerprint(reopened.store()), fp);
    ASSERT_TRUE(reopened.IngestValue("s", 500, 7.0).ok());
    ASSERT_TRUE(reopened.Checkpoint().ok());
  }
}

TEST_F(DurabilityTest, FailedSnapshotRenameLeavesTheStoreWritable) {
  // The other side of the point of no return: before its rename a
  // failed snapshot write changed nothing on disk, so the store stays
  // writable and its next checkpoint succeeds.
  const std::string dir = Dir("rename");
  std::string fp;
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 10, 1.0).ok());
    {
      ScopedFileFault fault(FileOp::kRename,
                            DurableSketchStore::SnapshotPath(dir), EIO);
      EXPECT_EQ(store.Checkpoint().code(), StatusCode::kInternal);
      EXPECT_EQ(fault.fired(), 1);
    }
    EXPECT_TRUE(store.failure().ok()) << store.failure().ToString();
    EXPECT_EQ(store.epoch(), 1u);
    EXPECT_FALSE(fs::exists(DurableSketchStore::SnapshotPath(dir) + ".tmp"));
    ASSERT_TRUE(store.IngestValue("s", 20, 2.0).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(store.epoch(), 2u);
    ASSERT_TRUE(store.IngestValue("s", 30, 3.0).ok());
    fp = Fingerprint(store.store());
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(Fingerprint(reopened.store()), fp);
}

TEST_F(DurabilityTest, NewWalIsDurablyNamedBeforeOpenReturns) {
  // A fresh directory's log is renamed into place, and its name made
  // durable by a directory fsync, before Open returns a store that may
  // acknowledge records into it. If that fsync fails, Open fails.
  const std::string dir = Dir("fresh");
  {
    ScopedFileFault fault(FileOp::kSyncDir, DurableSketchStore::WalPath(dir),
                          EIO);
    auto opened = DurableSketchStore::Open(dir, Options());
    EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
    EXPECT_EQ(fault.fired(), 1);
  }
  DurableSketchStore reopened = MustOpen(dir);
  ASSERT_TRUE(reopened.IngestValue("s", 10, 1.0).ok());
  EXPECT_FALSE(fs::exists(DurableSketchStore::WalPath(dir) + ".next"));
}

TEST_F(DurabilityTest, InterruptedRollupCheckpointRecoversEitherSide) {
  // A rollup checkpoint has the same two crash sides as any checkpoint,
  // but with higher stakes: the fold rewrites tiers, and rollup state
  // is ONLY persisted via snapshots. Crash before the snapshot rename →
  // recovery replays raw records (fold simply re-runs at the next
  // checkpoint). Crash after the rename but before the WAL reset → the
  // snapshot already contains the folded records, and replaying the log
  // on top would double every count.
  const std::string dir = Dir("rollupcrash");
  std::vector<double> before;
  uint64_t epoch = 0;
  {
    DurableSketchStore store = MustOpen(dir);
    // Spans ~2000s, far past the 600s raw retention.
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(
          store.IngestValue("svc", i * 5, 1.0 + (i % 61) * 0.5).ok());
    }
    for (double q = 0.05; q < 1.0; q += 0.05) {
      before.push_back(
          std::move(store.QueryQuantile("svc", 0, 2100, q)).value());
    }
    epoch = store.epoch();
    // Simulate the bad side of the window: fold a clone of the live
    // state in memory (exactly what Compact's checkpoint does), write
    // the rolled-up snapshot, and "crash" before the WAL reset.
    auto clone = DecodeSnapshot(EncodeSnapshot(store.store(), epoch));
    ASSERT_TRUE(clone.ok()) << clone.status().ToString();
    EXPECT_GT(clone.value().store.Compact(std::numeric_limits<int64_t>::max()),
              0u);
    ASSERT_TRUE(WriteSnapshotFile(clone.value().store, epoch,
                                  DurableSketchStore::SnapshotPath(dir))
                    .ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  // The folded snapshot won; the raw WAL records it already contains
  // were not replayed on top of it.
  EXPECT_EQ(reopened.epoch(), epoch + 1);
  EXPECT_EQ(std::move(reopened.QueryRange("svc", 0, 2100)).value().count(),
            400u);
  EXPECT_GT(reopened.store().LevelStats()[1].num_intervals, 0u);
  size_t i = 0;
  for (double q = 0.05; q < 1.0; q += 0.05) {
    EXPECT_EQ(std::move(reopened.QueryQuantile("svc", 0, 2100, q)).value(),
              before[i++])
        << q;
  }
}

TEST_F(DurabilityTest, TornWalHeaderIsRecreated) {
  const std::string dir = Dir("tornheader");
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i, 1.0).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  // Crash during the WAL reset, after truncation but mid-header-write.
  const std::string wal_path = DurableSketchStore::WalPath(dir);
  WriteFile(wal_path, ReadFile(wal_path).substr(0, 4));
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(std::move(reopened.QueryRange("s", 0, 100)).value().count(), 10u);
  ASSERT_TRUE(reopened.IngestValue("s", 50, 2.0).ok());
}

TEST_F(DurabilityTest, BitRotInWalBodyFailsWithCorruption) {
  const std::string dir = Dir("bitrot");
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i, 1.0 + i).ok());
    }
  }
  const std::string wal_path = DurableSketchStore::WalPath(dir);
  std::string bytes = ReadFile(wal_path);
  bytes[bytes.size() / 2] = static_cast<char>(
      static_cast<uint8_t>(bytes[bytes.size() / 2]) ^ 0x40);
  WriteFile(wal_path, bytes);
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurabilityTest, UnterminatedRecordLengthFailsWithCorruption) {
  // A crash can only cut a length varint short. Eleven bytes with the
  // continuation bit set are bit rot, not a torn tail: recovery must
  // refuse them and leave the log alone, not truncate it to the first
  // record and lose the two acked records after it.
  const std::string dir = Dir("badlength");
  uint64_t second_frame = 0;
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
    second_frame = store.wal_offset();
    ASSERT_TRUE(store.IngestValue("s", 1, 2.0).ok());
    ASSERT_TRUE(store.IngestValue("s", 2, 3.0).ok());
  }
  const std::string wal_path = DurableSketchStore::WalPath(dir);
  std::string bytes = ReadFile(wal_path);
  ASSERT_GT(bytes.size(), second_frame + kMaxVarintBytes);
  for (size_t i = second_frame; i <= second_frame + kMaxVarintBytes; ++i) {
    bytes[i] = static_cast<char>(static_cast<uint8_t>(bytes[i]) | 0x80);
  }
  WriteFile(wal_path, bytes);
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadFile(wal_path), bytes);
}

TEST_F(DurabilityTest, BitRotInSnapshotFailsWithCorruption) {
  const std::string dir = Dir("snaprot");
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i, 1.0 + i).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  const std::string snapshot_path = DurableSketchStore::SnapshotPath(dir);
  std::string bytes = ReadFile(snapshot_path);
  bytes[bytes.size() / 2] = static_cast<char>(
      static_cast<uint8_t>(bytes[bytes.size() / 2]) ^ 0x10);
  WriteFile(snapshot_path, bytes);
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurabilityTest, MismatchedOptionsAreIncompatible) {
  const std::string dir = Dir("mismatch");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  DurableSketchStoreOptions other = Options();
  other.store.sketch.relative_accuracy = 0.05;
  auto reopened = DurableSketchStore::Open(dir, other);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIncompatible);
}

TEST_F(DurabilityTest, MismatchedOptionsCaughtWithoutCheckpoint) {
  // The initial epoch-0 snapshot pins options even when the directory
  // holds only WAL records (no explicit checkpoint ever ran).
  const std::string dir = Dir("mismatch_wal_only");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
  }
  DurableSketchStoreOptions other = Options();
  other.store.levels = {{60, 3600}, {360, 0}};
  auto reopened = DurableSketchStore::Open(dir, other);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIncompatible);
}

TEST_F(DurabilityTest, InvalidPayloadsAreRejectedBeforeLogging) {
  const std::string dir = Dir("reject");
  DurableSketchStore store = MustOpen(dir);
  const uint64_t offset = store.wal_offset();
  EXPECT_EQ(store.Ingest("s", 0, "garbage").code(), StatusCode::kCorruption);
  auto wrong = std::move(DDSketch::Create(0.05)).value();
  wrong.Add(1.0);
  EXPECT_EQ(store.Ingest("s", 0, wrong.Serialize()).code(),
            StatusCode::kIncompatible);
  // Nothing reached the log: rejected ingests must not poison replay.
  EXPECT_EQ(store.wal_offset(), offset);
}

TEST_F(DurabilityTest, GroupCommitBatchIsOneFsync) {
  const std::string dir = Dir("groupfsync");
  DurableSketchStore store = MustOpen(dir);
  std::vector<WalRecord> records;
  for (int i = 0; i < 64; ++i) {
    WalRecord record;
    record.type = (i % 4 == 1) ? WalRecord::Type::kIngestSketch
                               : WalRecord::Type::kIngestValue;
    record.series = (i % 3 == 0) ? "api.latency" : "db.latency";
    record.timestamp = i * 7;
    if (record.type == WalRecord::Type::kIngestSketch) {
      record.payload = WorkerPayload(i);
    } else {
      record.value = 1.0 + i;
    }
    records.push_back(std::move(record));
  }
  uint64_t fsyncs_before = TotalFsyncCount();
  ASSERT_TRUE(store.IngestBatch(records).ok());
  // 64 acknowledged ingests, exactly one flush.
  EXPECT_EQ(TotalFsyncCount() - fsyncs_before, 1u);
  // A single ingest is a batch of one: acknowledged means flushed.
  fsyncs_before = TotalFsyncCount();
  ASSERT_TRUE(store.IngestValue("solo.value", 0, 2.5).ok());
  EXPECT_EQ(TotalFsyncCount() - fsyncs_before, 1u);
  fsyncs_before = TotalFsyncCount();
  ASSERT_TRUE(store.Ingest("solo.sketch", 0, WorkerPayload(99)).ok());
  EXPECT_EQ(TotalFsyncCount() - fsyncs_before, 1u);
  // Every record is both queryable and fully applied in-memory.
  EXPECT_EQ(store.store().num_series(), 4u);
  uint64_t total = 0;
  for (const std::string& name : store.store().ListSeries()) {
    total += std::move(store.QueryRange(name, -1000, 1000)).value().count();
  }
  // 48 + 1 raw values + 16 + 1 worker sketches of 5 values each.
  EXPECT_EQ(total, 49u + 17u * 5u);
}

TEST_F(DurabilityTest, GroupCommitBatchRejectsBadRecordBeforeLogging) {
  const std::string dir = Dir("groupreject");
  DurableSketchStore store = MustOpen(dir);
  std::vector<WalRecord> records;
  WalRecord good;
  good.type = WalRecord::Type::kIngestValue;
  good.series = "s";
  good.timestamp = 0;
  good.value = 1.0;
  records.push_back(good);
  WalRecord bad;
  bad.type = WalRecord::Type::kIngestSketch;
  bad.series = "s";
  bad.timestamp = 0;
  bad.payload = "garbage";
  records.push_back(bad);
  const uint64_t offset = store.wal_offset();
  EXPECT_EQ(store.IngestBatch(records).code(), StatusCode::kCorruption);
  // Nothing — including the valid first record — reached the log or the
  // in-memory store.
  EXPECT_EQ(store.wal_offset(), offset);
  EXPECT_EQ(store.store().num_series(), 0u);
}

TEST_F(DurabilityTest, CrashInsideValueUnitsRecoversExactlyTheAckedUnits) {
  // Units (type-3 records) of 1 to 16 values, each its own commit, with
  // a sketch record between them. A crash at any byte keeps exactly the
  // units whose whole record reached the log: never part of one.
  const std::string dir = Dir("unitcrash");
  std::vector<uint64_t> boundaries;
  std::vector<std::string> prefix_fp;
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  {
    DurableSketchStore store = MustOpen(dir);
    boundaries.push_back(store.wal_offset());
    prefix_fp.push_back(Fingerprint(ref));
    const size_t sizes[] = {1, 3, 16, 2, 9, 5};
    for (size_t u = 0; u < std::size(sizes); ++u) {
      WalRecord record;
      record.type = WalRecord::Type::kIngestValues;
      record.series = u % 2 == 0 ? "api.latency" : "db.latency";
      record.timestamp = static_cast<int64_t>(u) * 7 - 12;
      for (size_t i = 0; i < sizes[u]; ++i) {
        record.values.push_back(0.5 * static_cast<double>(u * 31 + i) + 0.1);
        ASSERT_TRUE(ref.IngestValue(record.series, record.timestamp,
                                    record.values.back())
                        .ok());
      }
      ASSERT_TRUE(store.IngestBatch({record}).ok());
      boundaries.push_back(store.wal_offset());
      prefix_fp.push_back(Fingerprint(ref));
      if (u == 2) {
        const std::string payload = WorkerPayload(static_cast<int>(u));
        ASSERT_TRUE(store.Ingest("api.latency", 3, payload).ok());
        ASSERT_TRUE(ref.Ingest("api.latency", 3, payload).ok());
        boundaries.push_back(store.wal_offset());
        prefix_fp.push_back(Fingerprint(ref));
      }
    }
  }
  const std::string wal_bytes = ReadFile(DurableSketchStore::WalPath(dir));
  ASSERT_EQ(wal_bytes.size(), boundaries.back());

  const std::string crash_dir = Dir("unitcrash_replay");
  for (uint64_t cut = boundaries.front(); cut <= wal_bytes.size(); ++cut) {
    fs::remove_all(crash_dir);
    fs::create_directories(crash_dir);
    WriteFile(DurableSketchStore::WalPath(crash_dir),
              std::string_view(wal_bytes).substr(0, cut));
    auto reopened = DurableSketchStore::Open(crash_dir, Options());
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();
    size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= cut) {
      ++expected;
    }
    EXPECT_EQ(Fingerprint(reopened.value().store()), prefix_fp[expected])
        << "cut=" << cut;
    EXPECT_EQ(reopened.value().wal_offset(), boundaries[expected])
        << "cut=" << cut;
  }
}

TEST_F(DurabilityTest, GroupCommitCrashMidBatchRecoversExactPrefix) {
  // A batch is appended record-by-record before its single fsync; a
  // crash can land at any byte of the batch region. Recovery must yield
  // exactly the fully-written prefix of the batch — the same guarantee
  // CrashRecoveryAtEveryWalTruncationPoint proves for solo appends.
  const std::string dir = Dir("groupcrash");
  const std::vector<Op> ops = ScriptedOps(24);

  std::vector<WalRecord> records;
  for (const Op& op : ops) {
    WalRecord record;
    record.series = op.series;
    record.timestamp = op.timestamp;
    if (op.is_sketch) {
      record.type = WalRecord::Type::kIngestSketch;
      record.payload = WorkerPayload(op.seed);
    } else {
      record.type = WalRecord::Type::kIngestValue;
      record.value = op.value;
    }
    records.push_back(std::move(record));
  }

  // Reference fingerprints and WAL offsets for every batch prefix.
  std::vector<uint64_t> boundaries;
  std::vector<std::string> prefix_fp;
  uint64_t batch_start = 0;
  {
    DurableSketchStore store = MustOpen(dir);
    batch_start = store.wal_offset();
    auto ref = std::move(SketchStore::Create(Options().store)).value();
    boundaries.push_back(batch_start);
    prefix_fp.push_back(Fingerprint(ref));
    uint64_t offset = batch_start;
    for (const WalRecord& record : records) {
      offset += EncodeWalRecord(record).size();
      boundaries.push_back(offset);
      if (record.type == WalRecord::Type::kIngestSketch) {
        ASSERT_TRUE(ref.Ingest(record.series, record.timestamp,
                               record.payload).ok());
      } else {
        ASSERT_TRUE(ref.IngestValue(record.series, record.timestamp,
                                    record.value).ok());
      }
      prefix_fp.push_back(Fingerprint(ref));
    }
    ASSERT_TRUE(store.IngestBatch(records).ok());
    ASSERT_EQ(store.wal_offset(), boundaries.back());
  }

  const std::string wal_bytes = ReadFile(DurableSketchStore::WalPath(dir));
  const std::string crash_dir = Dir("groupcrash_replay");
  for (uint64_t cut = batch_start; cut <= wal_bytes.size(); ++cut) {
    fs::remove_all(crash_dir);
    fs::create_directories(crash_dir);
    WriteFile(DurableSketchStore::WalPath(crash_dir),
              std::string_view(wal_bytes).substr(0, cut));
    auto reopened = DurableSketchStore::Open(crash_dir, Options());
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();
    size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= cut) {
      ++expected;
    }
    EXPECT_EQ(Fingerprint(reopened.value().store()), prefix_fp[expected])
        << "cut=" << cut;
  }
}

TEST_F(DurabilityTest, FailedAppendIsTruncatedOnEveryPrimaryWritePath) {
  // A disk that fills up mid-record must not leave a torn frame behind:
  // the next acknowledged write would land after it, where recovery's
  // torn-tail scan (or its checksum check) would lose it.
  const std::string dir = Dir("diskfull");
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  const std::vector<WalRecord> batch = FractionalBatch();
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 5, 1.5).ok());
    ASSERT_TRUE(ref.IngestValue("s", 5, 1.5).ok());

    EXPECT_FALSE(
        WithWalCapped(dir, [&] { return store.IngestValue("s", 5, 2.5); })
            .ok());
    EXPECT_EQ(WalFileSize(dir), store.wal_offset());
    ASSERT_TRUE(store.IngestValue("s", 5, 3.5).ok());
    ASSERT_TRUE(ref.IngestValue("s", 5, 3.5).ok());

    EXPECT_FALSE(
        WithWalCapped(dir, [&] { return store.IngestBatch(batch); }).ok());
    EXPECT_EQ(WalFileSize(dir), store.wal_offset());
    ASSERT_TRUE(store.IngestBatch(batch).ok());
    for (const WalRecord& record : batch) {
      if (record.type == WalRecord::Type::kIngestSketch) {
        ASSERT_TRUE(
            ref.Ingest(record.series, record.timestamp, record.payload).ok());
      } else {
        ASSERT_TRUE(
            ref.IngestValue(record.series, record.timestamp, record.value)
                .ok());
      }
    }
    EXPECT_EQ(WalFileSize(dir), store.wal_offset());
  }
  // Exactly the acknowledged records, nothing from the failed writes.
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(reopened.value().store()), Fingerprint(ref));
}

TEST_F(DurabilityTest, FailedReplicatedApplyIsTruncated) {
  const std::string primary_dir = Dir("primary");
  const std::string follower_dir = Dir("follower");
  DurableSketchStore primary = MustOpen(primary_dir);
  ASSERT_TRUE(primary.IngestBatch(FractionalBatch()).ok());
  auto segment = primary.ReadWalChunk(kWalHeaderBytes, 1 << 20);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  {
    auto opened = DurableSketchStore::Open(follower_dir, FollowerOptions());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurableSketchStore& follower = opened.value();
    const auto apply = [&] {
      return follower.ApplyReplicatedSegment(primary.epoch(), kWalHeaderBytes,
                                             segment.value());
    };
    EXPECT_FALSE(WithWalCapped(follower_dir, apply).ok());
    EXPECT_EQ(WalFileSize(follower_dir), follower.wal_offset());
    EXPECT_EQ(follower.wal_offset(), kWalHeaderBytes);
    // The primary re-ships the same segment; acking it must be safe.
    ASSERT_TRUE(apply().ok());
    EXPECT_EQ(follower.wal_offset(), primary.wal_offset());
  }
  auto reopened = DurableSketchStore::Open(follower_dir, FollowerOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(SnapshotBytes(reopened.value()), SnapshotBytes(primary));
}

TEST_F(DurabilityTest, TornWalRefusesEveryLaterWriteOnEveryPrimaryPath) {
  // A disk that fills up mid-record, and then fails the truncate that
  // would cut the torn frame off, leaves the log torn: a later record
  // would land behind the frame, where recovery cannot reach it. So the
  // store refuses every later write, and a reopen, whose torn-tail scan
  // cuts the frame, holds exactly the acknowledged records.
  const std::vector<WalRecord> batch = FractionalBatch();
  using Write = std::function<Status(DurableSketchStore&)>;
  const std::vector<std::pair<std::string, Write>> paths = {
      {"IngestValue",
       [](DurableSketchStore& store) { return store.IngestValue("s", 5, 2.5); }},
      {"Ingest",
       [](DurableSketchStore& store) {
         return store.Ingest("s", 5, WorkerPayload(3));
       }},
      {"IngestBatch",
       [&](DurableSketchStore& store) { return store.IngestBatch(batch); }},
  };
  for (const auto& [name, write] : paths) {
    SCOPED_TRACE(name);
    const std::string dir = Dir(name);
    std::string fp;
    {
      DurableSketchStore store = MustOpen(dir);
      ASSERT_TRUE(store.IngestValue("s", 5, 1.5).ok());
      fp = Fingerprint(store.store());
      {
        ScopedFileFault fault(FileOp::kTruncate,
                              DurableSketchStore::WalPath(dir), EIO);
        const Status torn = WithWalCapped(dir, [&] { return write(store); });
        EXPECT_EQ(torn.code(), StatusCode::kInternal) << torn.ToString();
        EXPECT_EQ(fault.fired(), 1);
        EXPECT_EQ(store.failure(), torn);
      }
      EXPECT_GT(WalFileSize(dir), store.wal_offset());  // the torn frame
      for (const auto& [other, refused] : paths) {
        EXPECT_EQ(refused(store).code(), StatusCode::kInternal) << other;
      }
      EXPECT_EQ(store.Checkpoint().code(), StatusCode::kInternal);
      EXPECT_EQ(Fingerprint(store.store()), fp);
    }
    DurableSketchStore reopened = MustOpen(dir);
    EXPECT_EQ(Fingerprint(reopened.store()), fp);
    ASSERT_TRUE(write(reopened).ok());
  }
}

TEST_F(DurabilityTest, TornReplicatedApplyRefusesTheReshippedSegment) {
  // The follower's apply is the same guarded commit: after a torn,
  // unrepaired append it must refuse the primary's re-shipped segment
  // rather than acknowledge bytes that recovery could not reach.
  const std::string primary_dir = Dir("primary");
  const std::string follower_dir = Dir("follower");
  DurableSketchStore primary = MustOpen(primary_dir);
  ASSERT_TRUE(primary.IngestBatch(FractionalBatch()).ok());
  auto segment = primary.ReadWalChunk(kWalHeaderBytes, 1 << 20);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  std::string empty;
  {
    auto opened = DurableSketchStore::Open(follower_dir, FollowerOptions());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurableSketchStore& follower = opened.value();
    empty = SnapshotBytes(follower);
    const auto apply = [&] {
      return follower.ApplyReplicatedSegment(primary.epoch(), kWalHeaderBytes,
                                             segment.value());
    };
    {
      ScopedFileFault fault(FileOp::kTruncate,
                            DurableSketchStore::WalPath(follower_dir), EIO);
      EXPECT_EQ(WithWalCapped(follower_dir, apply).code(),
                StatusCode::kInternal);
      EXPECT_EQ(fault.fired(), 1);
    }
    EXPECT_EQ(apply().code(), StatusCode::kInternal);
    EXPECT_EQ(follower.wal_offset(), kWalHeaderBytes);
    EXPECT_EQ(SnapshotBytes(follower), empty);
  }
  auto reopened = DurableSketchStore::Open(follower_dir, FollowerOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(SnapshotBytes(reopened.value()), empty);
  ASSERT_TRUE(reopened.value()
                  .ApplyReplicatedSegment(primary.epoch(), kWalHeaderBytes,
                                          segment.value())
                  .ok());
  EXPECT_EQ(SnapshotBytes(reopened.value()), SnapshotBytes(primary));
}

TEST_F(DurabilityTest, FailedWalFsyncIsStickyOnBothWritePaths) {
  // After an fsync fails, a retried fsync can report success for pages
  // the kernel has already dropped, so no later record may be
  // acknowledged: one failed WAL fsync refuses every later write, on
  // the primary's path and on a follower's apply. The refused batch is
  // cut back off the log, so a reopen holds exactly the acked records.
  const std::string primary_dir = Dir("primary");
  std::string fp;
  {
    DurableSketchStore primary = MustOpen(primary_dir);
    ASSERT_TRUE(primary.IngestValue("s", 5, 1.5).ok());
    fp = Fingerprint(primary.store());
    {
      ScopedFileFault fault(FileOp::kSync,
                            DurableSketchStore::WalPath(primary_dir), EIO, 1);
      EXPECT_EQ(primary.IngestValue("s", 5, 2.5).code(),
                StatusCode::kInternal);
      EXPECT_EQ(fault.fired(), 1);
    }
    EXPECT_EQ(WalFileSize(primary_dir), primary.wal_offset());
    EXPECT_EQ(primary.IngestValue("s", 5, 3.5).code(), StatusCode::kInternal);
    EXPECT_EQ(primary.IngestBatch(FractionalBatch()).code(),
              StatusCode::kInternal);
    EXPECT_EQ(primary.Checkpoint().code(), StatusCode::kInternal);
    EXPECT_EQ(Fingerprint(primary.store()), fp);
  }
  {
    DurableSketchStore reopened = MustOpen(primary_dir);
    EXPECT_EQ(Fingerprint(reopened.store()), fp);
  }

  DurableSketchStore primary = MustOpen(Dir("source"));
  ASSERT_TRUE(primary.IngestBatch(FractionalBatch()).ok());
  auto segment = primary.ReadWalChunk(kWalHeaderBytes, 1 << 20);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  const std::string follower_dir = Dir("follower");
  {
    auto opened = DurableSketchStore::Open(follower_dir, FollowerOptions());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurableSketchStore& follower = opened.value();
    const auto apply = [&] {
      return follower.ApplyReplicatedSegment(primary.epoch(), kWalHeaderBytes,
                                             segment.value());
    };
    {
      ScopedFileFault fault(FileOp::kSync,
                            DurableSketchStore::WalPath(follower_dir), EIO, 1);
      EXPECT_EQ(apply().code(), StatusCode::kInternal);
      EXPECT_EQ(fault.fired(), 1);
    }
    EXPECT_EQ(apply().code(), StatusCode::kInternal);
    EXPECT_EQ(follower.wal_offset(), kWalHeaderBytes);
  }
  auto reopened = DurableSketchStore::Open(follower_dir, FollowerOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(reopened.value()
                  .ApplyReplicatedSegment(primary.epoch(), kWalHeaderBytes,
                                          segment.value())
                  .ok());
  EXPECT_EQ(SnapshotBytes(reopened.value()), SnapshotBytes(primary));
}

TEST_F(DurabilityTest, FailedReplicatedInstallRefusesWritesUntilReopened) {
  // A follower's snapshot install removes its WAL first; a failure after
  // that leaves the writer on a removed log, so the follower refuses
  // every later apply and install until it is reopened, which installs
  // cleanly.
  DurableSketchStore primary = MustOpen(Dir("primary"));
  ASSERT_TRUE(primary.IngestBatch(FractionalBatch()).ok());
  ASSERT_TRUE(primary.Checkpoint().ok());
  const std::string image = primary.EncodeReplicationSnapshot();
  const std::string follower_dir = Dir("follower");
  {
    auto opened = DurableSketchStore::Open(follower_dir, FollowerOptions());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurableSketchStore& follower = opened.value();
    {
      ScopedFileFault fault(FileOp::kRename,
                            DurableSketchStore::SnapshotPath(follower_dir),
                            EIO);
      EXPECT_EQ(follower.InstallReplicatedSnapshot(image, primary.epoch())
                    .code(),
                StatusCode::kInternal);
      EXPECT_EQ(fault.fired(), 1);
    }
    EXPECT_FALSE(follower.failure().ok());
    EXPECT_EQ(follower.InstallReplicatedSnapshot(image, primary.epoch()).code(),
              StatusCode::kInternal);
    EXPECT_EQ(
        follower.ApplyReplicatedSegment(follower.epoch(), kWalHeaderBytes, "")
            .code(),
        StatusCode::kInternal);
  }
  auto reopened = DurableSketchStore::Open(follower_dir, FollowerOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(
      reopened.value().InstallReplicatedSnapshot(image, primary.epoch()).ok());
  EXPECT_EQ(SnapshotBytes(reopened.value()), SnapshotBytes(primary));
}

TEST_F(DurabilityTest, FailedPromotionLeavesTheStoreAsItWas) {
  // Every durable step of a promotion must land before the store turns
  // writable: a failed LOCK write or checkpoint leaves a follower that
  // still refuses writes, with its old token, and a retry asks for the
  // same token. A 4-byte file-size cap fails the LOCK rewrite; a cap of
  // exactly the new LOCK's size lets it land and fails the checkpoint's
  // snapshot write.
  const std::string dir = Dir("promote");
  const std::string promoted_lock = "fence=2\nfenced=0\n5f710bf8\n";
  {
    auto opened = DurableSketchStore::Open(dir, FollowerOptions());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurableSketchStore& store = opened.value();
    const auto expect_unchanged = [&](const char* step) {
      EXPECT_EQ(store.role(), StoreRole::kFollower) << step;
      EXPECT_TRUE(store.writes_fenced()) << step;
      EXPECT_EQ(store.fence_token(), 1u) << step;
      EXPECT_EQ(store.IngestValue("s", 5, 1.0).code(), StatusCode::kFenced)
          << step;
    };
    EXPECT_FALSE(
        WithFileSizeCap(4, [&] { return store.AdoptFenceToken(7); }).ok());
    expect_unchanged("AdoptFenceToken, LOCK write failed");
    EXPECT_FALSE(
        WithFileSizeCap(4, [&] { return store.Promote().status(); }).ok());
    expect_unchanged("Promote, LOCK write failed");
    EXPECT_FALSE(WithFileSizeCap(promoted_lock.size(), [&] {
                   return store.Promote().status();
                 }).ok());
    EXPECT_EQ(ReadFile(DurableSketchStore::LockPath(dir)), promoted_lock);
    expect_unchanged("Promote, checkpoint failed");

    auto promoted = store.Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_EQ(promoted.value(), 2u);
    EXPECT_EQ(store.role(), StoreRole::kPrimary);
    EXPECT_FALSE(store.writes_fenced());
    EXPECT_TRUE(store.IngestValue("s", 5, 1.0).ok());
  }
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().fence_token(), 2u);
}

TEST_F(DurabilityTest, TornFenceRewriteFailsToOpen) {
  // The LOCK is rewritten in place. Under a 13-byte cap, Fence(5) writes
  // `fence=5\nfence` over `fence=1\nfenced=0\n…` and stops: the old
  // tail completes it into the new token, unfenced. The CRC line makes
  // that file fail to open instead of opening as a writable store
  // holding the new primary's token. A 4-byte cap stops inside the
  // unchanged `fence=` prefix and leaves the old LOCK intact.
  const std::string torn = Dir("torn");
  {
    DurableSketchStore store = MustOpen(torn);
    EXPECT_FALSE(WithFileSizeCap(13, [&] { return store.Fence(5); }).ok());
    EXPECT_TRUE(store.writes_fenced());  // refused in memory regardless
  }
  auto reopened = DurableSketchStore::Open(torn, Options());
  ASSERT_FALSE(reopened.ok()) << "reopened with token "
                              << reopened.value().fence_token();
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);

  const std::string intact = Dir("intact");
  std::string before;
  {
    DurableSketchStore store = MustOpen(intact);
    before = ReadFile(DurableSketchStore::LockPath(intact));
    EXPECT_FALSE(WithFileSizeCap(4, [&] { return store.Fence(5); }).ok());
  }
  EXPECT_EQ(ReadFile(DurableSketchStore::LockPath(intact)), before);
  auto kept = DurableSketchStore::Open(intact, Options());
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept.value().fence_token(), 1u);
  EXPECT_FALSE(kept.value().writes_fenced());
}

TEST_F(DurabilityTest, FailedFenceWriteIsRetried) {
  // A fence whose LOCK write fails refuses writes in memory only: a
  // restart would reopen the store unfenced, at its old token. A later
  // Fence with the same token must write the LOCK again instead of
  // returning early because the store is already fenced in memory.
  const std::string dir = Dir("fence_retry");
  {
    DurableSketchStore store = MustOpen(dir);
    EXPECT_FALSE(WithFileSizeCap(4, [&] { return store.Fence(5); }).ok());
    EXPECT_TRUE(store.writes_fenced());
    EXPECT_TRUE(store.fence_pending());
    const Status retried = store.Fence(5);
    EXPECT_TRUE(retried.ok()) << retried.ToString();
    EXPECT_FALSE(store.fence_pending());
  }
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().fence_token(), 5u);
  EXPECT_TRUE(reopened.value().fenced());
}

TEST_F(DurabilityTest, FenceStateWithoutChecksumLineOpensAndIsRewritten) {
  // A LOCK written before the CRC line holds the two fields alone. It
  // opens as before, and Open rewrites it with the line.
  const std::string dir = Dir("legacy_lock");
  { MustOpen(dir); }
  WriteFile(DurableSketchStore::LockPath(dir), "fence=3\nfenced=1\n");
  {
    DurableSketchStore store = MustOpen(dir);
    EXPECT_EQ(store.fence_token(), 3u);
    EXPECT_TRUE(store.writes_fenced());
  }
  EXPECT_EQ(ReadFile(DurableSketchStore::LockPath(dir)),
            "fence=3\nfenced=1\ndba2644e\n");
  // Anything else that is not the exact layout is refused.
  for (const char* bad : {"fence=3\nfenced=1\ndba2644", "fence=3\nfenced=1\nx",
                          "fence=3\nfenced=1\n00000000\n"}) {
    WriteFile(DurableSketchStore::LockPath(dir), bad);
    EXPECT_EQ(DurableSketchStore::Open(dir, Options()).status().code(),
              StatusCode::kCorruption)
        << bad;
  }
}

TEST_F(DurabilityTest, ReadWalChunkEndsOnWholeRecordsUnderEveryCap) {
  // The shipper reads the WAL in byte-capped chunks. Each must end on a
  // record boundary, a record longer than the cap must arrive whole,
  // and the chunks must add up to the log.
  const std::string dir = Dir("chunks");
  DurableSketchStore store = MustOpen(dir);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.IngestValue("s", 5, i).ok());
  auto sketch = std::move(DDSketch::Create(DDSketchConfig{})).value();
  for (int i = 1; i <= 3000; ++i) sketch.Add(i);
  const std::string payload = sketch.Serialize();
  ASSERT_GT(payload.size(), 500u);  // longer than every small cap below
  ASSERT_TRUE(store.Ingest("s", 5, payload).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.IngestValue("s", 5, i).ok());
  const std::string log =
      ReadFile(DurableSketchStore::WalPath(dir)).substr(kWalHeaderBytes);

  for (const uint64_t cap : {1, 30, 64, 100, 500, 1 << 20}) {
    std::string shipped;
    size_t chunks = 0;
    bool sketch_arrived = false;
    for (uint64_t offset = kWalHeaderBytes; offset < store.wal_offset();) {
      auto chunk = store.ReadWalChunk(offset, cap);
      ASSERT_TRUE(chunk.ok()) << "cap " << cap << ": "
                              << chunk.status().ToString();
      ASSERT_FALSE(chunk.value().empty()) << "cap " << cap;
      auto records = DecodeWalSegment(chunk.value());
      ASSERT_TRUE(records.ok()) << "cap " << cap << ": "
                                << records.status().ToString();
      for (const WalRecord& record : records.value()) {
        if (record.type != WalRecord::Type::kIngestSketch) continue;
        EXPECT_EQ(record.payload, payload) << "cap " << cap;
        sketch_arrived = true;
      }
      shipped += chunk.value();
      offset += chunk.value().size();
      ++chunks;
    }
    EXPECT_TRUE(sketch_arrived) << "cap " << cap;
    EXPECT_EQ(shipped, log) << "cap " << cap;
    // Values before the sketch, the sketch alone, values after it.
    EXPECT_EQ(chunks, cap < payload.size() ? 3u : 1u) << "cap " << cap;
  }
}

TEST_F(DurabilityTest, LiveReopenedAndFollowerStatesAreByteIdentical) {
  // Full mergeability makes the three routes to a store's state — the
  // live group commit, WAL replay on reopen, and a follower applying
  // the shipped bytes — agree exactly, down to the serialized sum. The
  // log holds single-value records, pipelined windows' units, and MERGE
  // payloads each route must canonicalize (OddPayloads), and the state
  // is also the one the same values give one record each.
  const std::string dir = Dir("identity");
  const std::string follower_dir = Dir("identity_follower");
  std::string live;
  std::string shipped;
  {
    DurableSketchStore primary = MustOpen(dir);
    ASSERT_TRUE(primary.IngestBatch(FractionalBatch()).ok());
    ASSERT_TRUE(primary.IngestBatch(PipelinedWindows()).ok());
    ASSERT_TRUE(primary.IngestBatch(OddPayloads()).ok());
    live = SnapshotBytes(primary);
    auto segment = primary.ReadWalChunk(kWalHeaderBytes, 1 << 20);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    shipped = std::move(segment).value();
  }
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(SnapshotBytes(reopened.value()), live);
  auto follower = DurableSketchStore::Open(follower_dir, FollowerOptions());
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_TRUE(
      follower.value().ApplyReplicatedSegment(1, kWalHeaderBytes, shipped)
          .ok());
  EXPECT_EQ(SnapshotBytes(follower.value()), live);
  DurableSketchStore value_by_value = MustOpen(Dir("identity_values"));
  ASSERT_TRUE(value_by_value.IngestBatch(FractionalBatch()).ok());
  ASSERT_TRUE(
      value_by_value.IngestBatch(OneValuePerRecord(PipelinedWindows())).ok());
  ASSERT_TRUE(value_by_value.IngestBatch(OddPayloads()).ok());
  EXPECT_EQ(SnapshotBytes(value_by_value), live);
}

TEST_F(DurabilityTest, FollowerWithoutALadderAdoptsItsPrimarysLadder) {
  // A follower opened with no ladder (sketchd without --rollup-levels)
  // takes on the ladder of its primary's replicated snapshot and keeps
  // it across a reopen; a follower opened with another ladder refuses
  // the snapshot.
  std::string image;
  uint64_t wal_epoch = 0;
  {
    DurableSketchStore primary = MustOpen(Dir("ladder_primary"));
    ASSERT_TRUE(primary.IngestValue("s", 5, 1.0).ok());
    ASSERT_TRUE(primary.CheckpointForReplication().ok());
    image = primary.EncodeReplicationSnapshot();
    wal_epoch = primary.epoch();
  }
  DurableSketchStoreOptions adopt;
  adopt.role = StoreRole::kFollower;
  {
    auto follower = DurableSketchStore::Open(Dir("ladder_adopt"), adopt);
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    ASSERT_NE(follower.value().store().options().levels,
              Options().store.levels);
    const Status installed =
        follower.value().InstallReplicatedSnapshot(image, wal_epoch);
    ASSERT_TRUE(installed.ok()) << installed.ToString();
    EXPECT_EQ(follower.value().store().options().levels,
              Options().store.levels);
    EXPECT_EQ(follower.value().store().num_intervals(), 1u);
  }
  auto reopened = DurableSketchStore::Open(Dir("ladder_adopt"), adopt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().store().options().levels,
            Options().store.levels);

  DurableSketchStoreOptions pinned = FollowerOptions();
  pinned.store.levels = {{60, 0}};
  auto other = DurableSketchStore::Open(Dir("ladder_other"), pinned);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(other.value().InstallReplicatedSnapshot(image, wal_epoch).code(),
            StatusCode::kIncompatible);
  EXPECT_EQ(other.value().store().num_intervals(), 0u);
}

TEST_F(DurabilityTest, FrozenAndThawedIntervalsKeepStatesByteIdentical) {
  // A checkpoint freezes every interval. After it, raw values and MERGEs
  // thaw frozen intervals, a MERGE into an empty interval arrives frozen,
  // and late writes land behind the rollup horizon, where the next
  // checkpoint folds them into frozen coarse intervals. At the end the
  // primary has checkpointed once more (everything frozen), while a
  // follower and a reopened copy of the directory (snapshot frozen, WAL
  // replay thawing what it touches) hold the last epoch's intervals
  // dense. Their snapshots must agree byte for byte, and every query
  // must match a plain map of interval sketches.
  const std::string dir = Dir("frozen");
  const std::string copy_dir = Dir("frozen_copy");
  const std::string follower_dir = Dir("frozen_follower");
  const DDSketch prototype =
      std::move(DDSketch::Create(DDSketchConfig{})).value();
  std::map<std::string, std::map<int64_t, DDSketch>> reference;  // 10 s
  Rng rng(7);
  std::vector<WalRecord> batch;
  const auto value = [&](const std::string& series, int64_t ts) {
    WalRecord record;
    record.type = WalRecord::Type::kIngestValue;
    record.series = series;
    record.timestamp = ts;
    record.value = std::exp(rng.NextDouble() * 8 - 2) *
                   (rng.NextBounded(5) == 0 ? -1.0 : 1.0);
    reference[series].try_emplace(ts - ts % 10, prototype)
        .first->second.Add(record.value);
    batch.push_back(std::move(record));
  };
  const auto merge = [&](const std::string& series, int64_t ts) {
    DDSketch worker = prototype;
    for (int i = 0; i < 20; ++i) {
      worker.Add(std::exp(rng.NextDouble() * 8 - 2) *
                 (rng.NextBounded(5) == 0 ? -1.0 : 1.0));
    }
    WalRecord record;
    record.type = WalRecord::Type::kIngestSketch;
    record.series = series;
    record.timestamp = ts;
    record.payload = worker.Serialize();
    ASSERT_TRUE(reference[series].try_emplace(ts - ts % 10, prototype)
                    .first->second.MergeFrom(worker)
                    .ok());
    batch.push_back(std::move(record));
  };

  DurableSketchStore primary = MustOpen(dir);
  auto follower = DurableSketchStore::Open(follower_dir, FollowerOptions());
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  // Commits the batch on the primary and ships the epoch's log so far.
  const auto commit = [&] {
    ASSERT_TRUE(primary.IngestBatch(batch).ok());
    batch.clear();
    auto segment = primary.ReadWalChunk(kWalHeaderBytes, 1 << 24);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    ASSERT_EQ(kWalHeaderBytes + segment.value().size(), primary.wal_offset());
    ASSERT_TRUE(follower.value()
                    .ApplyReplicatedSegment(primary.epoch(), kWalHeaderBytes,
                                            segment.value())
                    .ok());
  };

  // Epoch 1: half an hour of both series. Its checkpoint folds
  // [0, 1200) into 60 s intervals and freezes everything.
  for (int64_t t = 0; t < 1800; t += 10) {
    value("a", t + 3);
    value("a", t + 4);
    merge("b", t + 5);
  }
  commit();
  ASSERT_TRUE(primary.Checkpoint().ok());

  // Epoch 2: writes into frozen raw intervals, late writes behind the
  // horizon (a new raw interval beside a frozen coarse one, thawed by
  // its second write, and one that arrives frozen), ten more minutes,
  // and a series whose first MERGE arrives frozen and second thaws it.
  value("a", 1205);
  value("a", 1503);
  merge("b", 1207);
  value("a", 303);
  merge("a", 305);
  merge("b", 502);
  for (int64_t t = 1800; t < 2400; t += 10) {
    value("a", t + 1);
    merge("b", t + 2);
  }
  merge("c", 2000);
  merge("c", 2001);
  commit();
  // Folds [1200, 1800) and the late raw intervals into coarse ones that
  // the last checkpoint froze.
  ASSERT_TRUE(primary.Checkpoint().ok());

  // Epoch 3: thaw frozen raw intervals, merge into a thawed one, start a
  // new series frozen. Nothing here is old enough to fold.
  value("a", 1905);
  merge("b", 2105);
  merge("c", 2002);
  merge("d", 2100);
  value("a", 1906);
  commit();
  for (const char* file : {"LOCK", "snapshot.dds", "wal.log"}) {
    fs::create_directories(copy_dir);
    fs::copy_file(fs::path(dir) / file, fs::path(copy_dir) / file);
  }
  const std::string live = EncodeSnapshot(primary.store(), 0);
  ASSERT_TRUE(primary.Checkpoint().ok());
  auto reopened = DurableSketchStore::Open(copy_dir, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  const SketchStore* holders[] = {&primary.store(), &reopened.value().store(),
                                  &follower.value().store()};
  for (const SketchStore* store : holders) {
    EXPECT_EQ(EncodeSnapshot(*store, 0), live);
  }
  // The checkpoint froze the intervals the other two still hold dense.
  EXPECT_LT(primary.store().size_in_bytes(),
            follower.value().store().size_in_bytes());
  EXPECT_LT(primary.store().size_in_bytes(),
            reopened.value().store().size_in_bytes());

  // Windows aligned to the coarse width hold whole raw intervals at
  // every level, so they answer exactly what the raw map does.
  const std::vector<double> qs = {0.0, 0.1, 0.5, 0.9, 0.99, 1.0};
  for (const auto& [series, intervals] : reference) {
    for (const auto& [start, end] :
         std::vector<std::pair<int64_t, int64_t>>{
             {0, 2400}, {0, 600}, {300, 360}, {480, 540}, {240, 1260},
             {1200, 1860}, {1800, 2400}, {1980, 2040}}) {
      DDSketch want = prototype;
      for (auto it = intervals.lower_bound(start);
           it != intervals.end() && it->first < end; ++it) {
        ASSERT_TRUE(want.MergeFrom(it->second).ok());
      }
      for (const SketchStore* store : holders) {
        auto got = store->QueryRange(series, start, end);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got.value().count(), want.count())
            << series << " [" << start << ", " << end << ")";
        if (want.empty()) continue;
        for (double q : qs) {
          EXPECT_EQ(got.value().QuantileOrNaN(q), want.QuantileOrNaN(q))
              << series << " [" << start << ", " << end << ") q=" << q;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dd
