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

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/ddsketch.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/file_io.h"
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

  /// Runs `write` as if the disk filled up a few bytes into the WAL's
  /// next record: the process file-size limit sits just past the log's
  /// current size (with SIGXFSZ ignored, a write beyond it fails with
  /// EFBIG after writing what fits). The limit and the handler are
  /// restored right after the call.
  template <typename Write>
  static Status WithWalCapped(const std::string& dir, Write write) {
    struct rlimit saved;
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    struct rlimit capped = saved;
    capped.rlim_cur = WalFileSize(dir) + 5;
    const auto handler = std::signal(SIGXFSZ, SIG_IGN);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const Status status = write();
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, handler);
    return status;
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

TEST_F(DurabilityTest, LiveReopenedAndFollowerStatesAreByteIdentical) {
  // Full mergeability makes the three routes to a store's state — the
  // live group commit, WAL replay on reopen, and a follower applying
  // the shipped bytes — agree exactly, down to the serialized sum.
  const std::string dir = Dir("identity");
  const std::string follower_dir = Dir("identity_follower");
  std::string live;
  std::string shipped;
  {
    DurableSketchStore primary = MustOpen(dir);
    ASSERT_TRUE(primary.IngestBatch(FractionalBatch()).ok());
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
}

}  // namespace
}  // namespace dd
