// End-to-end tests for WAL-shipping replication with fenced failover
// (server/replication.h, docs/PROTOCOL.md v5). The centerpiece is a
// kill-the-primary drill over real processes: a forked primary is
// SIGKILLed mid-burst, the follower is promoted, and every record the
// client was ever acked must be queryable on the new primary — the
// semi-synchronous ack gate (client acks park until subscribers confirm
// the batch) is what makes that a hard guarantee rather than a race.
// The rest covers bit-exact follower reads, live demotion via the FENCE
// frame, follower restart mid-tail, checkpoint-crossing resync, and the
// ex-primary rejoining fenced.

#include "server/replication.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "file_faults.h"
#include "server/client.h"
#include "server/server.h"
#include "timeseries/durable_store.h"
#include "timeseries/sharded_store.h"
#include "timeseries/sketch_store.h"
#include "timeseries/snapshot.h"
#include "util/status.h"

namespace dd {
namespace {

namespace fs = std::filesystem;

/// Polls `condition` every 10 ms until true or `timeout_ms` elapses.
bool AwaitTrue(const std::function<bool()>& condition,
               int64_t timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return condition();
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("dd_repl_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  static std::unique_ptr<SketchServer> MustStart(
      const std::string& dir, const SketchServerOptions& options = {}) {
    auto server = SketchServer::Start(dir, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  static SketchClient MustConnect(uint16_t port) {
    auto client = SketchClient::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  static SketchServerOptions FollowerOptions(uint16_t primary_port) {
    SketchServerOptions options;
    options.durable.role = StoreRole::kFollower;
    options.follow_host = "127.0.0.1";
    options.follow_port = primary_port;
    return options;
  }

  /// Blocks until `server`'s STATS report at least `n` replication
  /// subscribers (i.e. a follower finished SUBSCRIBE and was adopted).
  static void AwaitSubscribers(uint16_t port, uint64_t n) {
    SketchClient client = MustConnect(port);
    ASSERT_TRUE(AwaitTrue([&] {
      auto stats = client.Stats();
      return stats.ok() && stats.value().repl_subscribers >= n;
    })) << "no follower subscribed in time";
  }

  fs::path root_;
};

// ---------------------------------------------------------------------------
// Bit-exact follower reads: both stores apply the identical WAL record
// stream, so quantiles must match to the last bit, not just within
// alpha.

TEST_F(ReplicationTest, FollowerAnswersQueriesBitExact) {
  auto primary = MustStart(Dir("primary"));
  auto follower =
      MustStart(Dir("follower"), FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);

  SketchClient client = MustConnect(primary->port());
  for (int i = 0; i < 400; ++i) {
    const double value = 1.0 + (i % 83) * 0.25;
    const int64_t ts = (i % 20) * 10;
    ASSERT_TRUE(client.IngestValue("api.latency", ts, value).ok());
  }
  // Semi-sync replication means the last OK ack already implies the
  // follower applied everything before it — no settling sleep needed.
  SketchClient follower_client = MustConnect(follower->port());
  const std::vector<double> qs = {0.1, 0.5, 0.9, 0.99, 0.999};
  auto on_primary = client.Query("api.latency", 0, 200, qs);
  auto on_follower = follower_client.Query("api.latency", 0, 200, qs);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_TRUE(on_follower.ok()) << on_follower.status().ToString();
  ASSERT_EQ(on_primary.value().size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(on_primary.value()[i], on_follower.value()[i]) << "q=" << qs[i];
  }

  // Followers are read-only: writes are refused with FENCED, and the
  // refusal never reaches the follower's WAL.
  EXPECT_EQ(follower_client.IngestValue("api.latency", 0, 1.0).code(),
            StatusCode::kFenced);
  auto stats = follower_client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().role, 1u);
  EXPECT_EQ(stats.value().repl_connected, 1u);
}

// ---------------------------------------------------------------------------
// The headline drill: SIGKILL the primary process mid-burst, promote
// the follower, and require every acked record to be queryable on the
// new primary. The primary runs in a forked child (forked before this
// process starts any server threads, so the child is async-signal
// clean); acks gate on follower confirmation, which is exactly the
// property that makes "acked implies survives failover" true.

TEST_F(ReplicationTest, KillThePrimaryLosesNoAckedRecord) {
  const std::string primary_dir = Dir("primary");
  const std::string follower_dir = Dir("follower");

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the primary until SIGKILLed. Nothing here may touch
    // gtest; exit paths use _exit.
    ::close(port_pipe[0]);
    SketchServerOptions options;
    options.repl_ack_timeout_ms = 5000;
    auto server = SketchServer::Start(primary_dir, options);
    if (!server.ok()) {
      const uint32_t zero = 0;
      (void)!::write(port_pipe[1], &zero, sizeof(zero));
      ::_exit(1);
    }
    const uint32_t port = server.value()->port();
    (void)!::write(port_pipe[1], &port, sizeof(port));
    ::close(port_pipe[1]);
    for (;;) ::pause();
  }
  ::close(port_pipe[1]);
  uint32_t primary_port = 0;
  ASSERT_EQ(::read(port_pipe[0], &primary_port, sizeof(primary_port)),
            static_cast<ssize_t>(sizeof(primary_port)));
  ::close(port_pipe[0]);
  ASSERT_GT(primary_port, 0u) << "child primary failed to start";

  auto follower = MustStart(
      follower_dir, FollowerOptions(static_cast<uint16_t>(primary_port)));
  AwaitSubscribers(static_cast<uint16_t>(primary_port), 1);

  // Burst with the kill landing mid-way. The client is synchronous, so
  // when the kill lands between an ack and the next request, the acked
  // prefix is exactly the record set the new primary must hold — no
  // more (nothing else was ever sent), no less (acks gate on the
  // follower's confirmation).
  SketchClient client = MustConnect(static_cast<uint16_t>(primary_port));
  constexpr int kBurst = 800;
  constexpr int kKillAt = 300;
  int acked = 0;
  for (int i = 0; i < kBurst; ++i) {
    if (i == kKillAt) {
      ASSERT_EQ(::kill(child, SIGKILL), 0);
    }
    const Status status =
        client.IngestValue("kill.burst", i, 100.0 + i);
    if (!status.ok()) break;  // the socket died with the primary
    ++acked;
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  // Every pre-kill ingest must have been acked OK (BUSY is retried
  // internally and nothing else may refuse) — this pins the test
  // deterministic instead of "however far the burst got".
  ASSERT_EQ(acked, kKillAt);

  // Failover: promote the follower through the wire protocol.
  SketchClient follower_client = MustConnect(follower->port());
  auto token = follower_client.Promote();
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  EXPECT_GE(token.value(), 1u);

  // The new primary's state must be bit-exact equal to an in-process
  // reference holding exactly the acked records: nothing acked is
  // missing, and nothing unacked leaked in.
  auto ref = std::move(SketchStore::Create(SketchStoreOptions{})).value();
  for (int i = 0; i < acked; ++i) {
    ASSERT_TRUE(ref.IngestValue("kill.burst", i, 100.0 + i).ok());
  }
  const std::vector<double> qs = {0.1, 0.5, 0.9, 0.99};
  auto survived = follower_client.Query("kill.burst", 0, kBurst, qs);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(survived.value()[i],
              std::move(ref.QueryQuantile("kill.burst", 0, kBurst, qs[i]))
                  .value())
        << "q=" << qs[i];
  }

  // The new primary accepts writes.
  ASSERT_TRUE(
      follower_client.IngestValue("kill.burst", kBurst, 5000.0).ok());

  // The ex-primary's directory rejoins as a follower of the new
  // primary, adopts its fencing token, resyncs, and refuses writes.
  auto rejoined = MustStart(primary_dir, FollowerOptions(follower->port()));
  AwaitSubscribers(follower->port(), 1);
  SketchClient rejoined_client = MustConnect(rejoined->port());
  EXPECT_EQ(rejoined_client.IngestValue("kill.burst", 0, 1.0).code(),
            StatusCode::kFenced);
  // One more write through the new primary: its OK ack implies the
  // rejoined follower applied everything up to it, after which the two
  // must answer identically.
  ASSERT_TRUE(
      follower_client.IngestValue("kill.burst", kBurst + 1, 6000.0).ok());
  auto on_new_primary =
      follower_client.Query("kill.burst", 0, kBurst + 2, qs);
  auto on_rejoined = rejoined_client.Query("kill.burst", 0, kBurst + 2, qs);
  ASSERT_TRUE(on_new_primary.ok()) << on_new_primary.status().ToString();
  ASSERT_TRUE(on_rejoined.ok()) << on_rejoined.status().ToString();
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(on_new_primary.value()[i], on_rejoined.value()[i])
        << "q=" << qs[i];
  }
}

// ---------------------------------------------------------------------------
// Live demotion: promoting the follower while the old primary is still
// up must fence the old primary (FENCE frame upstream), so a
// split-brain window closes with FENCED refusals instead of divergence.

TEST_F(ReplicationTest, PromotingTheFollowerFencesALivePrimary) {
  auto primary = MustStart(Dir("primary"));
  auto follower =
      MustStart(Dir("follower"), FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);

  SketchClient client = MustConnect(primary->port());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.IngestValue("demote", i, 1.0 + i).ok());
  }

  // A follower refuses every write with FENCED, and STATS says so; the
  // promotion lifts both.
  SketchClient follower_client = MustConnect(follower->port());
  auto before = follower_client.Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().role, 1u);
  EXPECT_EQ(before.value().fenced, 1u);
  EXPECT_EQ(follower_client.IngestValue("demote", 0, 1.0).code(),
            StatusCode::kFenced);
  auto token = follower_client.Promote();
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  auto after = follower_client.Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().role, 0u);
  EXPECT_EQ(after.value().fenced, 0u);

  // The FENCE frame races the promote's return; poll until the old
  // primary starts refusing. Once fenced it must stay fenced (sticky),
  // even for brand-new series.
  ASSERT_TRUE(AwaitTrue([&] {
    return client.IngestValue("demote", 1000, 1.0).code() ==
           StatusCode::kFenced;
  })) << "old primary never fenced after follower promotion";
  EXPECT_EQ(client.IngestValue("fresh.series", 0, 1.0).code(),
            StatusCode::kFenced);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().fenced, 1u);
  EXPECT_GE(stats.value().fence_token, token.value());

  // CHECKPOINT is a write too: a fenced primary refuses it.
  SketchClient fenced_client = MustConnect(primary->port());
  EXPECT_EQ(fenced_client.Checkpoint().status().code(), StatusCode::kFenced);

  // The promoted follower serves reads and writes.
  ASSERT_TRUE(follower_client.IngestValue("demote", 100, 42.0).ok());
  auto q = follower_client.Query("demote", 100, 101, {0.5});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

// ---------------------------------------------------------------------------
// A follower that restarts mid-tail must resync (snapshot bootstrap or
// segment resume) and converge to the primary's exact state.

TEST_F(ReplicationTest, FollowerRestartMidTailResyncs) {
  auto primary = MustStart(Dir("primary"));
  const std::string follower_dir = Dir("follower");
  auto follower =
      MustStart(follower_dir, FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);

  SketchClient client = MustConnect(primary->port());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.IngestValue("restart", i % 50, 1.0 + i).ok());
  }
  follower->Stop();
  follower.reset();

  // The primary keeps accepting writes with no follower attached (the
  // ack gate degrades to async once the last subscriber is gone).
  for (int i = 200; i < 400; ++i) {
    ASSERT_TRUE(client.IngestValue("restart", i % 50, 1.0 + i).ok());
  }

  follower = MustStart(follower_dir, FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);
  // A post-resubscribe write's OK ack implies the follower caught up.
  ASSERT_TRUE(client.IngestValue("restart", 49, 999.0).ok());

  SketchClient follower_client = MustConnect(follower->port());
  const std::vector<double> qs = {0.25, 0.5, 0.75, 0.99};
  auto on_primary = client.Query("restart", 0, 50, qs);
  auto on_follower = follower_client.Query("restart", 0, 50, qs);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_TRUE(on_follower.ok()) << on_follower.status().ToString();
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(on_primary.value()[i], on_follower.value()[i]) << "q=" << qs[i];
  }
}

// ---------------------------------------------------------------------------
// A checkpoint on the primary bumps the WAL epoch; the shipper resyncs
// subscribers across it (snapshot, then segments of the new epoch), and
// the follower's visible epoch advances to match.

TEST_F(ReplicationTest, FollowerCrossesPrimaryCheckpoints) {
  SketchServerOptions primary_options;
  auto primary = MustStart(Dir("primary"), primary_options);
  auto follower =
      MustStart(Dir("follower"), FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);

  SketchClient client = MustConnect(primary->port());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.IngestValue("ckpt", i % 10, 1.0 + i).ok());
  }
  auto epoch = client.Checkpoint();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  ASSERT_GE(epoch.value(), 2u);
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(client.IngestValue("ckpt", i % 10, 1.0 + i).ok());
  }

  // The last OK ack means the follower confirmed a position in the
  // post-checkpoint epoch; its own epoch must have advanced with it.
  SketchClient follower_client = MustConnect(follower->port());
  auto stats = follower_client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().epoch, epoch.value());

  const std::vector<double> qs = {0.5, 0.9, 0.999};
  auto on_primary = client.Query("ckpt", 0, 10, qs);
  auto on_follower = follower_client.Query("ckpt", 0, 10, qs);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_TRUE(on_follower.ok()) << on_follower.status().ToString();
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(on_primary.value()[i], on_follower.value()[i]) << "q=" << qs[i];
  }
}

// ---------------------------------------------------------------------------
// The failover flow's hard case: the deposed primary died holding a
// durable WAL suffix that was never replicated (committed, but the kill
// landed before the follower confirmed — so never acked to any client).
// When its directory rejoins as a follower, that divergent suffix must
// be discarded via a snapshot resync — never tailed as if it were a
// prefix of the new primary's log (which would either CRC-livelock the
// session or, worse, silently keep diverged state). Promotion bumps the
// WAL epoch and the rejoiner's stale fencing token voids its resume
// positions; both independently force the snapshot path.

TEST_F(ReplicationTest, DeposedPrimaryDivergentSuffixIsDiscardedOnRejoin) {
  const std::string a_dir = Dir("a");
  auto a = MustStart(a_dir);
  auto b = MustStart(Dir("b"), FollowerOptions(a->port()));
  AwaitSubscribers(a->port(), 1);

  SketchClient client = MustConnect(a->port());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.IngestValue("base", i % 10, 1.0 + i).ok());
  }
  // "Kill" A and give its directory the un-replicated durable suffix a
  // real mid-burst kill leaves behind: records in A's WAL that B never
  // received (and no client was ever acked).
  a->Stop();
  a.reset();
  {
    auto store = DurableSketchStore::Open(a_dir, {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 0; i < 37; ++i) {
      ASSERT_TRUE(store.value().IngestValue("divergent", i, 7.0 + i).ok());
    }
  }

  // Failover to B, then move its log past A's (same-epoch offsets would
  // otherwise tempt a naive shipper into tailing A's divergent bytes).
  SketchClient b_client = MustConnect(b->port());
  auto token = b_client.Promote();
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(b_client.IngestValue("post", i % 10, 2.0 + i).ok());
  }
  // Grow "base" past the promotion too: the series now spans the
  // snapshot and the tail epoch, so any record applied twice during
  // the rejoin's resync (e.g. a snapshot that already contained tail
  // bytes which are then shipped again) shifts its quantiles and fails
  // the bit-exact comparison below.
  for (int i = 100; i < 160; ++i) {
    ASSERT_TRUE(b_client.IngestValue("base", i % 10, 1.0 + i).ok());
  }

  auto rejoined = MustStart(a_dir, FollowerOptions(b->port()));
  AwaitSubscribers(b->port(), 1);
  // Semi-sync: this ack means the rejoined follower confirmed a
  // position at or past it — i.e. it finished resyncing.
  ASSERT_TRUE(b_client.IngestValue("post", 100, 999.0).ok());

  // The divergent suffix is gone: neither server knows the series.
  SketchClient rejoined_client = MustConnect(rejoined->port());
  EXPECT_FALSE(rejoined_client.Query("divergent", 0, 64, {0.5}).ok());
  EXPECT_FALSE(b_client.Query("divergent", 0, 64, {0.5}).ok());

  // Everything that *was* acked answers bit-exact on both.
  const std::vector<double> qs = {0.1, 0.5, 0.9, 0.99};
  for (const char* series : {"base", "post"}) {
    auto on_primary = b_client.Query(series, 0, 200, qs);
    auto on_rejoined = rejoined_client.Query(series, 0, 200, qs);
    ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
    ASSERT_TRUE(on_rejoined.ok()) << on_rejoined.status().ToString();
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(on_primary.value()[i], on_rejoined.value()[i])
          << series << " q=" << qs[i];
    }
  }
}

// ---------------------------------------------------------------------------
// A checkpoint with a caught-up follower attached must NOT ship a full
// snapshot: the shipper rolls the subscriber across the epoch boundary
// and the follower folds its own state (ApplyReplicatedSegment's
// checkpoint-crossing path). Snapshots are for followers that genuinely
// missed bytes (disconnected across the checkpoint), not for every
// live one on every checkpoint.

TEST_F(ReplicationTest, CheckpointShipsNoSnapshotToCaughtUpFollower) {
  auto primary = MustStart(Dir("primary"));
  auto follower =
      MustStart(Dir("follower"), FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);

  SketchClient client = MustConnect(primary->port());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.IngestValue("ride", i % 10, 1.0 + i).ok());
  }
  // The last ack implies the follower confirmed the pre-checkpoint end
  // of the log, so the subscriber is exactly at the epoch boundary.
  const uint64_t snapshots_before = primary->repl_snapshot_frames();
  auto epoch = client.Checkpoint();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(client.IngestValue("ride", i % 10, 1.0 + i).ok());
  }
  // Those post-checkpoint acks gated on the follower applying segments
  // of the new epoch — which it can only have done by crossing the
  // checkpoint. No snapshot may have been involved.
  EXPECT_EQ(primary->repl_snapshot_frames(), snapshots_before);

  SketchClient follower_client = MustConnect(follower->port());
  auto stats = follower_client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().epoch, epoch.value());
  const std::vector<double> qs = {0.5, 0.9, 0.999};
  auto on_primary = client.Query("ride", 0, 10, qs);
  auto on_follower = follower_client.Query("ride", 0, 10, qs);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_TRUE(on_follower.ok()) << on_follower.status().ToString();
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(on_primary.value()[i], on_follower.value()[i]) << "q=" << qs[i];
  }
}

// ---------------------------------------------------------------------------
// The rollup determinism invariant, observed through replication: the
// ladder folds ONLY at epoch boundaries, and a follower crossing a
// checkpoint runs the identical fold (Compact at the same boundary over
// the same applied records, in the same order). So after a rollup
// checkpoint the two stores are byte-identical — not merely
// answer-identical — which is what lets snapshots, WAL shipping, and
// failover stay oblivious to how many resolution tiers exist.

TEST_F(ReplicationTest, FollowerCrossesARollupCheckpointByteExact) {
  const std::vector<RollupLevel> ladder = {{10, 120}, {60, 0}};
  SketchServerOptions primary_options;
  primary_options.durable.store.levels = ladder;
  auto primary = MustStart(Dir("primary"), primary_options);
  SketchServerOptions follower_options = FollowerOptions(primary->port());
  follower_options.durable.store.levels = ladder;
  auto follower = MustStart(Dir("follower"), follower_options);
  AwaitSubscribers(primary->port(), 1);

  SketchClient client = MustConnect(primary->port());
  // Aged data: spans ~2000s, far past the 120s raw retention, so the
  // COMPACT below has real folding to do.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        client.IngestValue("lad", i * 5, 1.0 + (i % 61) * 0.5).ok());
  }
  auto compacted = client.Compact(std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_GT(compacted.value(), 0u);
  // Post-rollup ingest streams into the new epoch on both sides.
  for (int i = 400; i < 500; ++i) {
    ASSERT_TRUE(
        client.IngestValue("lad", i * 5, 2.0 + (i % 61) * 0.5).ok());
  }

  // The last OK ack gated on the follower applying an epoch-2 segment,
  // which it can only have done by running the rollup fold itself.
  SketchClient follower_client = MustConnect(follower->port());
  auto fstats = follower_client.Stats();
  ASSERT_TRUE(fstats.ok()) << fstats.status().ToString();
  EXPECT_GE(fstats.value().epoch, 2u);
  auto pstats = client.Stats();
  ASSERT_TRUE(pstats.ok()) << pstats.status().ToString();
  ASSERT_EQ(pstats.value().levels.size(), 2u);
  ASSERT_EQ(fstats.value().levels.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(pstats.value().levels[i].num_intervals,
              fstats.value().levels[i].num_intervals)
        << "level " << i;
    EXPECT_EQ(pstats.value().levels[i].rollup_merges,
              fstats.value().levels[i].rollup_merges)
        << "level " << i;
  }

  // Answers match bit-for-bit across windows touching every tier.
  const std::vector<double> qs = {0.1, 0.5, 0.9, 0.999};
  for (int64_t start = 0; start < 2400; start += 600) {
    auto on_primary = client.Query("lad", start, start + 600, qs);
    auto on_follower = follower_client.Query("lad", start, start + 600, qs);
    ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
    ASSERT_TRUE(on_follower.ok()) << on_follower.status().ToString();
    EXPECT_EQ(on_primary.value(), on_follower.value()) << "@" << start;
  }

  // The strong form: identical fold schedule means identical in-memory
  // state, so the two stores encode to the same snapshot bytes.
  follower->Stop();
  primary->Stop();
  DurableSketchStoreOptions open_options;
  open_options.store.levels = ladder;
  auto p = DurableSketchStore::Open(Dir("primary"), open_options);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  DurableSketchStoreOptions follower_open = open_options;
  follower_open.role = StoreRole::kFollower;
  auto f = DurableSketchStore::Open(Dir("follower"), follower_open);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(p.value().epoch(), f.value().epoch());
  EXPECT_EQ(EncodeSnapshot(p.value().store(), 0),
            EncodeSnapshot(f.value().store(), 0));
}

// ---------------------------------------------------------------------------
// Chunked snapshot bootstrap (v6): with the chunk size shrunk far below
// the image size, a late-joining follower's bootstrap must stream as a
// kSnapshotChunk train closed by kSnapshotEnd — and land it in exactly
// the same state a single-frame snapshot would have.

TEST_F(ReplicationTest, LateFollowerBootstrapsViaChunkedSnapshot) {
  SketchServerOptions primary_options;
  primary_options.repl_snapshot_chunk_bytes = 128;
  auto primary = MustStart(Dir("primary"), primary_options);
  SketchClient client = MustConnect(primary->port());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(client
                    .IngestValue("svc." + std::to_string(i % 20), (i % 40) * 10,
                                 1.0 + (i % 97) * 0.5)
                    .ok());
  }
  // Checkpoint so the pre-join records live only in the snapshot — a
  // late follower cannot tail its way to them.
  auto epoch = client.Checkpoint();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  auto follower =
      MustStart(Dir("follower"), FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);

  // Post-bootstrap tailing still works on top of the installed image.
  ASSERT_TRUE(client.IngestValue("svc.0", 500, 42.0).ok());

  SketchClient follower_client = MustConnect(follower->port());
  ASSERT_TRUE(AwaitTrue([&] {
    auto stats = follower_client.Stats();
    return stats.ok() && stats.value().repl_applied_bytes > 0;
  })) << "follower never applied the bootstrap snapshot";
  // 20 populated series encode far past 128 bytes: the image cannot
  // have fit in one frame. Checked only now: the shipper's pump thread
  // counts the snapshot when it ships it, after the subscriber count
  // AwaitSubscribers watches has already risen.
  EXPECT_GE(primary->repl_snapshot_frames(), 1u);
  const std::vector<double> qs = {0.25, 0.5, 0.99};
  for (int s = 0; s < 20; ++s) {
    const std::string name = "svc." + std::to_string(s);
    auto on_primary = client.Query(name, 0, 600, qs);
    auto on_follower = follower_client.Query(name, 0, 600, qs);
    ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
    ASSERT_TRUE(on_follower.ok()) << on_follower.status().ToString();
    EXPECT_EQ(on_primary.value(), on_follower.value()) << name;
  }
}

// ---------------------------------------------------------------------------
// Fencing discovered outside the FENCE-frame path (a SUBSCRIBE carrying
// a newer token, SketchServer::FenceSelf) must still flip the shipper:
// batches parked for subscriber acks release as FENCED, never OK — an
// OK would promise durability on a primary that just lost its lease.

TEST_F(ReplicationTest, ShipperFenceReleasesParkedAcksAsFenced) {
  const std::string dir = Dir("store");
  auto store = DurableSketchStore::Open(dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store.value().IngestValue("s", 0, 1.0).ok());
  std::mutex store_mu;

  ReplicationShipperOptions options;
  options.ack_timeout_ms = 60000;  // far beyond the test: only Fence()
                                   // may release the parked batch
  ReplicationShipper shipper({ReplShard{&store_mu, &store.value()}}, options,
                             /*on_fence=*/nullptr);
  shipper.Start();

  // A fake follower that subscribes and then never acks.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_EQ(::fcntl(pair[0], F_SETFL, O_NONBLOCK), 0);
  shipper.AddSubscriber(pair[0], "", {});
  ASSERT_TRUE(AwaitTrue([&] { return shipper.subscribers() == 1; }));

  std::atomic<bool> released{false};
  std::atomic<bool> fenced{false};
  uint64_t epoch = 0;
  uint64_t offset = 0;
  {
    std::lock_guard<std::mutex> lk(store_mu);
    epoch = store.value().epoch();
    offset = store.value().wal_offset();
  }
  shipper.SubmitCommitted(0, epoch, offset, [&](bool f) {
    fenced.store(f);
    released.store(true);
  });
  // Parked: the only subscriber never acks.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_FALSE(released.load());

  shipper.Fence();
  ASSERT_TRUE(AwaitTrue([&] { return released.load(); }))
      << "Fence() did not release the parked completion";
  EXPECT_TRUE(fenced.load()) << "parked ack released as OK on a fenced "
                                "primary";
  shipper.Stop();
  ::close(pair[1]);
}

// ---------------------------------------------------------------------------
// Configuration guards: a follower role without a primary to follow is
// refused at startup, and SUBSCRIBE against a follower is refused (no
// chained replication).

TEST_F(ReplicationTest, FollowerRoleRequiresFollowTarget) {
  SketchServerOptions options;
  options.durable.role = StoreRole::kFollower;
  auto server = SketchServer::Start(Dir("orphan"), options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ReplicationTest, SubscribeAgainstAFollowerIsRefused) {
  auto primary = MustStart(Dir("primary"));
  auto follower =
      MustStart(Dir("follower"), FollowerOptions(primary->port()));
  AwaitSubscribers(primary->port(), 1);

  auto fd = ConnectTcp("127.0.0.1", follower->port());
  ASSERT_TRUE(fd.ok());
  FramedConn conn(fd.value());
  ASSERT_TRUE(conn.SendHello().ok());
  ASSERT_TRUE(conn.ExpectHello().ok());
  Request subscribe;
  subscribe.op = Request::Op::kSubscribe;
  ASSERT_TRUE(conn.WriteFrame(EncodeRequest(subscribe)).ok());
  auto body = conn.ReadFrame();
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  auto response = DecodeResponse(body.value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, StatusCode::kInvalidArgument);
  ::close(fd.value());
}

// ---------------------------------------------------------------------------
// Promote must be idempotent-safe: promoting an already-primary server
// still bumps the token (a fresh fencing point) and keeps it writable.

TEST_F(ReplicationTest, PromoteOnAPrimaryBumpsTheToken) {
  auto primary = MustStart(Dir("primary"));
  SketchClient client = MustConnect(primary->port());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  const uint64_t before = stats.value().fence_token;
  auto token = client.Promote();
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  EXPECT_GT(token.value(), before);
  ASSERT_TRUE(client.IngestValue("still.writable", 0, 1.0).ok());

  // The bumped token survives restart (it lives in the shard LOCK
  // files, not process memory).
  primary->Stop();
  primary.reset();
  auto reopened = MustStart(Dir("primary"));
  SketchClient reopened_client = MustConnect(reopened->port());
  auto after = reopened_client.Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after.value().fence_token, token.value());
}

// ---------------------------------------------------------------------------
// SketchServer::Promote promotes shard by shard, so a LOCK write that
// fails on shard 1 leaves shard 0 already primary at the new token. The
// server must keep refusing writes with FENCED while it answers QUERY
// and STATS, and a retried PROMOTE must leave both shards primary at
// one token, across a restart too.

TEST_F(ReplicationTest, PromoteThatFailsPartwayStaysFencedUntilRetried) {
  SketchServerOptions primary_options;
  primary_options.shards = 2;
  auto primary = MustStart(Dir("primary"), primary_options);
  const std::string follower_dir = Dir("follower");
  SketchServerOptions follower_options = FollowerOptions(primary->port());
  follower_options.shards = 2;
  auto follower = MustStart(follower_dir, follower_options);
  AwaitSubscribers(primary->port(), 1);

  std::vector<std::string> series;
  for (int n = 0; series.size() < 2; ++n) {
    const std::string name = "promote." + std::to_string(n);
    if (ShardedDurableStore::ShardForSeries(name, 2) == series.size()) {
      series.push_back(name);
    }
  }
  SketchClient client = MustConnect(primary->port());
  for (const std::string& name : series) {
    ASSERT_TRUE(client.IngestValue(name, 0, 1.0).ok());
  }

  SketchClient follower_client = MustConnect(follower->port());
  {
    ScopedFileFault fault(FileOp::kLockWrite, follower_dir + "/shard-1/LOCK",
                          EIO, 1);
    EXPECT_FALSE(follower_client.Promote().ok());
    EXPECT_EQ(fault.fired(), 1);
  }
  EXPECT_TRUE(follower->writes_fenced());
  for (const std::string& name : series) {
    EXPECT_EQ(follower_client.IngestValue(name, 1, 2.0).code(),
              StatusCode::kFenced)
        << name;
    auto answer = follower_client.Query(name, 0, 10, {0.5});
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
  auto stats = follower_client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().fenced, 1u);

  auto token = follower_client.Promote();
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  for (const std::string& name : series) {
    ASSERT_TRUE(follower_client.IngestValue(name, 1, 2.0).ok()) << name;
  }
  follower->Stop();
  for (size_t k = 0; k < 2; ++k) {
    auto shard = DurableSketchStore::Open(
        follower_dir + "/shard-" + std::to_string(k), {});
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    EXPECT_EQ(shard.value().fence_token(), token.value()) << "shard " << k;
    EXPECT_FALSE(shard.value().fenced()) << "shard " << k;
  }
}

}  // namespace
}  // namespace dd
