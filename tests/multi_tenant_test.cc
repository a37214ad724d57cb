// Multi-tenant flood & starvation battery for the per-tag admission
// layer (protocol v7): a live sketchd serving stack under deliberate
// single-tag overload. The invariants:
//
//   1. a flooding tag exhausts *its* allowance and gets BUSY — an
//      honest tag staying inside its guaranteed floor loses nothing,
//      sees zero refusals, and every one of its acks survives a reopen;
//   2. refused bytes are refunded in full: once the flood stops,
//      staged_bytes drains back to exactly 0, per tag and in total;
//   3. BUSY responses carry the refusing tag's retry_after_ms hint;
//   4. the throttle controller shrinks a misbehaving tag's borrowable
//      share when its own ack p99 breaches the target, and decays the
//      share back once the tag behaves;
//   5. SET_TAG itself: invalid names are refused without killing the
//      connection, untagged peers share the built-in "default" ledger.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/ddsketch.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "timeseries/durable_store.h"
#include "util/status.h"

namespace dd {
namespace {

namespace fs = std::filesystem;

void SleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

class MultiTenantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("dd_tenant_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  static std::unique_ptr<SketchServer> MustStart(
      const std::string& dir, const SketchServerOptions& options) {
    auto server = SketchServer::Start(dir, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  static SketchClient MustConnect(uint16_t port, const std::string& tag = "") {
    auto client = SketchClient::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (!tag.empty()) {
      const Status s = client.value().SetTag(tag);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return std::move(client).value();
  }

  /// The named tag's STATS row; fails the test when absent.
  static TagStatsRow MustTagRow(SketchClient& client,
                                const std::string& tag) {
    auto stats = client.Stats();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) {
      for (const TagStatsRow& row : stats.value().tags) {
        if (row.tag == tag) return row;
      }
    }
    ADD_FAILURE() << "no STATS row for tag " << tag;
    return {};
  }

  fs::path root_;
};

TEST_F(MultiTenantTest, SetTagRoutesTrafficAndDefaultCatchesUntagged) {
  SketchServerOptions options;
  // "gold" is a configured tenant (floor guaranteed); "walkin" shows up
  // only via SET_TAG (no floor, borrows from the pool).
  options.tag_weights = {{"gold", 2}};
  auto server = MustStart(Dir("settag"), options);

  SketchClient tagged = MustConnect(server->port(), "gold");
  ASSERT_TRUE(tagged.IngestValue("svc.gold", 10, 1.0).ok());
  SketchClient walkin = MustConnect(server->port(), "walkin");
  ASSERT_TRUE(walkin.IngestValue("svc.walkin", 10, 3.0).ok());
  SketchClient untagged = MustConnect(server->port());
  ASSERT_TRUE(untagged.IngestValue("svc.plain", 10, 2.0).ok());

  // Every tag shows up as its own STATS row; ack latency lands on the
  // row the connection declared, untagged traffic on "default".
  const TagStatsRow gold = MustTagRow(untagged, "gold");
  EXPECT_GE(gold.count, 1u);
  EXPECT_GT(gold.p50_us, 0.0);
  EXPECT_EQ(gold.busy_rejections, 0u);
  EXPECT_EQ(gold.throttle_permille, 1000u);
  const TagStatsRow fallback = MustTagRow(untagged, "default");
  EXPECT_GE(fallback.count, 1u);
  // Budgets are live: a configured tenant holds a floor plus the
  // borrowable remainder, and with nothing in flight nothing stays
  // staged. A dynamically registered tag has no floor — pool only —
  // so it can never dilute gold's guarantee.
  EXPECT_GT(gold.floor_bytes, 0u);
  EXPECT_GT(gold.budget_bytes, gold.floor_bytes);
  EXPECT_EQ(gold.staged_bytes, 0u);
  const TagStatsRow walkin_row = MustTagRow(untagged, "walkin");
  EXPECT_GE(walkin_row.count, 1u);
  EXPECT_EQ(walkin_row.floor_bytes, 0u);
  EXPECT_GT(walkin_row.budget_bytes, 0u);
  EXPECT_EQ(walkin_row.staged_bytes, 0u);
}

TEST_F(MultiTenantTest, InvalidTagIsRefusedWithoutKillingTheConnection) {
  SketchServerOptions options;
  auto server = MustStart(Dir("badtag"), options);
  SketchClient client = MustConnect(server->port());

  EXPECT_EQ(client.SetTag("has space").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.SetTag("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.SetTag(std::string(65, 'x')).code(),
            StatusCode::kInvalidArgument);
  // The connection survives the refusals, still on the default tag...
  ASSERT_TRUE(client.IngestValue("svc.alive", 1, 3.0).ok());
  // ...and a valid retag still works afterwards.
  EXPECT_TRUE(client.SetTag("recovered_1.tag-x").ok());
  ASSERT_TRUE(client.IngestValue("svc.alive", 2, 4.0).ok());
  EXPECT_GE(MustTagRow(client, "recovered_1.tag-x").count, 1u);
}

TEST_F(MultiTenantTest, TagTableFullIsRefusedDistinctlyAndBounded) {
  SketchServerOptions options;
  auto server = MustStart(Dir("tagcap"), options);

  // An unauthenticated spray of unique tag names: past the cap every
  // SET_TAG gets the distinct refusal — not BUSY (retrying cannot
  // help), not a dead connection — and server state stops growing.
  SketchClient sprayer = MustConnect(server->port());
  size_t granted = 0, refused = 0;
  for (size_t i = 0; i < TagAdmissionLedger::kMaxTags + 8; ++i) {
    const Status s = sprayer.SetTag("junk" + std::to_string(i));
    if (s.ok()) {
      ++granted;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
      ++refused;
    }
  }
  EXPECT_GT(granted, 0u);
  EXPECT_GE(refused, 8u);
  EXPECT_EQ(server->ledger().num_tags(), TagAdmissionLedger::kMaxTags);

  // A fresh connection refused a new tag keeps its current one: its
  // traffic is charged to "default", and the junk name it asked for
  // never becomes a STATS row.
  SketchClient late = MustConnect(server->port());
  EXPECT_EQ(late.SetTag("one-too-many").code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(late.IngestValue("svc.late", 10, 1.0).ok());
  EXPECT_GE(MustTagRow(late, "default").count, 1u);
  auto stats = late.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LE(stats.value().tags.size(), TagAdmissionLedger::kMaxTags);
  for (const TagStatsRow& row : stats.value().tags) {
    EXPECT_NE(row.tag, "one-too-many");
  }
  // Tags that made it in before the cap still resolve idempotently.
  EXPECT_TRUE(late.SetTag("junk0").ok());
}

TEST_F(MultiTenantTest, BusyResponseCarriesRetryAfterHint) {
  SketchServerOptions options;
  // Budget of two one-byte-series records (65 staged bytes each), and a
  // long partial-batch hold so all three pipelined requests are judged
  // against the same staged ledger.
  options.staged_bytes_budget = 160;
  options.commit_interval_us = 100000;
  auto server = MustStart(Dir("hint"), options);

  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  FramedConn conn(fd.value());
  ASSERT_TRUE(conn.SendHello().ok());
  ASSERT_TRUE(conn.ExpectHello().ok());

  // One send for all three frames: they arrive buffered together, so
  // the event loop stages them as one run against one ledger state.
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "t";
  request.value = 1.0;
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    request.timestamp = i;
    wire += EncodeRequest(request);
  }
  ASSERT_TRUE(conn.WriteFrame(wire).ok());
  int busy = 0;
  for (int i = 0; i < 3; ++i) {
    auto body = conn.ReadFrame();
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto response = DecodeResponse(body.value());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().code == StatusCode::kBusy) {
      ++busy;
      // A fresh ledger has no refill observations yet, so the hint is
      // the pinned default — nonzero by contract.
      EXPECT_EQ(response.value().retry_after_ms,
                TagAdmissionLedger::kDefaultRetryMs);
    } else {
      EXPECT_EQ(response.value().code, StatusCode::kOk);
      EXPECT_EQ(response.value().retry_after_ms, 0u);
    }
  }
  EXPECT_EQ(busy, 1) << "budget admits exactly two staged records";
  ::close(fd.value());
}

TEST_F(MultiTenantTest, UnitPastTheBudgetIsAdmittedByPrefix) {
  // Five pipelined INGEST frames of one series at one timestamp are
  // one unit, charged 65 staged bytes per frame. The 160-byte budget
  // fits two: the unit's first two frames are acked, and the other
  // three are refused with BUSY one by one, each with the hint.
  SketchServerOptions options;
  options.staged_bytes_budget = 160;
  auto server = MustStart(Dir("prefix"), options);
  SketchClient probe = MustConnect(server->port());
  auto before = probe.Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  auto fd = ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  FramedConn conn(fd.value());
  ASSERT_TRUE(conn.SendHello().ok());
  ASSERT_TRUE(conn.ExpectHello().ok());
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "t";
  request.timestamp = 5;
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    request.value = 1.0 + i;
    wire += EncodeRequest(request);
  }
  ASSERT_TRUE(conn.WriteFrame(wire).ok());
  for (int i = 0; i < 5; ++i) {
    auto body = conn.ReadFrame();
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto response = DecodeResponse(body.value());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (i < 2) {
      EXPECT_EQ(response.value().code, StatusCode::kOk) << "frame " << i;
      EXPECT_EQ(response.value().retry_after_ms, 0u) << "frame " << i;
    } else {
      EXPECT_EQ(response.value().code, StatusCode::kBusy) << "frame " << i;
      EXPECT_EQ(response.value().retry_after_ms,
                TagAdmissionLedger::kDefaultRetryMs)
          << "frame " << i;
    }
  }
  ::close(fd.value());

  auto after = probe.Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().busy_rejections - before.value().busy_rejections,
            3u);
  EXPECT_EQ(MustTagRow(probe, "default").busy_rejections, 3u);
  // The acked prefix was refunded at its commit, before its acks.
  EXPECT_EQ(after.value().staged_bytes, 0u);
  // Exactly the acked prefix is durable.
  auto values = probe.Query("t", 0, 10, {0, 1});
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  const double alpha = DDSketchConfig{}.relative_accuracy;
  EXPECT_NEAR(values.value()[0], 1.0, alpha * 1.0);
  EXPECT_NEAR(values.value()[1], 2.0, alpha * 2.0);
}

// The headline: a single-tag flood pushing far past (≥4×) its
// borrowable allowance cannot starve an honest tag working inside its
// guaranteed floor.
TEST_F(MultiTenantTest, FloodCannotStarveHonestTag) {
  SketchServerOptions options;
  // Small budget + slowed committers so the flood's pipelined windows
  // pile up against admission. Three tags (default, flood, honest)
  // split a 2048-byte reserve: ~682-byte floors, ~2050-byte pool. A
  // flood window of 512 pipelined records (~35 KB staged cost)
  // oversubscribes the flood's floor+pool allowance more than tenfold.
  options.staged_bytes_budget = 4096;
  options.commit_interval_us = 2000;
  options.tag_weights = {{"flood", 1}, {"honest", 1}};
  auto server = MustStart(Dir("flood"), options);

  std::atomic<bool> flood_hard_error{false};
  std::vector<std::thread> flood_threads;
  for (int t = 0; t < 2; ++t) {
    flood_threads.emplace_back([&, t] {
      SketchClient client = MustConnect(server->port(), "flood");
      client.set_busy_retries(4);
      std::vector<std::pair<int64_t, double>> points;
      for (int i = 0; i < 500; ++i) {
        points.emplace_back(t * 1000 + i, 1.0 + i);
      }
      // Retry exhaustion (Busy) is an expected outcome of flooding;
      // anything else is a real failure.
      const Status status = client.IngestValues("svc.flood", points);
      if (!status.ok() && status.code() != StatusCode::kBusy) {
        flood_hard_error.store(true);
      }
    });
  }

  // The honest tenant works sequentially — one record in flight, well
  // inside its floor — with retries DISABLED: any BUSY fails the test.
  int honest_acked = 0;
  {
    SketchClient honest = MustConnect(server->port(), "honest");
    honest.set_busy_retries(0);
    for (int i = 0; i < 200; ++i) {
      const Status status = honest.IngestValue("svc.honest", i, 2.0 + i);
      ASSERT_TRUE(status.ok())
          << "honest tag starved at record " << i << ": "
          << status.ToString();
      ++honest_acked;
    }
  }
  for (std::thread& t : flood_threads) t.join();
  EXPECT_FALSE(flood_hard_error.load());

  // The flood was refused (and only the flood); refunds must drain the
  // staged ledger back to exactly zero once the dust settles.
  SketchClient probe = MustConnect(server->port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t staged = ~0ull;
  while (std::chrono::steady_clock::now() < deadline) {
    auto stats = probe.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    staged = stats.value().staged_bytes;
    if (staged == 0) break;
    SleepMs(20);
  }
  EXPECT_EQ(staged, 0u) << "refused/committed bytes were not fully refunded";
  const TagStatsRow flood_row = MustTagRow(probe, "flood");
  const TagStatsRow honest_row = MustTagRow(probe, "honest");
  EXPECT_GT(flood_row.busy_rejections, 0u) << "flood never tripped admission";
  EXPECT_EQ(honest_row.busy_rejections, 0u);
  EXPECT_EQ(flood_row.staged_bytes, 0u);
  EXPECT_EQ(honest_row.staged_bytes, 0u);
  EXPECT_EQ(honest_row.count, static_cast<uint64_t>(honest_acked));
  server->Stop();

  // Zero lost acks for the honest tag: every acked record survives a
  // direct reopen of the store.
  auto reopened = DurableSketchStore::Open(Dir("flood"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(
      std::move(reopened.value().QueryRange("svc.honest", 0, 1000)).value()
          .count(),
      static_cast<double>(honest_acked));
}

TEST_F(MultiTenantTest, ThrottleShrinksBreachingTagAndRecovers) {
  SketchServerOptions options;
  // A 1 µs p99 target no real commit can meet: every tick with enough
  // samples breaches, so the noisy tag's borrow share must shrink.
  options.tag_p99_target_us = 1;
  options.tag_weights = {{"noisy", 2}};
  auto server = MustStart(Dir("throttle"), options);

  SketchClient noisy = MustConnect(server->port(), "noisy");
  SketchClient probe = MustConnect(server->port());

  // Keep breaching until the controller reacts (each tick needs ≥32
  // window samples; pipelined bursts deliver them quickly).
  uint64_t throttled_permille = 1000;
  const auto breach_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  int64_t ts = 0;
  while (std::chrono::steady_clock::now() < breach_deadline) {
    std::vector<std::pair<int64_t, double>> burst;
    for (int i = 0; i < 64; ++i) burst.emplace_back(ts++, 1.0);
    ASSERT_TRUE(noisy.IngestValues("svc.noisy", burst).ok());
    throttled_permille = MustTagRow(probe, "noisy").throttle_permille;
    if (throttled_permille < 1000) break;
  }
  EXPECT_LT(throttled_permille, 1000u) << "p99 breach never throttled";
  // The clamp: borrowing power never reaches zero (the floor is
  // untouched by design, and a sliver of pool share always remains).
  for (const TagLedgerEntry& entry : server->ledger().Snapshot()) {
    if (entry.tag == "noisy") {
      EXPECT_GE(entry.borrow_share, TagAdmissionLedger::kMinBorrowShare);
    }
  }

  // Recovery: once the tag goes quiet, idle ticks decay the share back
  // to full borrowing power.
  uint64_t recovered_permille = throttled_permille;
  const auto recover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < recover_deadline) {
    recovered_permille = MustTagRow(probe, "noisy").throttle_permille;
    if (recovered_permille == 1000) break;
    SleepMs(25);
  }
  EXPECT_EQ(recovered_permille, 1000u) << "throttle never decayed back";

  // The tag's own sketch saw the traffic the controller judged by.
  const TagStatsRow row = MustTagRow(probe, "noisy");
  EXPECT_GE(row.count, 32u);
  EXPECT_GT(row.p99_us, 0.0);
  EXPECT_GE(row.p999_us, row.p99_us);
}

}  // namespace
}  // namespace dd
