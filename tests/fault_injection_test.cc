// Fault-injection harness for the sketchd event-loop serving layer:
// adversarial raw-socket clients (slow loris, garbage hello, mid-frame
// disconnect, oversized declared frame, connect flood) and deliberate
// overload against a live server. The invariants under attack:
//
//   1. the server stays responsive to well-behaved clients throughout,
//   2. misbehaving connections are shed by deadline, not tolerated
//      forever,
//   3. an acknowledged record is never lost — BUSY refusals are never
//      acked, and everything acked is recovered by a direct reopen.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "timeseries/durable_store.h"
#include "util/status.h"
#include "util/varint.h"

namespace dd {
namespace {

namespace fs = std::filesystem;

void SleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// A raw adversarial connection: no protocol discipline, just bytes.
class RawConn {
 public:
  static RawConn Connect(uint16_t port) {
    auto fd = ConnectTcp("127.0.0.1", port);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return RawConn(fd.ok() ? fd.value() : -1);
  }

  RawConn(RawConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;
  ~RawConn() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // peer already closed us: also a valid shed
      }
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Waits for the server to close this connection. What it sends first
  /// (e.g. its hello) is appended to `received` when given, else
  /// discarded. False if the deadline passes with the connection still
  /// open.
  bool WaitForEof(int64_t timeout_ms, std::string* received = nullptr) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    char buf[512];
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return true;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          SleepMs(10);
          continue;
        }
        return true;  // ECONNRESET & friends: the server dropped us
      }
      if (received != nullptr) received->append(buf, static_cast<size_t>(n));
    }
    return false;
  }

  int fd() const noexcept { return fd_; }

 private:
  explicit RawConn(int fd) : fd_(fd) {}
  int fd_;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("dd_fault_") + info->name());
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

  /// The liveness probe: a well-behaved client must still get service.
  static void ExpectServes(const SketchServer& server,
                           const std::string& series) {
    auto client = SketchClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().IngestValue(series, 10, 2.5).ok());
    auto values = client.value().Query(series, 0, 100, {0.5});
    ASSERT_TRUE(values.ok()) << values.status().ToString();
  }

  fs::path root_;
};

TEST_F(FaultInjectionTest, SlowLorisHelloIsShedByDeadline) {
  SketchServerOptions options;
  options.stall_timeout_ms = 200;
  auto server = MustStart(Dir("loris"), options);

  // Trickle the hello one byte at a time. Each byte arrives well within
  // the stall deadline, but the deadline is armed per unit — the whole
  // hello — so byte-at-a-time progress must not keep the victim alive.
  RawConn loris = RawConn::Connect(server->port());
  const std::string hello = EncodeHello();
  ASSERT_TRUE(loris.Send(hello.substr(0, 1)));
  SleepMs(120);
  loris.Send(hello.substr(1, 1));  // may race the shed; either is fine
  EXPECT_TRUE(loris.WaitForEof(3000)) << "slow loris was never shed";
  EXPECT_GE(server->connections_shed(), 1u);
  ExpectServes(*server, "svc.after_loris");
}

TEST_F(FaultInjectionTest, GarbageHelloIsClosedImmediately) {
  SketchServerOptions options;
  auto server = MustStart(Dir("garbage"), options);

  RawConn garbage = RawConn::Connect(server->port());
  ASSERT_TRUE(garbage.Send("XXXXX not a hello"));
  EXPECT_TRUE(garbage.WaitForEof(3000));
  ExpectServes(*server, "svc.after_garbage");
}

TEST_F(FaultInjectionTest, MidFrameDisconnectNeverLosesAckedRecords) {
  SketchServerOptions options;
  auto server = MustStart(Dir("midframe"), options);

  // A valid ingest frame to truncate at every interesting boundary.
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "svc.victim";
  request.timestamp = 10;
  request.value = 1.0;
  const std::string frame = EncodeRequest(request);

  auto client = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  int acked = 0;
  for (int round = 0; round < 12; ++round) {
    // Adversary: hello + a frame prefix, then vanish mid-frame.
    RawConn adversary = RawConn::Connect(server->port());
    const size_t cut = 1 + (static_cast<size_t>(round) % (frame.size() - 1));
    adversary.Send(EncodeHello() + frame.substr(0, cut));
    adversary.Close();
    // Honest client: every ack counts.
    ASSERT_TRUE(client.value().IngestValue("svc.honest", round, 5.0).ok());
    ++acked;
  }
  server->Stop();

  auto reopened = DurableSketchStore::Open(Dir("midframe"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(
      std::move(reopened.value().QueryRange("svc.honest", 0, 100)).value()
          .count(),
      static_cast<double>(acked));
  // The adversary's truncated frames were never acked, never committed.
  EXPECT_EQ(reopened.value().store().num_series(), 1u);
}

TEST_F(FaultInjectionTest, OversizedDeclaredFrameLengthIsRejected) {
  SketchServerOptions options;
  auto server = MustStart(Dir("oversized"), options);

  // Declare a body far beyond kMaxFrameBytes; the decoder must refuse
  // at the header — no buffering of gigabytes on the say-so of 9 bytes.
  std::string attack = EncodeHello();
  PutVarint64(&attack, static_cast<uint64_t>(kMaxFrameBytes) * 16);
  PutFixed32(&attack, 0xdeadbeef);
  attack += "some bytes that will never amount to a frame";
  RawConn attacker = RawConn::Connect(server->port());
  ASSERT_TRUE(attacker.Send(attack));
  EXPECT_TRUE(attacker.WaitForEof(3000));
  ExpectServes(*server, "svc.after_oversized");
}

TEST_F(FaultInjectionTest, MalformedBodyClosesTheBurstBeforeAnyOfItIsStaged) {
  // sketchd collects a pipelined burst of INGEST frames into one run
  // before it stages any of it. A frame whose CRC checks out but whose
  // body does not parse closes the connection there, whether it is an
  // INGEST (read in place) or another op (decoded in full): no frame of
  // the burst is answered, staged or logged.
  SketchServerOptions options;
  auto server = MustStart(Dir("malformed"), options);
  auto client = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Request ingest;
  ingest.op = Request::Op::kIngest;
  ingest.series = "svc.burst";
  ingest.timestamp = 10;
  std::string valid;
  for (int i = 0; i < 8; ++i) {
    ingest.value = 1.0 + i;
    valid += EncodeRequest(ingest);
  }
  size_t frame_size = 0;
  const std::string ingest_frame = EncodeRequest(ingest);
  const std::string ingest_body(DecodeFrame(ingest_frame, &frame_size).value());
  Request query;
  query.op = Request::Op::kQuery;
  query.series = "svc.burst";
  query.end = 100;
  query.quantiles = {0.5};
  const std::string query_frame = EncodeRequest(query);
  const std::string query_body(DecodeFrame(query_frame, &frame_size).value());
  const struct {
    const char* what;
    std::string bad_frame;
  } cases[] = {
      {"INGEST with a trailing byte", EncodeFrame(ingest_body + '\0')},
      {"unknown op 0x0a", EncodeFrame(std::string(1, '\x0a'))},
      {"truncated QUERY",
       EncodeFrame(query_body.substr(0, query_body.size() - 1))},
  };
  for (const auto& bad : cases) {
    SCOPED_TRACE(bad.what);
    auto before = client.value().Stats();
    ASSERT_TRUE(before.ok()) << before.status().ToString();

    RawConn raw = RawConn::Connect(server->port());
    ASSERT_TRUE(raw.Send(EncodeHello() + valid + bad.bad_frame));
    std::string received;
    EXPECT_TRUE(raw.WaitForEof(3000, &received));
    EXPECT_EQ(received, EncodeHello());  // the hello echo, no answer

    auto after = client.value().Stats();
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after.value().wal_offset, before.value().wal_offset);
    auto fresh = SketchClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_FALSE(fresh.value().Query("svc.burst", 0, 100, {0.5}).ok());
  }
}

TEST_F(FaultInjectionTest, ConnectFloodDoesNotStarveHonestClients) {
  SketchServerOptions options;
  options.stall_timeout_ms = 0;  // keep the flood parked, not shed
  options.idle_timeout_ms = 0;
  auto server = MustStart(Dir("flood"), options);

  constexpr int kFlood = 200;
  std::vector<RawConn> flood;
  flood.reserve(kFlood);
  for (int i = 0; i < kFlood; ++i) {
    flood.push_back(RawConn::Connect(server->port()));
    ASSERT_GE(flood.back().fd(), 0);
  }
  // All of them get accepted (the listener drains accept-to-EAGAIN)...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->connections_open() < kFlood &&
         std::chrono::steady_clock::now() < deadline) {
    SleepMs(10);
  }
  EXPECT_GE(server->connections_open(), static_cast<uint64_t>(kFlood));
  // ...and service continues regardless, mid-flood.
  ExpectServes(*server, "svc.mid_flood");
  auto probe = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(probe.ok());
  auto stats = probe.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().connections_open, static_cast<uint64_t>(kFlood));
  for (RawConn& conn : flood) conn.Close();
}

TEST_F(FaultInjectionTest, IdleConnectionIsShedAfterTimeout) {
  SketchServerOptions options;
  options.idle_timeout_ms = 200;
  auto server = MustStart(Dir("idle"), options);

  RawConn idler = RawConn::Connect(server->port());
  ASSERT_TRUE(idler.Send(EncodeHello()));  // completes the hello, then quiet
  EXPECT_TRUE(idler.WaitForEof(3000)) << "idle connection was never shed";
  EXPECT_GE(server->connections_shed(), 1u);
  ExpectServes(*server, "svc.after_idle");
}

TEST_F(FaultInjectionTest, OverloadYieldsBusyAndLosesNoAckedRecords) {
  SketchServerOptions options;
  // A budget of ONE record (each costs kStagedRecordOverhead=64 plus
  // series + payload bytes, ~90 here), and committers slowed enough
  // that concurrent writers pile into it.
  options.staged_bytes_budget = 160;
  options.commit_interval_us = 5000;
  auto server = MustStart(Dir("overload"), options);

  constexpr int kWriters = 4;
  std::atomic<int> acked{0};
  std::atomic<int> busy{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = SketchClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      client.value().set_busy_retries(0);  // surface BUSY, don't mask it
      for (int i = 0; i < 400; ++i) {
        const Status status =
            client.value().IngestValue("svc.hot", w * 1000 + i, 1.0 + i);
        if (status.ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(status.code(), StatusCode::kBusy)
              << status.ToString();
          busy.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();

  // The overload was real: refusals happened, and they were counted.
  EXPECT_GT(busy.load(), 0) << "budget never tripped; overload not exercised";
  EXPECT_GT(acked.load(), 0);
  EXPECT_GE(server->busy_rejections(), static_cast<uint64_t>(busy.load()));
  // And a refused record was refused *before* staging: the retry path
  // exists for clients that want it.
  auto retry_client = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(retry_client.ok());
  ASSERT_TRUE(retry_client.value().IngestValue("svc.hot", 9999, 42.0).ok());
  const int total_acked = acked.load() + 1;
  server->Stop();

  // Zero lost acks: the reopened store holds exactly the acked records.
  auto reopened = DurableSketchStore::Open(Dir("overload"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(
      std::move(reopened.value().QueryRange("svc.hot", 0, 10000)).value()
          .count(),
      static_cast<double>(total_acked));
}

// ---------------------------------------------------------------------------
// v5 replication channel under attack. The invariants mirror the client
// side: a misbehaving subscriber is dropped (never tolerated forever),
// dropping it degrades the ack gate to async instead of stalling
// ingest, and garbage on the channel closes that subscriber cleanly
// while the server keeps serving.

/// A raw replication subscriber: completes the hello and SUBSCRIBE
/// handshake like a real follower, then misbehaves as directed. Owns
/// the fd (FramedConn does not close).
class RawSubscriber {
 public:
  explicit RawSubscriber(uint16_t port) { Handshake(port); }
  ~RawSubscriber() { Close(); }

  void Close() {
    conn_.reset();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Reads one replication frame; EXPECTs it decodes.
  bool ReadReplFrame() {
    auto body = conn_->ReadFrame();
    if (!body.ok()) return false;
    auto frame = DecodeReplFrame(body.value());
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok();
  }

  /// Sends raw bytes up the subscriber->primary direction (where the
  /// shipper expects framed ACK/FENCE frames).
  bool SendRaw(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Loops ReadFrame until the primary closes the channel. False if it
  /// keeps shipping past `max_frames` (i.e. we were never dropped).
  bool AwaitClose(int max_frames) {
    for (int i = 0; i < max_frames; ++i) {
      if (!conn_->ReadFrame().ok()) return true;
    }
    return false;
  }

 private:
  // ASSERT_* may not appear in a constructor; the handshake lives here.
  void Handshake(uint16_t port) {
    auto fd = ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    fd_ = fd.value();
    conn_ = std::make_unique<FramedConn>(fd_);
    ASSERT_TRUE(conn_->SendHello().ok());
    ASSERT_TRUE(conn_->ExpectHello().ok());
    Request subscribe;
    subscribe.op = Request::Op::kSubscribe;
    ASSERT_TRUE(conn_->WriteFrame(EncodeRequest(subscribe)).ok());
    auto body = conn_->ReadFrame();
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    auto response = DecodeResponse(body.value());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().code, StatusCode::kOk)
        << response.value().message;
  }

  int fd_ = -1;
  std::unique_ptr<FramedConn> conn_;
};

/// Polls the server's STATS until `repl_subscribers` drops to `n`.
void AwaitSubscriberCount(const SketchServer& server, uint64_t n,
                          int64_t timeout_ms = 10000) {
  auto client = SketchClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  uint64_t last = ~0ull;
  while (std::chrono::steady_clock::now() < deadline) {
    auto stats = client.value().Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    last = stats.value().repl_subscribers;
    if (last == n) return;
    SleepMs(10);
  }
  FAIL() << "repl_subscribers stuck at " << last << ", wanted " << n;
}

TEST_F(FaultInjectionTest, SubscriberDisconnectAtEveryFrameBoundary) {
  SketchServerOptions options;
  options.repl_ack_timeout_ms = 300;
  options.repl_heartbeat_ms = 20;
  auto server = MustStart(Dir("repl_boundary"), options);

  auto client = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Seed state so the bootstrap snapshot is non-trivial.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.value().IngestValue("repl.seed", i % 20, 1.0 + i).ok());
  }

  // Attach a subscriber, let WAL traffic flow, read exactly k frames,
  // then vanish — every frame boundary becomes a disconnect point
  // across rounds. Writes concurrent with the disconnect must still be
  // acked OK (the drop degrades the gate to async; it never errors or
  // stalls the writer forever).
  for (int k = 0; k < 6; ++k) {
    RawSubscriber sub(server->port());
    if (::testing::Test::HasFatalFailure()) break;
    std::thread writer([&] {
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(client.value()
                        .IngestValue("repl.live", k * 10 + i, 2.0 + i)
                        .ok());
      }
    });
    for (int i = 0; i < k; ++i) {
      if (!sub.ReadReplFrame()) break;  // already dropped: fine
    }
    sub.Close();
    writer.join();
    AwaitSubscriberCount(*server, 0);
    ExpectServes(*server, "svc.after_boundary");
  }
}

TEST_F(FaultInjectionTest, SlowLorisSubscriberDoesNotStallIngest) {
  SketchServerOptions options;
  options.repl_ack_timeout_ms = 150;
  options.repl_heartbeat_ms = 50;
  auto server = MustStart(Dir("repl_loris"), options);

  // The loris subscribes like a real follower, then never acks a thing.
  RawSubscriber loris(server->port());

  // Every ingest must still be acked OK: the first few wait out the
  // 150 ms ack deadline, after which the laggard is dropped and the
  // gate degrades to async.
  auto client = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.value().IngestValue("repl.hot", i, 1.0 + i).ok());
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Generous bound: one ack-deadline wait plus fast async acks — not
  // 50 records x 150 ms of serial stalling.
  EXPECT_LT(elapsed.count(), 5000) << "ingest stalled behind the loris";
  AwaitSubscriberCount(*server, 0);
  ExpectServes(*server, "svc.after_repl_loris");
}

TEST_F(FaultInjectionTest, GarbageOnReplicationChannelClosesItCleanly) {
  SketchServerOptions options;
  options.repl_heartbeat_ms = 20;
  auto server = MustStart(Dir("repl_garbage"), options);

  // Round 1: bytes that are not a frame. The first byte parses as a
  // small varint length, so send enough junk to complete the declared
  // frame — the CRC check must then refuse it decisively (a short junk
  // prefix would just look like a slow peer mid-frame).
  {
    RawSubscriber sub(server->port());
    ASSERT_TRUE(sub.SendRaw(std::string(512, 'X')));
    EXPECT_TRUE(sub.AwaitClose(500)) << "garbage subscriber never dropped";
    AwaitSubscriberCount(*server, 0);
  }
  // Round 2: a well-formed frame (length + CRC check out) whose body is
  // not a replication frame.
  {
    RawSubscriber sub(server->port());
    ASSERT_TRUE(sub.SendRaw(EncodeFrame("junk body, not a repl frame")));
    EXPECT_TRUE(sub.AwaitClose(500)) << "junk-frame subscriber never dropped";
    AwaitSubscriberCount(*server, 0);
  }
  ExpectServes(*server, "svc.after_repl_garbage");
}

TEST_F(FaultInjectionTest, BusyRefusalsSurfaceInRemoteStats) {
  SketchServerOptions options;
  options.staged_bytes_budget = 1;  // refuse everything
  auto server = MustStart(Dir("busy_stats"), options);

  auto client = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  client.value().set_busy_retries(0);
  const Status refused = client.value().IngestValue("svc.x", 1, 1.0);
  EXPECT_EQ(refused.code(), StatusCode::kBusy) << refused.ToString();

  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().busy_rejections, 1u);
  EXPECT_GE(stats.value().connections_accepted, 1u);
  EXPECT_GE(stats.value().connections_open, 1u);
  EXPECT_EQ(stats.value().staged_bytes, 0u);  // refusals are refunded
  // v4: the refusal was timed into the BUSY latency row, and nothing
  // was recorded as a successful INGEST ack.
  const auto& rows = stats.value().op_latencies;
  EXPECT_GE(rows[static_cast<size_t>(LatencyOp::kBusy)].count, 1u);
  EXPECT_EQ(rows[static_cast<size_t>(LatencyOp::kIngest)].count, 0u);
  // Nothing refused was committed.
  auto query = client.value().Query("svc.x", 0, 10, {0.5});
  EXPECT_FALSE(query.ok());
}

}  // namespace
}  // namespace dd
