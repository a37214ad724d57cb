// End-to-end tests for the sketchd serving core (server/server.h) over
// real loopback sockets: protocol round trips through SketchClient,
// concurrent ingest, the group-commit fsync guarantee, error
// propagation, and recovery of everything acknowledged over the wire.

#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "core/ddsketch.h"
#include "server/client.h"
#include "server/net.h"
#include "timeseries/durable_store.h"
#include "timeseries/sharded_store.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/file_io.h"

namespace dd {
namespace {

namespace fs = std::filesystem;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("dd_server_") + info->name());
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

  static SketchClient MustConnect(const SketchServer& server) {
    auto client = SketchClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// Sends `requests` in one write on a fresh connection and reads one
  /// response per request; a missing or undecodable response fails the
  /// test (and ends the list early).
  static std::vector<Response> SendPipelined(
      const SketchServer& server, const std::vector<Request>& requests) {
    std::vector<Response> responses;
    auto fd = ConnectTcp("127.0.0.1", server.port());
    if (!fd.ok()) {
      ADD_FAILURE() << fd.status().ToString();
      return responses;
    }
    // A lost response must fail the read, not hang the test.
    const struct timeval timeout = {10, 0};
    EXPECT_EQ(::setsockopt(fd.value(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    FramedConn conn(fd.value());
    std::string wire = EncodeHello();
    for (const Request& request : requests) wire += EncodeRequest(request);
    if (Status s = conn.WriteFrame(wire); !s.ok()) {
      ADD_FAILURE() << s.ToString();
    } else if (s = conn.ExpectHello(); !s.ok()) {
      ADD_FAILURE() << s.ToString();
    } else {
      for (size_t i = 0; i < requests.size(); ++i) {
        auto body = conn.ReadFrame();
        if (!body.ok()) {
          ADD_FAILURE() << "response " << i << ": " << body.status().ToString();
          break;
        }
        auto response = DecodeResponse(body.value());
        if (!response.ok()) {
          ADD_FAILURE() << "response " << i << ": "
                        << response.status().ToString();
          break;
        }
        responses.push_back(std::move(response).value());
      }
    }
    ::close(fd.value());
    return responses;
  }

  static Request IngestRequest(const std::string& series, int64_t timestamp,
                               double value) {
    Request request;
    request.op = Request::Op::kIngest;
    request.series = series;
    request.timestamp = timestamp;
    request.value = value;
    return request;
  }

  fs::path root_;
};

TEST_F(ServerTest, StartsOnEphemeralPortAndStops) {
  auto server = MustStart(Dir("basic"));
  EXPECT_GT(server->port(), 0);
  SketchClient client = MustConnect(*server);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().num_series, 0u);
  EXPECT_EQ(stats.value().epoch, 1u);
  server->Stop();
  // Stop() released the data-dir lock: a direct open must succeed.
  auto reopened = DurableSketchStore::Open(Dir("basic"), {});
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST_F(ServerTest, IngestAndQueryMatchInProcessReference) {
  auto server = MustStart(Dir("roundtrip"));
  SketchClient client = MustConnect(*server);
  auto ref = std::move(SketchStore::Create(SketchStoreOptions{})).value();
  for (int i = 0; i < 500; ++i) {
    const double value = 1.0 + (i % 97) * 0.5;
    const int64_t ts = (i % 40) * 10;
    ASSERT_TRUE(client.IngestValue("api.latency", ts, value).ok());
    ASSERT_TRUE(ref.IngestValue("api.latency", ts, value).ok());
  }
  const std::vector<double> qs = {0.1, 0.5, 0.95, 0.99};
  auto remote = client.Query("api.latency", 0, 400, qs);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote.value().size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(remote.value()[i],
              std::move(ref.QueryQuantile("api.latency", 0, 400, qs[i])).value())
        << "q=" << qs[i];
  }
}

TEST_F(ServerTest, MergeShipsWorkerSketches) {
  auto server = MustStart(Dir("merge"));
  SketchClient client = MustConnect(*server);
  auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
  for (int i = 1; i <= 100; ++i) worker.Add(static_cast<double>(i));
  ASSERT_TRUE(client.Merge("svc", 50, worker.Serialize()).ok());
  auto remote = client.Query("svc", 0, 100, {0.5});
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  // Same data, same parameters: the server-side interval sketch is the
  // worker sketch, so the quantile matches exactly.
  EXPECT_EQ(remote.value()[0], std::move(worker.Quantile(0.5)).value());
}

TEST_F(ServerTest, ServerSideErrorsReachTheClientAsStatuses) {
  auto server = MustStart(Dir("errors"));
  SketchClient client = MustConnect(*server);
  // Unknown series.
  auto query = client.Query("nope", 0, 100, {0.5});
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
  // Garbage merge payload.
  EXPECT_EQ(client.Merge("svc", 0, "garbage").code(), StatusCode::kCorruption);
  // Parameter-incompatible worker sketch.
  auto wrong = std::move(DDSketch::Create(0.05)).value();
  wrong.Add(1.0);
  EXPECT_EQ(client.Merge("svc", 0, wrong.Serialize()).code(),
            StatusCode::kIncompatible);
  // The rejected requests must not have reached the WAL.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().num_series, 0u);
}

TEST_F(ServerTest, TimestampsOutsideTheStoreBoundAreRefused) {
  // INGEST/MERGE timestamps and QUERY bounds are unchecked int64 varints
  // on the wire. Past the store's bound they are refused before the WAL,
  // so no later CHECKPOINT's rollup ever sees them.
  auto server = MustStart(Dir("bounds"));
  SketchClient client = MustConnect(*server);
  ASSERT_TRUE(client.IngestValue("svc", 100, 1.0).ok());
  auto before = client.Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(client.IngestValue("svc", kMax, 1.0).code(),
            StatusCode::kInvalidArgument);
  auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
  worker.Add(2.0);
  EXPECT_EQ(client.Merge("svc", kMin, worker.Serialize()).code(),
            StatusCode::kInvalidArgument);
  auto after = client.Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().wal_offset, before.value().wal_offset);
  EXPECT_EQ(after.value().num_intervals, 1u);
  auto epoch = client.Checkpoint();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  auto refused = client.Query("svc", kMin, 5, {0.5});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  auto answered = client.Query("svc", 0, 200, {0.5});
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered.value()[0], 1.0);
  server->Stop();
  auto reopened = DurableSketchStore::Open(Dir("bounds"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().store().num_intervals(), 1u);
}

TEST_F(ServerTest, ConcurrentIngestBatchesIntoOneFsync) {
  // With a huge commit interval and commit_batch == K, K concurrent
  // ingests must be staged together and committed with exactly one
  // fsync (the committer proceeds as soon as the batch fills).
  constexpr size_t kClients = 8;
  SketchServerOptions options;
  options.commit_batch = kClients;
  options.commit_interval_us = 5 * 1000 * 1000;
  auto server = MustStart(Dir("groupcommit"), options);

  std::vector<SketchClient> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(MustConnect(*server));
  }
  const uint64_t fsyncs_before = TotalFsyncCount();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&clients, i] {
      EXPECT_TRUE(clients[i]
                      .IngestValue("svc", 0, 1.0 + static_cast<double>(i))
                      .ok());
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t fsyncs_after = TotalFsyncCount();
  EXPECT_EQ(fsyncs_after - fsyncs_before, 1u);
  EXPECT_EQ(server->batch_commits(), 1u);

  auto count = clients[0].Query("svc", 0, 10, {0.5});
  ASSERT_TRUE(count.ok());
  auto stats = clients[0].Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().batch_commits, 1u);
}

TEST_F(ServerTest, PipelinedIngestLandsEveryValue) {
  SketchServerOptions options;
  options.commit_batch = 64;
  auto server = MustStart(Dir("pipeline"), options);
  SketchClient client = MustConnect(*server);
  std::vector<std::pair<int64_t, double>> points;
  for (int i = 0; i < 2000; ++i) {
    points.emplace_back(i % 50, 1.0 + i * 0.25);
  }
  ASSERT_TRUE(client.IngestValues("bulk", points).ok());
  auto merged = client.Query("bulk", 0, 50, {0.5});
  ASSERT_TRUE(merged.ok());
  // Pipelining must have produced real batches, not 2000 solo commits.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats.value().batch_commits, 2000u);
  server->Stop();
  // Every acknowledged value must be recovered by a direct reopen.
  auto reopened = DurableSketchStore::Open(Dir("pipeline"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(
      std::move(reopened.value().QueryRange("bulk", 0, 50)).value().count(),
      2000u);
}

TEST_F(ServerTest, FramesBufferedBehindAnIngestRunAnswerInOrder) {
  // One write carries ingest runs longer than the run cap with non-ingest
  // frames behind them. Each run stops at the first non-ingest frame,
  // which stays buffered until the run commits; every response must
  // come back in request order, and each QUERY must see every ingest
  // sent before it.
  SketchServerOptions options;
  options.shards = 1;
  options.commit_batch = 64;  // run cap 64: the 300 ingests take 5 runs
  auto server = MustStart(Dir("behind"), options);

  std::vector<Request> requests;
  const auto ingest = [&](double value) {
    requests.push_back(IngestRequest("svc", 5, value));
  };
  const auto query = [&](std::vector<double> quantiles) {
    Request& request = requests.emplace_back();
    request.op = Request::Op::kQuery;
    request.series = "svc";
    request.start = 0;
    request.end = 100;
    request.quantiles = std::move(quantiles);
  };
  const auto bare = [&](Request::Op op) { requests.emplace_back().op = op; };
  for (int i = 1; i <= 300; ++i) ingest(i);
  query({0, 1});
  bare(Request::Op::kStats);
  Request& set_tag = requests.emplace_back();
  set_tag.op = Request::Op::kSetTag;
  set_tag.tag = "gold";
  for (int i = 1000; i <= 1002; ++i) ingest(i);
  bare(Request::Op::kCheckpoint);
  query({1});
  bare(Request::Op::kStats);

  const std::vector<Response> responses = SendPipelined(*server, requests);
  ASSERT_EQ(responses.size(), 309u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].op, requests[i].op) << "response " << i;
    ASSERT_EQ(responses[i].code, StatusCode::kOk)
        << "response " << i << ": " << responses[i].message;
  }

  const double alpha = DDSketchConfig{}.relative_accuracy;
  const std::vector<double>& first = responses[300].values;
  ASSERT_EQ(first.size(), 2u);
  EXPECT_NEAR(first[0], 1, alpha * 1);
  EXPECT_NEAR(first[1], 300, alpha * 300);
  const std::vector<double>& last = responses[307].values;
  ASSERT_EQ(last.size(), 1u);
  EXPECT_NEAR(last[0], 1002, alpha * 1002);

  const StoreStats& stats = responses[308].stats;
  EXPECT_EQ(stats.op_latencies[static_cast<size_t>(LatencyOp::kIngest)].count,
            303u);
  uint64_t default_acks = 0;
  uint64_t gold_acks = 0;
  for (const TagStatsRow& row : stats.tags) {
    if (row.tag == "default") default_acks = row.count;
    if (row.tag == "gold") gold_acks = row.count;
  }
  EXPECT_EQ(default_acks, 300u);
  EXPECT_EQ(gold_acks, 3u);
}

TEST_F(ServerTest, OneIntervalWindowIsLoggedAsFewRecords) {
  // A 512-frame pipelined window of one series at one timestamp: every
  // run of it is one unit, one WAL record of 8-byte values, and every
  // frame still gets its own OK, in request order.
  SketchServerOptions options;
  options.shards = 1;
  auto server = MustStart(Dir("window"), options);
  SketchClient client = MustConnect(*server);
  auto before = client.Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  std::vector<Request> requests;
  for (int i = 0; i < 512; ++i) {
    requests.push_back(IngestRequest("api.latency", 1000, 1.0 + 0.25 * i));
  }
  const std::vector<Response> responses = SendPipelined(*server, requests);
  ASSERT_EQ(responses.size(), 512u);
  uint64_t last_offset = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].op, Request::Op::kIngest) << "response " << i;
    ASSERT_EQ(responses[i].code, StatusCode::kOk)
        << "response " << i << ": " << responses[i].message;
    // Each ack names the end of its commit; commits land in order.
    EXPECT_GE(responses[i].wal_offset, last_offset) << "response " << i;
    last_offset = responses[i].wal_offset;
  }
  auto after = client.Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().wal_offset, last_offset);
  EXPECT_LT(after.value().wal_offset - before.value().wal_offset, 9u * 512)
      << "the window was not logged as units";
  auto extremes = client.Query("api.latency", 1000, 1010, {0, 1});
  ASSERT_TRUE(extremes.ok()) << extremes.status().ToString();
  const double alpha = DDSketchConfig{}.relative_accuracy;
  EXPECT_NEAR(extremes.value()[0], 1.0, alpha * 1.0);
  EXPECT_NEAR(extremes.value()[1], 128.75, alpha * 128.75);
}

TEST_F(ServerTest, MixedWindowAnswersInOrderAndMatchesValueByValue) {
  // One write interleaves two series in runs of 7 frames, steps the
  // timestamp every 3 frames and so across 10 s interval boundaries,
  // and carries a MERGE and a QUERY. Units end at each of those; every
  // response comes back in request order, the QUERY sees everything
  // sent before it, and the store equals one built value by value.
  SketchServerOptions options;
  options.shards = 1;
  auto server = MustStart(Dir("mixed"), options);
  auto ref = std::move(SketchStore::Create(SketchStoreOptions{})).value();
  auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
  for (int i = 1; i <= 30; ++i) worker.Add(0.7 * i);
  std::vector<Request> requests;
  std::vector<double> expected_query;
  for (int i = 0; i < 300; ++i) {
    const std::string series = (i / 7) % 2 == 0 ? "a" : "b";
    const int64_t ts = 3 + i / 3;  // a new interval every 30 frames
    const double value = 0.1 * i + 1.0 / 3.0;  // sums only in order
    requests.push_back(IngestRequest(series, ts, value));
    ASSERT_TRUE(ref.IngestValue(series, ts, value).ok());
    if (i == 50) {
      Request merge;
      merge.op = Request::Op::kMerge;
      merge.series = "a";
      merge.timestamp = ts;
      merge.payload = worker.Serialize();
      requests.push_back(merge);
      ASSERT_TRUE(ref.Ingest("a", ts, merge.payload).ok());
    }
    if (i == 120) {
      Request query;
      query.op = Request::Op::kQuery;
      query.series = "b";
      query.start = 0;
      query.end = 1000;
      query.quantiles = {0, 0.5, 1};
      requests.push_back(query);
      for (double q : query.quantiles) {
        expected_query.push_back(
            std::move(ref.QueryQuantile("b", 0, 1000, q)).value());
      }
    }
  }
  const std::vector<Response> responses = SendPipelined(*server, requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].op, requests[i].op) << "response " << i;
    ASSERT_EQ(responses[i].code, StatusCode::kOk)
        << "response " << i << ": " << responses[i].message;
    if (requests[i].op == Request::Op::kQuery) {
      EXPECT_EQ(responses[i].values, expected_query);
    }
  }
  server->Stop();
  auto reopened = DurableSketchStore::Open(Dir("mixed"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(EncodeSnapshot(reopened.value().store(), 0),
            EncodeSnapshot(ref, 0));
}

TEST_F(ServerTest, FramesJoinAUnitOnlyAtItsTimestamp) {
  // 2^61 - 1, 2^61 and 2^61 + 1 share one 10 s interval but no
  // timestamp, so each run of equal timestamps is its own unit. The
  // unit at 2^61 + 1 lies outside the store's bound and is refused
  // frame by frame; the units around it are acked and logged as one
  // record each.
  constexpr int64_t kBound = kMaxTimestamp;
  auto server = MustStart(Dir("bound"));
  const std::vector<Response> responses = SendPipelined(
      *server, {IngestRequest("s", kBound - 1, 1.0),
                IngestRequest("s", kBound, 2.0),
                IngestRequest("s", kBound, 3.0),
                IngestRequest("s", kBound + 1, 4.0),
                IngestRequest("s", kBound + 1, 5.0),
                IngestRequest("s", kBound, 6.0)});
  const StatusCode expected[] = {StatusCode::kOk,
                                 StatusCode::kOk,
                                 StatusCode::kOk,
                                 StatusCode::kInvalidArgument,
                                 StatusCode::kInvalidArgument,
                                 StatusCode::kOk};
  ASSERT_EQ(responses.size(), std::size(expected));
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].code, expected[i])
        << "response " << i << ": " << responses[i].message;
  }
  server->Stop();
  auto wal = ReadWalFile(DurableSketchStore::WalPath(Dir("bound")),
                         WalRead::kStrict);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const std::vector<WalRecord>& records = wal.value().records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].timestamp, kBound - 1);
  EXPECT_EQ(records[0].values, (std::vector<double>{1.0}));
  EXPECT_EQ(records[1].timestamp, kBound);
  EXPECT_EQ(records[1].values, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(records[2].timestamp, kBound);
  EXPECT_EQ(records[2].values, (std::vector<double>{6.0}));
  auto reopened = DurableSketchStore::Open(Dir("bound"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto merged = reopened.value().QueryRange("s", kBound - 10, kBound);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().count(), 4u);
}

TEST_F(ServerTest, FailedFenceWriteIsRetriedInTheBackground) {
  // A SUBSCRIBE carrying a newer fencing token fences the server. Under
  // a 4-byte file-size cap the LOCK rewrite fails before it changes a
  // byte: the server refuses writes at once, and its maintenance thread
  // writes the fence once the backoff has passed, so a restart comes
  // back fenced at the new token instead of writable at the old one.
  const std::string dir = Dir("fence");
  auto server = MustStart(dir);
  Request subscribe;
  subscribe.op = Request::Op::kSubscribe;
  subscribe.repl_token = 5;
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = 4;
  const auto handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const std::vector<Response> responses = SendPipelined(*server, {subscribe});
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, handler);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, StatusCode::kFenced);
  EXPECT_TRUE(server->writes_fenced());

  const std::string lock = DurableSketchStore::LockPath(dir);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::string contents;
  while (std::chrono::steady_clock::now() < deadline) {
    contents = std::move(ReadFileToString(lock)).value();
    if (contents.rfind("fence=5\nfenced=1\n", 0) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(contents.rfind("fence=5\nfenced=1\n", 0), 0u) << contents;
  server->Stop();
  auto reopened = DurableSketchStore::Open(dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().fence_token(), 5u);
  EXPECT_TRUE(reopened.value().fenced());
}

TEST_F(ServerTest, ConcurrentClientsAllRecoverAfterStop) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 200;
  SketchServerOptions options;
  options.commit_batch = 32;
  auto server = MustStart(Dir("concurrent"), options);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t] {
      auto client = SketchClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(client.value()
                        .IngestValue("series." + std::to_string(t), i % 100,
                                     1.0 + i)
                        .ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server->Stop();
  auto reopened = DurableSketchStore::Open(Dir("concurrent"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().store().num_series(),
            static_cast<size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(std::move(reopened.value().QueryRange(
                            "series." + std::to_string(t), 0, 100))
                  .value()
                  .count(),
              static_cast<uint64_t>(kPerThread));
  }
}

TEST_F(ServerTest, CheckpointOverTheWire) {
  auto server = MustStart(Dir("checkpoint"));
  SketchClient client = MustConnect(*server);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.IngestValue("svc", i, 1.0 + i).ok());
  }
  auto epoch = client.Checkpoint();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch.value(), 2u);
  // Post-checkpoint ingests land in the fresh log.
  ASSERT_TRUE(client.IngestValue("svc", 500, 9.0).ok());
  server->Stop();
  auto reopened = DurableSketchStore::Open(Dir("checkpoint"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().epoch(), 2u);
  EXPECT_EQ(
      std::move(reopened.value().QueryRange("svc", 0, 600)).value().count(),
      51u);
}

TEST_F(ServerTest, CompactOverTheWireFoldsAndPreservesAnswers) {
  // v6: COMPACT ages the rollup ladder through the normal checkpoint
  // path. Folding moves data between tiers without changing a single
  // answer, bumps the epoch (rollup state persists only via snapshots),
  // and the folded layout survives a restart.
  SketchServerOptions options;
  options.durable.store.levels = {{10, 120}, {60, 0}};
  auto server = MustStart(Dir("compact"), options);
  SketchClient client = MustConnect(*server);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        client.IngestValue("svc", i * 5, 1.0 + (i % 53) * 0.5).ok());
  }
  // Windows aligned to the coarse interval (60s): raw and rolled-up
  // tiers tile them identically, so answers must match bit-for-bit.
  const std::vector<double> qs = {0.1, 0.5, 0.99};
  std::vector<std::pair<int64_t, int64_t>> windows = {
      {0, 600}, {600, 1200}, {1200, 1800}, {0, 2400}};
  std::vector<std::vector<double>> before;
  for (const auto& w : windows) {
    auto q = client.Query("svc", w.first, w.second, qs);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    before.push_back(q.value());
  }

  auto compacted = client.Compact(std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_GT(compacted.value(), 0u);

  for (size_t i = 0; i < windows.size(); ++i) {
    auto q = client.Query("svc", windows[i].first, windows[i].second, qs);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q.value(), before[i]) << "window " << i;
  }

  // STATS now carries one row per ladder level, finest first, with the
  // fold visible in the coarse level's merge counter.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().epoch, 2u);  // COMPACT checkpoints
  ASSERT_EQ(stats.value().levels.size(), 2u);
  EXPECT_EQ(stats.value().levels[0].interval_seconds, 10u);
  EXPECT_EQ(stats.value().levels[0].retention_seconds, 120u);
  EXPECT_EQ(stats.value().levels[1].interval_seconds, 60u);
  EXPECT_EQ(stats.value().levels[1].retention_seconds, 0u);
  EXPECT_GT(stats.value().levels[1].num_intervals, 0u);
  EXPECT_GT(stats.value().levels[1].rollup_merges, 0u);
  const uint64_t total = stats.value().levels[0].num_intervals +
                         stats.value().levels[1].num_intervals;
  EXPECT_EQ(total, stats.value().num_intervals);

  // The folded layout is snapshot state: a plain reopen sees it.
  server->Stop();
  DurableSketchStoreOptions reopen_options;
  reopen_options.store.levels = {{10, 120}, {60, 0}};
  auto reopened = DurableSketchStore::Open(Dir("compact"), reopen_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(reopened.value().store().LevelStats()[1].num_intervals, 0u);
  auto range = reopened.value().QueryRange("svc", 0, 2400);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range.value().count(), 400u);
}

TEST_F(ServerTest, ShardedServerMatchesReferenceAndRecovers) {
  SketchServerOptions options;
  options.shards = 4;
  auto server = MustStart(Dir("sharded"), options);
  EXPECT_EQ(server->num_shards(), 4u);
  SketchClient client = MustConnect(*server);
  auto ref = std::move(SketchStore::Create(SketchStoreOptions{})).value();
  std::vector<std::string> series;
  for (int s = 0; s < 8; ++s) series.push_back("svc." + std::to_string(s));
  for (int i = 0; i < 800; ++i) {
    const std::string& name = series[i % series.size()];
    const double value = 1.0 + ((i * 7) % 101) * 0.25;
    const int64_t ts = (i % 30) * 10;
    ASSERT_TRUE(client.IngestValue(name, ts, value).ok());
    ASSERT_TRUE(ref.IngestValue(name, ts, value).ok());
  }
  // Cross-shard quantiles are exact w.r.t. the unsharded reference.
  for (const std::string& name : series) {
    auto remote = client.Query(name, 0, 300, {0.5, 0.99});
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote.value()[0],
              std::move(ref.QueryQuantile(name, 0, 300, 0.5)).value());
    EXPECT_EQ(remote.value()[1],
              std::move(ref.QueryQuantile(name, 0, 300, 0.99)).value());
  }
  // STATS carries one row per shard, and the series are actually spread.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().shards.size(), 4u);
  uint64_t series_total = 0;
  int shards_with_data = 0;
  uint64_t wal_total = 0;
  for (const ShardStats& row : stats.value().shards) {
    series_total += row.num_series;
    wal_total += row.wal_bytes;
    if (row.num_series > 0) ++shards_with_data;
    EXPECT_EQ(row.epoch, 1u);
  }
  EXPECT_EQ(series_total, series.size());
  EXPECT_EQ(stats.value().num_series, series.size());
  EXPECT_EQ(stats.value().wal_offset, wal_total);
  EXPECT_GE(shards_with_data, 2);
  server->Stop();
  // The directory reopens by auto-detection with everything recovered.
  auto reopened = ShardedDurableStore::Open(Dir("sharded"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().num_shards(), 4u);
  EXPECT_EQ(reopened.value().TotalSeries(), series.size());
  EXPECT_EQ(
      std::move(reopened.value().QueryRange(series[0], 0, 300)).value().count(),
      100u);
}

TEST_F(ServerTest, ShardedCheckpointCoversEveryShard) {
  SketchServerOptions options;
  options.shards = 3;
  auto server = MustStart(Dir("ckpt3"), options);
  SketchClient client = MustConnect(*server);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        client.IngestValue("series." + std::to_string(i), 0, 1.0 + i).ok());
  }
  auto epoch = client.Checkpoint();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch.value(), 2u);  // the minimum across shards
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().shards.size(), 3u);
  for (const ShardStats& row : stats.value().shards) {
    EXPECT_EQ(row.epoch, 2u) << "shard " << row.shard;
    EXPECT_EQ(row.background_checkpoints, 0u);  // client-driven, not bg
  }
}

/// Polls STATS until `done(stats)` or ~5 s elapse; returns the last
/// snapshot either way.
template <typename Pred>
StoreStats AwaitStats(SketchClient* client, Pred done) {
  StoreStats last;
  for (int i = 0; i < 200; ++i) {
    auto stats = client->Stats();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    last = std::move(stats).value();
    if (done(last)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return last;
}

TEST_F(ServerTest, BackgroundCheckpointFiresOnWalSize) {
  SketchServerOptions options;
  options.shards = 2;
  options.checkpoint_wal_bytes = 256;
  auto server = MustStart(Dir("bgsize"), options);
  SketchClient client = MustConnect(*server);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client.IngestValue("hot", i % 20, 1.0 + i).ok());
  }
  // No client CHECKPOINT is ever sent: the epoch advance must come from
  // the scheduler noticing the hot shard's WAL size. Wait for the
  // quiescent state — a checkpoint has fired AND every WAL is back
  // under the trigger — rather than the first bg > 0 snapshot, which
  // can race with a mid-ingest checkpoint followed by a WAL refill.
  const StoreStats stats = AwaitStats(&client, [](const StoreStats& s) {
    if (s.background_checkpoints == 0) return false;
    for (const ShardStats& row : s.shards) {
      if (row.wal_bytes >= 256u + 13u) return false;
    }
    return true;
  });
  EXPECT_GE(stats.background_checkpoints, 1u);
  int advanced = 0;
  for (const ShardStats& row : stats.shards) {
    if (row.epoch >= 2) ++advanced;
    // Quiescent: the scheduler has drained every over-budget log.
    EXPECT_LT(row.wal_bytes, 256u + 13u) << "shard " << row.shard;
  }
  EXPECT_GE(advanced, 1);
  // And the data survived the snapshot + reset.
  auto quantile = client.Query("hot", 0, 100, {0.5});
  ASSERT_TRUE(quantile.ok()) << quantile.status().ToString();
  server->Stop();
  auto reopened = ShardedDurableStore::Open(Dir("bgsize"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(
      std::move(reopened.value().QueryRange("hot", 0, 200)).value().count(),
      100u);
}

TEST_F(ServerTest, BackgroundCheckpointFiresOnInterval) {
  SketchServerOptions options;
  options.checkpoint_interval_ms = 50;  // sketchd exposes whole seconds
  auto server = MustStart(Dir("bgtime"), options);
  SketchClient client = MustConnect(*server);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.IngestValue("svc", 0, 1.0 + i).ok());
  }
  const StoreStats stats = AwaitStats(
      &client, [](const StoreStats& s) { return s.epoch >= 2; });
  EXPECT_GE(stats.epoch, 2u);
  EXPECT_GE(stats.background_checkpoints, 1u);
}

TEST_F(ServerTest, AggressiveCheckpointsDoNotBlockOrLoseConcurrentIngest) {
  // Both triggers at their most aggressive on 4 shards: every poll
  // checkpoints some shard while every shard is ingesting. Nothing may
  // stall, fail, or be lost — checkpoints hold only their own shard's
  // lock, so ingest on the other shards proceeds concurrently.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  SketchServerOptions options;
  options.shards = 4;
  options.checkpoint_wal_bytes = 1;
  options.checkpoint_interval_ms = 10;
  auto server = MustStart(Dir("bgstorm"), options);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t] {
      auto client = SketchClient::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(client.value()
                        .IngestValue("storm." + std::to_string(t), i % 100,
                                     1.0 + i)
                        .ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GE(server->background_checkpoints(), 1u);
  server->Stop();
  auto reopened = ShardedDurableStore::Open(Dir("bgstorm"), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(std::move(reopened.value().QueryRange(
                            "storm." + std::to_string(t), 0, 100))
                  .value()
                  .count(),
              static_cast<uint64_t>(kPerThread));
  }
}

TEST_F(ServerTest, OneMaintenanceThreadRunsCheckpointsAndThrottle) {
  // Both periodic duties share one thread: with both checkpoint triggers
  // on and a 1 µs p99 target no commit can meet, a tagged client's
  // ingest must both advance background checkpoints and get its tag's
  // borrowable share cut — neither duty starves the other — and Stop()
  // must wake and join that thread promptly.
  SketchServerOptions options;
  options.shards = 2;
  options.checkpoint_wal_bytes = 256;
  options.checkpoint_interval_ms = 20;
  options.tag_p99_target_us = 1;
  auto server = MustStart(Dir("maintenance"), options);
  auto tagged = SketchClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(tagged.ok()) << tagged.status().ToString();
  ASSERT_TRUE(tagged.value().SetTag("noisy").ok());
  SketchClient probe = MustConnect(*server);

  auto noisy_permille = [](const StoreStats& stats) -> uint64_t {
    for (const TagStatsRow& row : stats.tags) {
      if (row.tag == "noisy") return row.throttle_permille;
    }
    return 1000;
  };
  StoreStats stats;
  int64_t ts = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < deadline) {
    std::vector<std::pair<int64_t, double>> burst;
    for (int i = 0; i < 64; ++i) burst.emplace_back(ts++ % 100, 1.0);
    ASSERT_TRUE(tagged.value().IngestValues("svc.noisy", burst).ok());
    auto polled = probe.Stats();
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    stats = std::move(polled).value();
    if (stats.background_checkpoints >= 2 && noisy_permille(stats) < 1000) {
      break;
    }
  }
  EXPECT_GE(stats.background_checkpoints, 2u);
  EXPECT_LT(noisy_permille(stats), 1000u) << "p99 breach never throttled";

  const auto stop_start = std::chrono::steady_clock::now();
  server->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(2));
}

TEST_F(ServerTest, SecondServerOnSameDirIsLockedOut) {
  auto server = MustStart(Dir("locked"));
  auto second = SketchServer::Start(Dir("locked"), {});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ServerTest, RejectsZeroCommitBatch) {
  SketchServerOptions options;
  options.commit_batch = 0;
  auto server = SketchServer::Start(Dir("zero"), options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

// Regression for the accept-thread design's shutdown sweep race: a
// connection accepted after Stop() swept conn_fds_ but before the
// listener closed was owned by no one — its thread was never shut down
// or joined. The event loop closes the hole by construction (every
// accepted fd is owned by exactly one loop, and loops drain their
// adoption queues before exiting), which this pins down by hammering
// Stop() with a concurrent connect storm: no hang, no crash, and every
// pre-stop ack must survive.
TEST_F(ServerTest, StopDuringConnectStormNeverLeaksOrHangs) {
  for (int round = 0; round < 5; ++round) {
    const std::string dir = Dir("storm_stop" + std::to_string(round));
    auto server = MustStart(dir);
    const uint16_t port = server->port();

    SketchClient client = MustConnect(*server);
    ASSERT_TRUE(client.IngestValue("pre.stop", round, 1.0).ok());

    std::atomic<bool> done{false};
    std::thread storm([&] {
      // Race connects against Stop(): some land before the listener
      // closes (the event loop must adopt and then shed them), some
      // after (refused). Both are fine; leaking either is not.
      while (!done.load(std::memory_order_relaxed)) {
        auto fd = ConnectTcp("127.0.0.1", port);
        if (fd.ok()) ::close(fd.value());
      }
    });
    server->Stop();  // must not hang, whatever the storm landed
    done.store(true, std::memory_order_relaxed);
    storm.join();

    auto reopened = DurableSketchStore::Open(dir, {});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(std::move(reopened.value().QueryRange("pre.stop", 0, 100))
                  .value()
                  .count(),
              1.0);
  }
}

TEST_F(ServerTest, StatsReportServingCounters) {
  SketchServerOptions options;
  options.event_loops = 2;
  auto server = MustStart(Dir("counters"), options);
  EXPECT_EQ(server->num_event_loops(), 2u);
  SketchClient a = MustConnect(*server);
  SketchClient b = MustConnect(*server);
  ASSERT_TRUE(a.IngestValue("svc", 1, 1.0).ok());
  auto stats = b.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().connections_accepted, 2u);
  EXPECT_GE(stats.value().connections_open, 2u);
  EXPECT_EQ(stats.value().busy_rejections, 0u);
  EXPECT_EQ(stats.value().staged_bytes, 0u);  // all committed by now
}

TEST_F(ServerTest, StatsReportPerOpAckLatency) {
  // v4 self-instrumentation: every acked request lands in exactly one
  // per-op latency row, so with a single client the row counts must
  // equal the number of requests issued, and each populated row's
  // percentiles must be ordered.
  SketchServerOptions options;
  options.event_loops = 2;  // rows merge across loops
  auto server = MustStart(Dir("oplat"), options);
  SketchClient client = MustConnect(*server);

  constexpr uint64_t kIngests = 300;
  constexpr uint64_t kQueries = 7;
  for (uint64_t i = 0; i < kIngests; ++i) {
    ASSERT_TRUE(
        client.IngestValue("svc", static_cast<int64_t>(i % 20), 1.0 + i).ok());
  }
  for (uint64_t i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client.Query("svc", 0, 100, {0.5}).ok());
  }
  auto worker = std::move(DDSketch::Create(DDSketchConfig{})).value();
  worker.Add(3.0);
  ASSERT_TRUE(client.Merge("svc", 0, worker.Serialize()).ok());
  ASSERT_TRUE(client.Checkpoint().ok());
  ASSERT_TRUE(client.Stats().ok());  // now a STATS ack latency exists

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const auto& rows = stats.value().op_latencies;
  auto row = [&rows](LatencyOp op) -> const OpLatencyStats& {
    return rows[static_cast<size_t>(op)];
  };
  EXPECT_EQ(row(LatencyOp::kIngest).count, kIngests);
  EXPECT_EQ(row(LatencyOp::kQuery).count, kQueries);
  EXPECT_EQ(row(LatencyOp::kMerge).count, 1u);
  EXPECT_EQ(row(LatencyOp::kCheckpoint).count, 1u);
  // The row snapshot is taken while handling a STATS request, before
  // that request's own ack is recorded: only the first call is visible.
  EXPECT_EQ(row(LatencyOp::kStats).count, 1u);
  EXPECT_EQ(row(LatencyOp::kBusy).count, 0u);
  EXPECT_EQ(row(LatencyOp::kBusy).max_us, 0.0);

  const OpLatencyStats& ingest = row(LatencyOp::kIngest);
  EXPECT_GT(ingest.p50_us, 0.0);
  EXPECT_LE(ingest.p50_us, ingest.p90_us);
  EXPECT_LE(ingest.p90_us, ingest.p99_us);
  EXPECT_LE(ingest.p99_us, ingest.p999_us);
  // Percentiles are sketch estimates (relative accuracy alpha); the
  // tracked max is exact, so allow the estimate that tiny slack.
  EXPECT_LE(ingest.p999_us, ingest.max_us * 1.05);
  EXPECT_GT(ingest.max_us, 0.0);
}

TEST_F(ServerTest, BusyBackoffJitterIsSeededAndBounded) {
  // Decorrelated jitter: same seed replays the same schedule, distinct
  // seeds desynchronize, and every delay stays within [base/2, 1.5*base]
  // with the base doubling up to the cap.
  auto schedule = [](uint64_t seed) {
    BusyBackoff backoff(1000, seed);
    std::vector<int64_t> delays;
    for (int i = 0; i < 10; ++i) delays.push_back(backoff.NextDelayUs());
    return delays;
  };
  const std::vector<int64_t> a = schedule(1);
  const std::vector<int64_t> b = schedule(2);
  EXPECT_EQ(a, schedule(1));  // reproducible
  EXPECT_NE(a, b);            // two clients never march in lockstep
  int64_t base = 1000;
  for (size_t i = 0; i < a.size(); ++i) {
    for (int64_t delay : {a[i], b[i]}) {
      EXPECT_GE(delay, base / 2) << "attempt " << i;
      EXPECT_LE(delay, base + base / 2) << "attempt " << i;
    }
    base = std::min<int64_t>(base * 2, BusyBackoff::kMaxBackoffUs);
  }
}

TEST_F(ServerTest, BusyRetriesRespectBudgetAndFeedTheBusyLatencyRow) {
  // An always-BUSY server (budget of one byte): each ingest attempt is
  // refused, the client burns exactly 1 + busy_retries attempts, and
  // every refusal lands in the BUSY latency row — not in INGEST.
  SketchServerOptions options;
  options.staged_bytes_budget = 1;
  auto server = MustStart(Dir("busylat"), options);

  constexpr int kRetries = 3;
  SketchClient a = MustConnect(*server);
  SketchClient b = MustConnect(*server);
  a.set_busy_retries(kRetries, 50);
  b.set_busy_retries(kRetries, 50);
  a.set_busy_backoff_seed(101);
  b.set_busy_backoff_seed(202);
  EXPECT_EQ(a.IngestValue("svc", 1, 1.0).code(), StatusCode::kBusy);
  EXPECT_EQ(b.IngestValue("svc", 2, 2.0).code(), StatusCode::kBusy);

  constexpr uint64_t kExpectedRefusals = 2 * (1 + kRetries);
  EXPECT_EQ(server->busy_rejections(), kExpectedRefusals);
  auto stats = a.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const auto& rows = stats.value().op_latencies;
  EXPECT_EQ(rows[static_cast<size_t>(LatencyOp::kBusy)].count,
            kExpectedRefusals);
  EXPECT_EQ(rows[static_cast<size_t>(LatencyOp::kIngest)].count, 0u);
  EXPECT_GT(rows[static_cast<size_t>(LatencyOp::kBusy)].max_us, 0.0);
}

}  // namespace
}  // namespace dd
