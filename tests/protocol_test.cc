// Unit tests for the sketchd wire protocol codec (server/protocol.h):
// round trips for every op, framing behavior (incomplete vs corrupt),
// strict rejection of malformed bodies — the same discipline the
// on-disk formats get from fuzz_differential_test — and FramedConn's
// in-place reads over a socketpair.

#include "server/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/ddsketch.h"
#include "server/net.h"
#include "util/crc32.h"

namespace dd {
namespace {

Request RoundTripRequest(const Request& request) {
  const std::string frame = EncodeRequest(request);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  EXPECT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(frame_size, frame.size());
  auto decoded = DecodeRequest(body.value());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

Response RoundTripResponse(const Response& response) {
  const std::string frame = EncodeResponse(response);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  EXPECT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(frame_size, frame.size());
  auto decoded = DecodeResponse(body.value());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

TEST(ProtocolTest, HelloRoundTrip) {
  const std::string hello = EncodeHello();
  ASSERT_EQ(hello.size(), kHelloBytes);
  EXPECT_TRUE(CheckHello(hello).ok());
}

TEST(ProtocolTest, HelloRejectsBadMagicAndVersion) {
  std::string bad_magic = EncodeHello();
  bad_magic[0] = 'X';
  EXPECT_EQ(CheckHello(bad_magic).code(), StatusCode::kCorruption);

  std::string bad_version = EncodeHello();
  bad_version[4] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_EQ(CheckHello(bad_version).code(), StatusCode::kIncompatible);

  EXPECT_EQ(CheckHello("DDS").code(), StatusCode::kCorruption);

  // A v2 peer (pre-BUSY) must be refused: it cannot interpret the
  // admission-control status code or the extended STATS payload.
  std::string v2 = EncodeHello();
  v2[4] = '\x02';
  EXPECT_EQ(CheckHello(v2).code(), StatusCode::kIncompatible);

  // A v3 peer (pre-latency-rows) must be refused too: it would stop
  // parsing the STATS payload at staged_bytes and misread the latency
  // rows as shard rows.
  std::string v3 = EncodeHello();
  v3[4] = '\x03';
  EXPECT_EQ(CheckHello(v3).code(), StatusCode::kIncompatible);

  // A v4 peer (pre-replication) must be refused: it has no FENCED
  // status code, no SUBSCRIBE/PROMOTE ops, and would stop parsing the
  // STATS payload before the replication fields.
  std::string v4 = EncodeHello();
  v4[4] = '\x04';
  EXPECT_EQ(CheckHello(v4).code(), StatusCode::kIncompatible);

  // A v5 peer (pre-rollup) must be refused: it has no COMPACT op, no
  // per-level STATS rows, and no chunked-snapshot repl frames.
  std::string v5 = EncodeHello();
  v5[4] = '\x05';
  EXPECT_EQ(CheckHello(v5).code(), StatusCode::kIncompatible);

  // A v6 peer (pre-admission-tags) must be refused: it has no SET_TAG
  // op, would misread the per-tag STATS rows as trailing garbage, and
  // cannot parse the retry_after_ms payload a BUSY refusal now carries.
  std::string v6 = EncodeHello();
  v6[4] = '\x06';
  EXPECT_EQ(CheckHello(v6).code(), StatusCode::kIncompatible);
}

TEST(ProtocolTest, IngestRequestRoundTrip) {
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "api.latency";
  request.timestamp = -12345;
  request.value = 3.25;
  const Request decoded = RoundTripRequest(request);
  EXPECT_EQ(decoded.op, Request::Op::kIngest);
  EXPECT_EQ(decoded.series, "api.latency");
  EXPECT_EQ(decoded.timestamp, -12345);
  EXPECT_EQ(decoded.value, 3.25);
}

TEST(ProtocolTest, MergeRequestRoundTrip) {
  auto sketch = std::move(DDSketch::Create(0.01, 2048)).value();
  sketch.Add(1.0);
  sketch.Add(42.0);
  Request request;
  request.op = Request::Op::kMerge;
  request.series = "db.latency";
  request.timestamp = 1000;
  request.payload = sketch.Serialize();
  const Request decoded = RoundTripRequest(request);
  EXPECT_EQ(decoded.op, Request::Op::kMerge);
  EXPECT_EQ(decoded.payload, request.payload);
  // The carried payload is still a decodable sketch.
  auto carried = DDSketch::Deserialize(decoded.payload);
  ASSERT_TRUE(carried.ok());
  EXPECT_EQ(carried.value().count(), 2u);
}

TEST(ProtocolTest, QueryRequestRoundTrip) {
  Request request;
  request.op = Request::Op::kQuery;
  request.series = "svc";
  request.start = -100;
  request.end = 900;
  request.quantiles = {0.5, 0.95, 0.999};
  const Request decoded = RoundTripRequest(request);
  EXPECT_EQ(decoded.start, -100);
  EXPECT_EQ(decoded.end, 900);
  EXPECT_EQ(decoded.quantiles, request.quantiles);
}

TEST(ProtocolTest, BodylessRequestsRoundTrip) {
  for (Request::Op op : {Request::Op::kCheckpoint, Request::Op::kStats,
                         Request::Op::kPromote}) {
    Request request;
    request.op = op;
    EXPECT_EQ(RoundTripRequest(request).op, op);
  }
}

TEST(ProtocolTest, CompactRequestRoundTrip) {
  // v6: COMPACT carries the caller's clock. Zigzag-encoded, so a
  // negative "now" (clock far behind the data) survives the wire.
  Request request;
  request.op = Request::Op::kCompact;
  request.compact_now = 1700000000;
  const Request decoded = RoundTripRequest(request);
  EXPECT_EQ(decoded.op, Request::Op::kCompact);
  EXPECT_EQ(decoded.compact_now, 1700000000);

  Request negative;
  negative.op = Request::Op::kCompact;
  negative.compact_now = -86400;
  EXPECT_EQ(RoundTripRequest(negative).compact_now, -86400);
}

TEST(ProtocolTest, SetTagRequestRoundTrip) {
  // v7: a connection declares its admission tag once; every later
  // ingest/merge is charged to that tag's ledger.
  Request request;
  request.op = Request::Op::kSetTag;
  request.tag = "team-a.prod_42";
  const Request decoded = RoundTripRequest(request);
  EXPECT_EQ(decoded.op, Request::Op::kSetTag);
  EXPECT_EQ(decoded.tag, "team-a.prod_42");

  // The wire carries any length-prefixed string — name validation is
  // the server's job (it refuses with INVALID_ARGUMENT, not corruption).
  Request empty;
  empty.op = Request::Op::kSetTag;
  EXPECT_EQ(RoundTripRequest(empty).tag, "");
}

TEST(ProtocolTest, SubscribeRequestRoundTrip) {
  // v5: a follower's handshake carries its fencing token and one resume
  // position per shard it already holds.
  Request request;
  request.op = Request::Op::kSubscribe;
  request.repl_token = 7;
  request.positions = {{2, 13}, {2, 4096}, {3, 13}};
  const Request decoded = RoundTripRequest(request);
  EXPECT_EQ(decoded.op, Request::Op::kSubscribe);
  EXPECT_EQ(decoded.repl_token, 7u);
  EXPECT_EQ(decoded.positions, request.positions);

  // A fresh follower has no positions at all.
  Request fresh;
  fresh.op = Request::Op::kSubscribe;
  const Request decoded_fresh = RoundTripRequest(fresh);
  EXPECT_EQ(decoded_fresh.repl_token, 0u);
  EXPECT_TRUE(decoded_fresh.positions.empty());
}

TEST(ProtocolTest, OkResponsesRoundTripPerOp) {
  {
    Response r;
    r.op = Request::Op::kIngest;
    r.wal_offset = 12345;
    EXPECT_EQ(RoundTripResponse(r).wal_offset, 12345u);
  }
  {
    Response r;
    r.op = Request::Op::kQuery;
    r.values = {1.5, 2.5};
    EXPECT_EQ(RoundTripResponse(r).values, r.values);
  }
  {
    Response r;
    r.op = Request::Op::kCheckpoint;
    r.epoch = 7;
    EXPECT_EQ(RoundTripResponse(r).epoch, 7u);
  }
  {
    // v6: COMPACT reports how many interval sketches folded plus the
    // epoch after the checkpoint it triggered.
    Response r;
    r.op = Request::Op::kCompact;
    r.compacted = 354;
    r.epoch = 9;
    const Response decoded = RoundTripResponse(r);
    EXPECT_EQ(decoded.compacted, 354u);
    EXPECT_EQ(decoded.epoch, 9u);
  }
  {
    Response r;
    r.op = Request::Op::kStats;
    r.stats.num_series = 3;
    r.stats.num_intervals = 17;
    r.stats.size_in_bytes = 4096;
    r.stats.wal_offset = 999;
    r.stats.epoch = 2;
    r.stats.batch_commits = 41;
    r.stats.background_checkpoints = 6;
    r.stats.connections_open = 12;
    r.stats.connections_accepted = 120;
    r.stats.connections_shed = 5;
    r.stats.busy_rejections = 33;
    r.stats.staged_bytes = 1 << 20;
    // v4: populate a few of the per-op latency rows; the rest stay
    // zero (an op the server has never acked encodes count=0).
    {
      OpLatencyStats& ingest =
          r.stats.op_latencies[static_cast<size_t>(LatencyOp::kIngest)];
      ingest.count = 100000;
      ingest.p50_us = 812.5;
      ingest.p90_us = 1900.25;
      ingest.p99_us = 4225.0;
      ingest.p999_us = 9800.125;
      ingest.max_us = 12000.5;
      OpLatencyStats& busy =
          r.stats.op_latencies[static_cast<size_t>(LatencyOp::kBusy)];
      busy.count = 17;
      busy.p50_us = 2.5;
      busy.p90_us = 4.0;
      busy.p99_us = 6.25;
      busy.p999_us = 6.25;
      busy.max_us = 6.25;
    }
    for (uint64_t k = 0; k < 3; ++k) {
      ShardStats shard;
      shard.shard = k;
      shard.num_series = k + 1;
      shard.wal_bytes = 100 * (k + 1);
      shard.epoch = 2 + k;
      shard.batch_commits = 10 + k;
      shard.background_checkpoints = k;
      r.stats.shards.push_back(shard);
    }
    const Response decoded = RoundTripResponse(r);
    EXPECT_EQ(decoded.stats.num_intervals, 17u);
    EXPECT_EQ(decoded.stats.batch_commits, 41u);
    EXPECT_EQ(decoded.stats.background_checkpoints, 6u);
    EXPECT_EQ(decoded.stats.connections_open, 12u);
    EXPECT_EQ(decoded.stats.connections_accepted, 120u);
    EXPECT_EQ(decoded.stats.connections_shed, 5u);
    EXPECT_EQ(decoded.stats.busy_rejections, 33u);
    EXPECT_EQ(decoded.stats.staged_bytes, static_cast<uint64_t>(1 << 20));
    const OpLatencyStats& ingest =
        decoded.stats.op_latencies[static_cast<size_t>(LatencyOp::kIngest)];
    EXPECT_EQ(ingest.count, 100000u);
    EXPECT_EQ(ingest.p50_us, 812.5);
    EXPECT_EQ(ingest.p90_us, 1900.25);
    EXPECT_EQ(ingest.p99_us, 4225.0);
    EXPECT_EQ(ingest.p999_us, 9800.125);
    EXPECT_EQ(ingest.max_us, 12000.5);
    const OpLatencyStats& busy =
        decoded.stats.op_latencies[static_cast<size_t>(LatencyOp::kBusy)];
    EXPECT_EQ(busy.count, 17u);
    EXPECT_EQ(busy.p99_us, 6.25);
    const OpLatencyStats& merge =
        decoded.stats.op_latencies[static_cast<size_t>(LatencyOp::kMerge)];
    EXPECT_EQ(merge.count, 0u);
    EXPECT_EQ(merge.max_us, 0.0);
    ASSERT_EQ(decoded.stats.shards.size(), 3u);
    EXPECT_EQ(decoded.stats.shards[2].shard, 2u);
    EXPECT_EQ(decoded.stats.shards[2].wal_bytes, 300u);
    EXPECT_EQ(decoded.stats.shards[2].epoch, 4u);
    EXPECT_EQ(decoded.stats.shards[1].background_checkpoints, 1u);
  }
}

TEST(ProtocolTest, StatsV5ReplicationFieldsRoundTrip) {
  Response r;
  r.op = Request::Op::kStats;
  r.stats.role = 1;
  r.stats.fence_token = 42;
  r.stats.fenced = 1;
  r.stats.repl_subscribers = 3;
  r.stats.repl_shipped_bytes = 1 << 22;
  r.stats.repl_applied_bytes = 1 << 21;
  r.stats.repl_connected = 1;
  r.stats.repl_heartbeat_age_ms = 137;
  const Response decoded = RoundTripResponse(r);
  EXPECT_EQ(decoded.stats.role, 1u);
  EXPECT_EQ(decoded.stats.fence_token, 42u);
  EXPECT_EQ(decoded.stats.fenced, 1u);
  EXPECT_EQ(decoded.stats.repl_subscribers, 3u);
  EXPECT_EQ(decoded.stats.repl_shipped_bytes, static_cast<uint64_t>(1 << 22));
  EXPECT_EQ(decoded.stats.repl_applied_bytes, static_cast<uint64_t>(1 << 21));
  EXPECT_EQ(decoded.stats.repl_connected, 1u);
  EXPECT_EQ(decoded.stats.repl_heartbeat_age_ms, 137u);
}

TEST(ProtocolTest, StatsV6LevelRowsRoundTrip) {
  // v6: STATS appends one row per rollup-ladder level (finest first),
  // after the v5 replication fields.
  Response r;
  r.op = Request::Op::kStats;
  r.stats.repl_shipped_bytes = 512;  // v5 fields still in front
  for (uint64_t i = 0; i < 3; ++i) {
    LevelStatsRow row;
    row.interval_seconds = 10 * (i + 1);
    row.retention_seconds = i == 2 ? 0 : 3600 * (i + 1);
    row.num_intervals = 100 - 30 * i;
    row.rollup_merges = 7 * i;
    row.retained_bytes = 1 << (12 + i);
    r.stats.levels.push_back(row);
  }
  const Response decoded = RoundTripResponse(r);
  EXPECT_EQ(decoded.stats.repl_shipped_bytes, 512u);
  ASSERT_EQ(decoded.stats.levels.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.stats.levels[i].interval_seconds,
              r.stats.levels[i].interval_seconds);
    EXPECT_EQ(decoded.stats.levels[i].retention_seconds,
              r.stats.levels[i].retention_seconds);
    EXPECT_EQ(decoded.stats.levels[i].num_intervals,
              r.stats.levels[i].num_intervals);
    EXPECT_EQ(decoded.stats.levels[i].rollup_merges,
              r.stats.levels[i].rollup_merges);
    EXPECT_EQ(decoded.stats.levels[i].retained_bytes,
              r.stats.levels[i].retained_bytes);
  }

  // A server with no durable store reports zero levels; the row count
  // is data-driven, not pinned like the latency rows.
  Response empty;
  empty.op = Request::Op::kStats;
  EXPECT_TRUE(RoundTripResponse(empty).stats.levels.empty());
}

TEST(ProtocolTest, StatsV7TagRowsRoundTrip) {
  // v7: STATS appends one row per admission tag, after the v6 level
  // rows — budgets, live staged bytes, refusals, the throttle share,
  // and the tag's own ack-latency percentiles (fixed doubles).
  Response r;
  r.op = Request::Op::kStats;
  r.stats.staged_bytes = 4096;  // earlier fields still in front
  {
    TagStatsRow row;
    row.tag = "default";
    row.floor_bytes = 1 << 20;
    row.budget_bytes = 1 << 22;
    row.count = 12345;
    row.p50_us = 81.5;
    row.p99_us = 950.25;
    row.p999_us = 4096.0;
    r.stats.tags.push_back(row);
  }
  {
    TagStatsRow row;
    row.tag = "team-b";
    row.budget_bytes = 1 << 21;
    row.staged_bytes = 777;
    row.busy_rejections = 42;
    row.throttle_permille = 125;  // mid-throttle
    r.stats.tags.push_back(row);
  }
  const Response decoded = RoundTripResponse(r);
  EXPECT_EQ(decoded.stats.staged_bytes, 4096u);
  ASSERT_EQ(decoded.stats.tags.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decoded.stats.tags[i].tag, r.stats.tags[i].tag);
    EXPECT_EQ(decoded.stats.tags[i].floor_bytes, r.stats.tags[i].floor_bytes);
    EXPECT_EQ(decoded.stats.tags[i].budget_bytes,
              r.stats.tags[i].budget_bytes);
    EXPECT_EQ(decoded.stats.tags[i].staged_bytes,
              r.stats.tags[i].staged_bytes);
    EXPECT_EQ(decoded.stats.tags[i].busy_rejections,
              r.stats.tags[i].busy_rejections);
    EXPECT_EQ(decoded.stats.tags[i].throttle_permille,
              r.stats.tags[i].throttle_permille);
    EXPECT_EQ(decoded.stats.tags[i].count, r.stats.tags[i].count);
    EXPECT_EQ(decoded.stats.tags[i].p50_us, r.stats.tags[i].p50_us);
    EXPECT_EQ(decoded.stats.tags[i].p99_us, r.stats.tags[i].p99_us);
    EXPECT_EQ(decoded.stats.tags[i].p999_us, r.stats.tags[i].p999_us);
  }

  // No tags (a follower with admission idle) is a valid payload.
  Response empty;
  empty.op = Request::Op::kStats;
  EXPECT_TRUE(RoundTripResponse(empty).stats.tags.empty());
}

TEST(ProtocolTest, SubscribeAndPromoteResponsesRoundTrip) {
  {
    Response r;
    r.op = Request::Op::kSubscribe;
    r.repl_token = 9;
    r.repl_shards = 4;
    const Response decoded = RoundTripResponse(r);
    EXPECT_EQ(decoded.repl_token, 9u);
    EXPECT_EQ(decoded.repl_shards, 4u);
  }
  {
    Response r;
    r.op = Request::Op::kPromote;
    r.repl_token = 10;
    const Response decoded = RoundTripResponse(r);
    EXPECT_EQ(decoded.repl_token, 10u);
  }
}

TEST(ProtocolTest, FencedResponseRoundTrip) {
  // v5: a fenced primary (or a follower asked to write) refuses with
  // FENCED. Like BUSY, no payload follows the message — the record
  // never touched the WAL.
  Response r;
  r.op = Request::Op::kIngest;
  r.code = StatusCode::kFenced;
  r.message = "writer fenced: a newer primary holds the fencing token";
  const Response decoded = RoundTripResponse(r);
  EXPECT_EQ(decoded.code, StatusCode::kFenced);
  EXPECT_EQ(decoded.wal_offset, 0u);
  const Status status = ResponseStatus(decoded);
  EXPECT_EQ(status.code(), StatusCode::kFenced);
  EXPECT_EQ(status.message(),
            "writer fenced: a newer primary holds the fencing token");

  // A FENCED body with trailing payload bytes is corrupt, not lenient.
  const std::string frame = EncodeResponse(r);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(DecodeResponse(std::string(body.value()) + "\x01").status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, ReplFrameRoundTripsPerTag) {
  {
    ReplFrame f;
    f.tag = ReplFrame::Tag::kSnapshot;
    f.shard = 2;
    f.epoch = 5;
    f.payload = std::string("snapshot image bytes\x00\x01\x02", 23);
    const std::string frame = EncodeReplFrame(f);
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    auto decoded = DecodeReplFrame(body.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().tag, ReplFrame::Tag::kSnapshot);
    EXPECT_EQ(decoded.value().shard, 2u);
    EXPECT_EQ(decoded.value().epoch, 5u);
    EXPECT_EQ(decoded.value().payload, f.payload);
  }
  {
    ReplFrame f;
    f.tag = ReplFrame::Tag::kSegment;
    f.shard = 1;
    f.epoch = 3;
    f.start_offset = 8192;
    f.payload = "raw wal record bytes";
    const std::string frame = EncodeReplFrame(f);
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    auto decoded = DecodeReplFrame(body.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().tag, ReplFrame::Tag::kSegment);
    EXPECT_EQ(decoded.value().start_offset, 8192u);
    EXPECT_EQ(decoded.value().payload, "raw wal record bytes");
  }
  {
    ReplFrame f;
    f.tag = ReplFrame::Tag::kHeartbeat;
    f.token = 6;
    f.positions = {{2, 13}, {4, 65536}};
    const std::string frame = EncodeReplFrame(f);
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    auto decoded = DecodeReplFrame(body.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().tag, ReplFrame::Tag::kHeartbeat);
    EXPECT_EQ(decoded.value().token, 6u);
    EXPECT_EQ(decoded.value().positions, f.positions);
  }
  {
    ReplFrame f;
    f.tag = ReplFrame::Tag::kAck;
    f.shard = 3;
    f.epoch = 2;
    f.offset = 777;
    const std::string frame = EncodeReplFrame(f);
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    auto decoded = DecodeReplFrame(body.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().tag, ReplFrame::Tag::kAck);
    EXPECT_EQ(decoded.value().shard, 3u);
    EXPECT_EQ(decoded.value().epoch, 2u);
    EXPECT_EQ(decoded.value().offset, 777u);
  }
  {
    ReplFrame f;
    f.tag = ReplFrame::Tag::kFence;
    f.token = 11;
    const std::string frame = EncodeReplFrame(f);
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    auto decoded = DecodeReplFrame(body.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().tag, ReplFrame::Tag::kFence);
    EXPECT_EQ(decoded.value().token, 11u);
  }
  {
    // v6: one piece of a chunked bootstrap snapshot. No epoch — only
    // the terminator carries it.
    ReplFrame f;
    f.tag = ReplFrame::Tag::kSnapshotChunk;
    f.shard = 1;
    f.payload = std::string("chunk bytes\x00\xff", 13);
    const std::string frame = EncodeReplFrame(f);
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    auto decoded = DecodeReplFrame(body.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().tag, ReplFrame::Tag::kSnapshotChunk);
    EXPECT_EQ(decoded.value().shard, 1u);
    EXPECT_EQ(decoded.value().payload, f.payload);
  }
  {
    // v6: the chunked-snapshot terminator installs the assembled image
    // under this epoch.
    ReplFrame f;
    f.tag = ReplFrame::Tag::kSnapshotEnd;
    f.shard = 1;
    f.epoch = 4;
    const std::string frame = EncodeReplFrame(f);
    size_t frame_size = 0;
    auto body = DecodeFrame(frame, &frame_size);
    ASSERT_TRUE(body.ok());
    auto decoded = DecodeReplFrame(body.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().tag, ReplFrame::Tag::kSnapshotEnd);
    EXPECT_EQ(decoded.value().shard, 1u);
    EXPECT_EQ(decoded.value().epoch, 4u);
    EXPECT_TRUE(decoded.value().payload.empty());
  }
}

TEST(ProtocolTest, DecodeReplFrameRejectsMalformedBodies) {
  // Empty body.
  EXPECT_EQ(DecodeReplFrame("").status().code(), StatusCode::kCorruption);
  // Unknown tag byte (0 and one past the last defined tag).
  EXPECT_EQ(DecodeReplFrame(std::string(1, '\x00')).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeReplFrame(std::string(1, '\x08')).status().code(),
            StatusCode::kCorruption);
  // Truncation at every byte of a SEGMENT body.
  ReplFrame f;
  f.tag = ReplFrame::Tag::kSegment;
  f.shard = 1;
  f.epoch = 3;
  f.start_offset = 8192;
  f.payload = "wal bytes";
  const std::string frame = EncodeReplFrame(f);
  size_t frame_size = 0;
  const std::string body(DecodeFrame(frame, &frame_size).value());
  for (size_t cut = 1; cut < body.size(); ++cut) {
    EXPECT_EQ(DecodeReplFrame(body.substr(0, cut)).status().code(),
              StatusCode::kCorruption)
        << "cut=" << cut;
  }
  // Trailing bytes after a complete body.
  EXPECT_EQ(DecodeReplFrame(body + "x").status().code(),
            StatusCode::kCorruption);
  // Same discipline for the v6 chunked-snapshot frames.
  ReplFrame chunk;
  chunk.tag = ReplFrame::Tag::kSnapshotChunk;
  chunk.shard = 2;
  chunk.payload = "piece";
  const std::string chunk_frame = EncodeReplFrame(chunk);
  const std::string chunk_body(
      DecodeFrame(chunk_frame, &frame_size).value());
  for (size_t cut = 1; cut < chunk_body.size(); ++cut) {
    EXPECT_EQ(DecodeReplFrame(chunk_body.substr(0, cut)).status().code(),
              StatusCode::kCorruption)
        << "chunk cut=" << cut;
  }
  EXPECT_EQ(DecodeReplFrame(chunk_body + "x").status().code(),
            StatusCode::kCorruption);
  ReplFrame end;
  end.tag = ReplFrame::Tag::kSnapshotEnd;
  end.shard = 2;
  end.epoch = 6;
  const std::string end_frame = EncodeReplFrame(end);
  const std::string end_body(DecodeFrame(end_frame, &frame_size).value());
  for (size_t cut = 1; cut < end_body.size(); ++cut) {
    EXPECT_EQ(DecodeReplFrame(end_body.substr(0, cut)).status().code(),
              StatusCode::kCorruption)
        << "end cut=" << cut;
  }
  EXPECT_EQ(DecodeReplFrame(end_body + "x").status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, StatsRejectsWrongLatencyRowCount) {
  // The latency-row count is pinned at kNumLatencyOps: a peer that
  // disagrees about the op set must read as corrupt, never as a
  // partially-parsed STATS payload.
  Response r;
  r.op = Request::Op::kStats;
  const std::string frame = EncodeResponse(r);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  ASSERT_TRUE(body.ok());
  std::string mutable_body(body.value());
  // Body layout for an all-default STATS: op + code + empty message
  // (3 bytes), then 12 zero varints, then the latency-row count.
  const size_t count_offset = 3 + 12;
  ASSERT_EQ(static_cast<uint8_t>(mutable_body[count_offset]),
            kNumLatencyOps);
  for (uint8_t wrong : {0, 5, 7, 127}) {
    std::string corrupt = mutable_body;
    corrupt[count_offset] = static_cast<char>(wrong);
    EXPECT_EQ(DecodeResponse(corrupt).status().code(),
              StatusCode::kCorruption)
        << "count=" << static_cast<int>(wrong);
  }
}

TEST(ProtocolTest, StatsRejectsAbsurdLevelCount) {
  // v6: the level-row count is length-checked before the resize — a
  // count that cannot fit in the remaining bytes (≥5 varints per row)
  // must read as corruption, not a giant allocation.
  Response r;
  r.op = Request::Op::kStats;
  const std::string frame = EncodeResponse(r);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  ASSERT_TRUE(body.ok());
  std::string mutable_body(body.value());
  // An all-default STATS body ends with the n_levels varint (0) then
  // the v7 n_tags varint (0).
  ASSERT_GE(mutable_body.size(), 2u);
  ASSERT_EQ(mutable_body[mutable_body.size() - 2], '\x00');
  // 127 claimed level rows with only the n_tags byte left cannot fit.
  mutable_body[mutable_body.size() - 2] = '\x7f';
  EXPECT_EQ(DecodeResponse(mutable_body).status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, StatsRejectsAbsurdTagCount) {
  // v7: same guard for the per-tag rows — each needs ≥31 bytes (seven
  // varints + three fixed doubles + the name's length prefix), so a
  // count the remaining bytes cannot hold is corruption up front.
  Response r;
  r.op = Request::Op::kStats;
  const std::string frame = EncodeResponse(r);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  ASSERT_TRUE(body.ok());
  std::string mutable_body(body.value());
  ASSERT_EQ(mutable_body.back(), '\x00');  // n_tags of an empty STATS
  mutable_body.back() = '\x7f';  // claims 127 rows with 0 bytes left
  EXPECT_EQ(DecodeResponse(mutable_body).status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, BusyResponseRoundTrip) {
  // v3: an admission-control refusal — the record was never staged, so
  // there is no wal_offset to report. v7: the one non-OK response with
  // a payload — the refusing tag's retry_after_ms hint (ingest/merge).
  Response r;
  r.op = Request::Op::kIngest;
  r.code = StatusCode::kBusy;
  r.message = "staged-bytes budget exceeded";
  r.retry_after_ms = 10;
  const Response decoded = RoundTripResponse(r);
  EXPECT_EQ(decoded.code, StatusCode::kBusy);
  EXPECT_EQ(decoded.wal_offset, 0u);
  EXPECT_EQ(decoded.retry_after_ms, 10u);
  const Status status = ResponseStatus(decoded);
  EXPECT_EQ(status.code(), StatusCode::kBusy);
  EXPECT_EQ(status.message(), "staged-bytes budget exceeded");

  // A merge refusal carries the hint too; a hint of 0 survives as 0.
  Response merge;
  merge.op = Request::Op::kMerge;
  merge.code = StatusCode::kBusy;
  merge.retry_after_ms = 250;
  EXPECT_EQ(RoundTripResponse(merge).retry_after_ms, 250u);
  Response unhinted;
  unhinted.op = Request::Op::kIngest;
  unhinted.code = StatusCode::kBusy;
  EXPECT_EQ(RoundTripResponse(unhinted).retry_after_ms, 0u);

  // Only ingest/merge refusals carry the payload: a BUSY on any other
  // op stays bare, so the hint field is dropped on the wire.
  Response query;
  query.op = Request::Op::kQuery;
  query.code = StatusCode::kBusy;
  query.retry_after_ms = 99;
  EXPECT_EQ(RoundTripResponse(query).retry_after_ms, 0u);

  // A BUSY body with trailing payload bytes is corrupt, not lenient.
  const std::string frame = EncodeResponse(r);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(DecodeResponse(std::string(body.value()) + "\x01").status().code(),
            StatusCode::kCorruption);
}

TEST(ProtocolTest, ErrorResponseCarriesStatus) {
  Response r;
  r.op = Request::Op::kMerge;
  r.code = StatusCode::kIncompatible;
  r.message = "sketch parameters mismatch";
  const Response decoded = RoundTripResponse(r);
  const Status status = ResponseStatus(decoded);
  EXPECT_EQ(status.code(), StatusCode::kIncompatible);
  EXPECT_EQ(status.message(), "sketch parameters mismatch");
  EXPECT_TRUE(ResponseStatus(Response{}).ok());
}

TEST(ProtocolTest, DecodeFrameReportsIncompleteOnEveryPrefix) {
  // A 1-byte and a 2-byte length varint. Once the length has arrived,
  // an incomplete frame reports its whole size (the WAL shipper re-reads
  // a record longer than its byte cap by it); before that, 0.
  for (const size_t series_len : {1, 300}) {
    Request request;
    request.op = Request::Op::kIngest;
    request.series = std::string(series_len, 's');
    request.value = 1.0;
    const std::string frame = EncodeRequest(request);
    const size_t len_bytes = series_len == 1 ? 1 : 2;
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      size_t frame_size = 12345;
      auto body =
          DecodeFrame(std::string_view(frame).substr(0, cut), &frame_size);
      ASSERT_FALSE(body.ok()) << "cut=" << cut;
      EXPECT_EQ(body.status().code(), StatusCode::kOutOfRange) << "cut=" << cut;
      EXPECT_EQ(frame_size, cut < len_bytes ? 0 : frame.size()) << "cut=" << cut;
    }
  }
}

TEST(ProtocolTest, DecodeFrameRejectsEveryBodyBitFlip) {
  Request request;
  request.op = Request::Op::kQuery;
  request.series = "svc";
  request.quantiles = {0.5};
  const std::string frame = EncodeRequest(request);
  // Flip one bit in each body byte (skip the length varint: changing it
  // legitimately reads as incomplete). The CRC must catch all of them.
  size_t frame_size = 0;
  auto clean = DecodeFrame(frame, &frame_size);
  ASSERT_TRUE(clean.ok());
  const size_t body_offset = frame.size() - clean.value().size();
  for (size_t i = body_offset; i < frame.size(); ++i) {
    std::string corrupt = frame;
    corrupt[i] = static_cast<char>(static_cast<uint8_t>(corrupt[i]) ^ 0x01);
    size_t ignored = 0;
    auto body = DecodeFrame(corrupt, &ignored);
    ASSERT_FALSE(body.ok()) << "byte " << i;
    EXPECT_EQ(body.status().code(), StatusCode::kCorruption) << "byte " << i;
  }
}

TEST(ProtocolTest, DecodeFrameRejectsAbsurdLength) {
  std::string frame;
  // Varint for 2^40: far beyond kMaxFrameBytes.
  for (int i = 0; i < 5; ++i) frame.push_back(static_cast<char>(0x80));
  frame.push_back(0x01);
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, DecodeFrameRejectsMalformedLengthVarint) {
  // Ten continuation bytes can never become a valid length no matter
  // how much more is read: must be Corruption, not "incomplete" (a
  // reader treating it as incomplete would buffer garbage forever).
  std::string frame(10, static_cast<char>(0xff));
  size_t frame_size = 0;
  auto body = DecodeFrame(frame, &frame_size);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kCorruption);
  // But the same bytes cut short are still just an incomplete frame.
  auto partial = DecodeFrame(std::string_view(frame).substr(0, 6), &frame_size);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.status().code(), StatusCode::kOutOfRange);
}

TEST(ProtocolTest, DecodeFrameConsumesOneFrameFromAStream) {
  Request first;
  first.op = Request::Op::kStats;
  Request second;
  second.op = Request::Op::kCheckpoint;
  const std::string stream = EncodeRequest(first) + EncodeRequest(second);
  size_t frame_size = 0;
  auto body1 = DecodeFrame(stream, &frame_size);
  ASSERT_TRUE(body1.ok());
  auto decoded1 = DecodeRequest(body1.value());
  ASSERT_TRUE(decoded1.ok());
  EXPECT_EQ(decoded1.value().op, Request::Op::kStats);
  auto body2 =
      DecodeFrame(std::string_view(stream).substr(frame_size), &frame_size);
  ASSERT_TRUE(body2.ok());
  auto decoded2 = DecodeRequest(body2.value());
  ASSERT_TRUE(decoded2.ok());
  EXPECT_EQ(decoded2.value().op, Request::Op::kCheckpoint);
}

/// Both ends of a connected stream socketpair, closed at scope exit.
/// The FramedConn under test reads `read_fd`; `Send` writes raw bytes
/// into `write_fd`.
struct ConnPair {
  ConnPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~ConnPair() {
    ::close(read_fd);
    ::close(write_fd);
  }
  void Send(std::string_view bytes) {
    ASSERT_TRUE(FramedConn(write_fd).WriteFrame(bytes).ok());
  }
  /// One non-blocking fill; bytes already sent are all there.
  void Fill(FramedConn* conn) {
    bool got = false;
    auto alive = conn->FillFromSocket(&got);
    ASSERT_TRUE(alive.ok()) << alive.status().ToString();
    ASSERT_TRUE(alive.value());
  }
  int read_fd = -1;
  int write_fd = -1;
};

/// An INGEST frame whose timestamp identifies it.
std::string NumberedFrame(int64_t n) {
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "burst";
  request.timestamp = n;
  request.value = 1.0;
  return EncodeRequest(request);
}

int64_t FrameNumber(std::string_view body) {
  auto request = DecodeRequest(body);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return request.ok() ? request.value().timestamp : -1;
}

TEST(FramedConnTest, BufferedBurstDrainsInOrderAfterOneFill) {
  ConnPair pair;
  constexpr int64_t kFrames = 2048;
  std::string burst;
  for (int64_t i = 0; i < kFrames; ++i) burst += NumberedFrame(i);
  pair.Send(burst);
  FramedConn conn(pair.read_fd);
  pair.Fill(&conn);
  EXPECT_EQ(conn.buffered_read_bytes(), burst.size());
  for (int64_t i = 0; i < kFrames; ++i) {
    std::string_view body;
    auto got = conn.NextBufferedFrame(&body);
    ASSERT_TRUE(got.ok() && got.value()) << "frame " << i;
    ASSERT_EQ(FrameNumber(body), i);
  }
  EXPECT_EQ(conn.buffered_read_bytes(), 0u);
  std::string_view body;
  auto got = conn.NextBufferedFrame(&body);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(FramedConnTest, SplitFrameIsReturnedOnlyOnceWhole) {
  ConnPair pair;
  FramedConn conn(pair.read_fd);
  const std::string split = NumberedFrame(2);
  const size_t half = split.size() / 2;
  pair.Send(NumberedFrame(0) + NumberedFrame(1) + split.substr(0, half));
  pair.Fill(&conn);
  std::string_view body;
  for (int64_t i = 0; i < 2; ++i) {
    auto got = conn.NextBufferedFrame(&body);
    ASSERT_TRUE(got.ok() && got.value());
    EXPECT_EQ(FrameNumber(body), i);
  }
  auto partial = conn.NextBufferedFrame(&body);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial.value());
  // The frames before the split one are consumed; only its prefix waits.
  EXPECT_EQ(conn.buffered_read_bytes(), half);
  pair.Send(split.substr(half));
  pair.Fill(&conn);
  auto whole = conn.NextBufferedFrame(&body);
  ASSERT_TRUE(whole.ok() && whole.value());
  EXPECT_EQ(FrameNumber(body), 2);
  EXPECT_EQ(conn.buffered_read_bytes(), 0u);
}

TEST(FramedConnTest, HelloAndFramesInOneSegmentParse) {
  ConnPair pair;
  FramedConn conn(pair.read_fd);
  pair.Send(EncodeHello() + NumberedFrame(0) + NumberedFrame(1));
  pair.Fill(&conn);
  auto hello = conn.TryConsumeHello();
  ASSERT_TRUE(hello.ok() && hello.value()) << hello.status().ToString();
  std::string_view body;
  for (int64_t i = 0; i < 2; ++i) {
    auto got = conn.NextBufferedFrame(&body);
    ASSERT_TRUE(got.ok() && got.value());
    EXPECT_EQ(FrameNumber(body), i);
  }
  EXPECT_EQ(conn.buffered_read_bytes(), 0u);
}

TEST(FramedConnTest, BlockingReadReturnsBufferedFramesFirst) {
  ConnPair pair;
  FramedConn conn(pair.read_fd);
  pair.Send(NumberedFrame(0) + NumberedFrame(1) + NumberedFrame(2));
  pair.Fill(&conn);
  pair.Send(NumberedFrame(3));  // only a blocking recv can see this one
  for (int64_t i = 0; i < 4; ++i) {
    auto body = conn.ReadFrame();
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    EXPECT_EQ(FrameNumber(body.value()), i);
  }
  EXPECT_EQ(conn.buffered_read_bytes(), 0u);
  ::shutdown(pair.write_fd, SHUT_WR);
  EXPECT_EQ(conn.ReadFrame().status().code(), StatusCode::kOutOfRange);
}

TEST(FramedConnTest, PeekedFrameIsStillTheNextOneRead) {
  ConnPair pair;
  FramedConn conn(pair.read_fd);
  pair.Send(NumberedFrame(0) + NumberedFrame(1) + NumberedFrame(2));
  pair.Fill(&conn);
  std::string_view body;
  for (int repeat = 0; repeat < 2; ++repeat) {
    auto peeked = conn.PeekBufferedFrame(&body);
    ASSERT_TRUE(peeked.ok() && peeked.value());
    EXPECT_EQ(FrameNumber(body), 0);
  }
  auto next = conn.NextBufferedFrame(&body);
  ASSERT_TRUE(next.ok() && next.value());
  EXPECT_EQ(FrameNumber(body), 0);
  auto peeked = conn.PeekBufferedFrame(&body);
  ASSERT_TRUE(peeked.ok() && peeked.value());
  EXPECT_EQ(FrameNumber(body), 1);
  conn.ConsumePeekedFrame();
  next = conn.NextBufferedFrame(&body);
  ASSERT_TRUE(next.ok() && next.value());
  EXPECT_EQ(FrameNumber(body), 2);
  EXPECT_EQ(conn.buffered_read_bytes(), 0u);
}

TEST(ProtocolTest, DecodeRequestRejectsMalformedBodies) {
  // Empty body.
  EXPECT_EQ(DecodeRequest("").status().code(), StatusCode::kCorruption);
  // Unknown op (kSetTag=9 is the v7 ceiling).
  EXPECT_EQ(DecodeRequest(std::string(1, '\x0a')).status().code(),
            StatusCode::kCorruption);
  // A SET_TAG body truncated before its tag field.
  EXPECT_EQ(DecodeRequest(std::string(1, '\x09')).status().code(),
            StatusCode::kCorruption);
  // Truncated INGEST body.
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "s";
  request.value = 1.0;
  const std::string frame = EncodeRequest(request);
  size_t frame_size = 0;
  const std::string body(DecodeFrame(frame, &frame_size).value());
  for (size_t cut = 1; cut < body.size(); ++cut) {
    EXPECT_EQ(DecodeRequest(body.substr(0, cut)).status().code(),
              StatusCode::kCorruption)
        << "cut=" << cut;
  }
  // Trailing bytes after a complete body.
  EXPECT_EQ(DecodeRequest(body + "x").status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, DecodeResponseRejectsMalformedBodies) {
  EXPECT_EQ(DecodeResponse("").status().code(), StatusCode::kCorruption);
  // Unknown status code byte.
  std::string body;
  body.push_back(static_cast<char>(Request::Op::kIngest));
  body.push_back('\x63');  // status code 99
  body.push_back('\x00');  // empty message
  EXPECT_EQ(DecodeResponse(body).status().code(), StatusCode::kCorruption);
  // Series-length field pointing past the end of the frame.
  std::string overrun;
  overrun.push_back(static_cast<char>(Request::Op::kQuery));
  overrun.push_back('\x00');  // kOk
  overrun.push_back('\x7f');  // message length 127, but no bytes follow
  EXPECT_EQ(DecodeResponse(overrun).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace dd
