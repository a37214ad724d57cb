// On-disk format stability for the persistence layer, mirroring what
// golden_format_test.cc does for the wire format: byte-exact fixture
// files for the WAL and snapshot formats are checked in under
// tests/golden/, and this test both decodes them and re-encodes to
// identical bytes. If an intentional format change breaks these, bump
// the version byte instead of silently altering v1.
//
// Regenerating fixtures after an *intentional* format bump:
//   DD_REGEN_GOLDEN=1 ./golden_persistence_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/ddsketch.h"
#include "server/protocol.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/crc32.h"
#include "util/frame.h"

#ifndef DD_GOLDEN_DIR
#error "DD_GOLDEN_DIR must point at tests/golden"
#endif

namespace dd {
namespace {

std::string Hex(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (unsigned char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

std::string FixturePath(const std::string& name) {
  return std::string(DD_GOLDEN_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void MaybeRegenerate(const std::string& name, const std::string& bytes) {
  if (std::getenv("DD_REGEN_GOLDEN") == nullptr) return;
  std::ofstream out(FixturePath(name), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write fixture " << name;
}

/// The scripted WAL content: a mix of sketch-payload and raw-value
/// records across two series, with a negative timestamp in the mix.
std::string GoldenWalBytes() {
  std::string bytes = EncodeWalHeader(/*epoch=*/1);
  auto worker = std::move(DDSketch::Create(0.01, 2048)).value();
  worker.Add(1.0);
  worker.Add(2.5);
  worker.Add(100.0);
  WalRecord sketch_record;
  sketch_record.type = WalRecord::Type::kIngestSketch;
  sketch_record.series = "api.latency";
  sketch_record.timestamp = 1000;
  sketch_record.payload = worker.Serialize();
  bytes += EncodeWalRecord(sketch_record);
  WalRecord value_record;
  value_record.type = WalRecord::Type::kIngestValue;
  value_record.series = "db.errors";
  value_record.timestamp = -30;
  value_record.value = 3.25;
  bytes += EncodeWalRecord(value_record);
  return bytes;
}

/// The scripted snapshot content: two series over a three-level ladder,
/// compacted so every tier holds intervals.
std::string GoldenSnapshotBytes() {
  SketchStoreOptions options;
  options.levels = {{10, 60}, {60, 240}, {240, 0}};
  auto store = std::move(SketchStore::Create(options)).value();
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        store.IngestValue("api.latency", i * 20, 1.0 + (i % 7)).ok());
    EXPECT_TRUE(store.IngestValue("db.errors", i * 13 - 20, 0.5 * i).ok());
  }
  store.Compact(/*now=*/800);  // populate the coarse tiers too
  return EncodeSnapshot(store, /*epoch=*/3);
}

TEST(GoldenPersistenceTest, Crc32cKnownAnswerVectors) {
  // The standard CRC-32C check value; pins polynomial and reflection.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8a9136aau);
  // Slice-and-continue composition.
  EXPECT_EQ(Crc32c(Crc32c("1234"), "56789"), Crc32c("123456789"));
}

TEST(GoldenPersistenceTest, WalHeaderPinned) {
  // magic "DDWL", version 1, epoch 1 (fixed32), CRC-32C of the preceding
  // 9 bytes.
  EXPECT_EQ(Hex(EncodeWalHeader(1)),
            "4444574c" "01" "01000000" "80265f4d");
}

TEST(GoldenPersistenceTest, WalFixtureRoundTripsByteExactly) {
  const std::string encoded = GoldenWalBytes();
  MaybeRegenerate("wal_v1.bin", encoded);
  const std::string fixture = ReadFixture("wal_v1.bin");
  ASSERT_EQ(Hex(encoded), Hex(fixture));

  auto scanned = ReadWal(fixture, WalRead::kStrict);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(scanned.value().epoch, 1u);
  ASSERT_EQ(scanned.value().records.size(), 2u);
  EXPECT_EQ(scanned.value().records[0].series, "api.latency");
  EXPECT_EQ(scanned.value().records[0].timestamp, 1000);
  EXPECT_EQ(scanned.value().records[1].series, "db.errors");
  EXPECT_EQ(scanned.value().records[1].timestamp, -30);
  EXPECT_EQ(scanned.value().records[1].value, 3.25);

  // Re-encode: header + records must reproduce the fixture bytes.
  std::string reencoded = EncodeWalHeader(scanned.value().epoch);
  for (const WalRecord& record : scanned.value().records) {
    reencoded += EncodeWalRecord(record);
  }
  EXPECT_EQ(Hex(reencoded), Hex(fixture));
}

TEST(GoldenPersistenceTest, ValueUnitRecordPinned) {
  // Record type 3, a sketchd unit: type, series, timestamp (zigzag),
  // count, then the values as little-endian fixed64 doubles, in one
  // frame (len varint, CRC-32C of the body, body).
  WalRecord record;
  record.type = WalRecord::Type::kIngestValues;
  record.series = "db.errors";
  record.timestamp = -30;
  record.values = {3.25, -0.5};
  const std::string framed = EncodeWalRecord(record);
  EXPECT_EQ(Hex(framed),
            "1d" "217f618d"              // body length 29, CRC-32C
            "03" "09" "64622e6572726f7273"  // type 3, "db.errors"
            "3b" "02"                    // ts -30 (zigzag 59), 2 values
            "0000000000000a40"           // 3.25
            "000000000000e0bf");         // -0.5

  // It reads back exactly, beside the v1 fixture's type-1 and type-2
  // records, and re-encodes to the same bytes.
  const std::string log = ReadFixture("wal_v1.bin") + framed;
  auto scanned = ReadWal(log, WalRead::kStrict);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ(scanned.value().records.size(), 3u);
  const WalRecord& read = scanned.value().records[2];
  EXPECT_EQ(read.type, WalRecord::Type::kIngestValues);
  EXPECT_EQ(read.series, "db.errors");
  EXPECT_EQ(read.timestamp, -30);
  EXPECT_EQ(read.values, record.values);
  EXPECT_EQ(Hex(EncodeWalRecord(read)), Hex(framed));
}

TEST(GoldenPersistenceTest, MalformedValueUnitRecordsAreCorruption) {
  // Bodies a type-3 record must never have: a count of 0, values that
  // run past the body, and bytes after the last value. Each is framed
  // with a valid CRC, so only the body decode can refuse it.
  const std::string head = std::string("\x03\x01s\x0a", 4);  // "s", ts 5
  const std::string one_value("\0\0\0\0\0\0\xf0\x3f", 8);  // 1.0
  for (const std::string& body :
       {head + '\x00', head + '\x02' + one_value,
        head + '\x01' + one_value + '\x00'}) {
    const std::string log = EncodeWalHeader(1) + EncodeFrame(body);
    for (const WalRead mode : {WalRead::kStrict, WalRead::kTolerateTornTail}) {
      auto scanned = ReadWal(log, mode);
      ASSERT_FALSE(scanned.ok()) << Hex(body);
      EXPECT_EQ(scanned.status().code(), StatusCode::kCorruption) << Hex(body);
    }
  }
  // The well-formed neighbour of those bodies reads.
  const std::string good = head + '\x01' + one_value;
  auto scanned =
      ReadWal(EncodeWalHeader(1) + EncodeFrame(good), WalRead::kStrict);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(scanned.value().records.at(0).values, std::vector<double>{1.0});
}

TEST(GoldenPersistenceTest, SnapshotFixtureRoundTripsByteExactly) {
  const std::string encoded = GoldenSnapshotBytes();
  MaybeRegenerate("snapshot_v2.bin", encoded);
  const std::string fixture = ReadFixture("snapshot_v2.bin");
  // magic "DDSS", version 2.
  EXPECT_EQ(Hex(fixture.substr(0, 5)), "4444535302");
  ASSERT_EQ(Hex(encoded.substr(0, 64)), Hex(fixture.substr(0, 64)));
  ASSERT_EQ(encoded, fixture);

  auto decoded = DecodeSnapshot(fixture);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().epoch, 3u);
  EXPECT_EQ(decoded.value().store.num_series(), 2u);
  ASSERT_EQ(decoded.value().store.num_levels(), 3u);

  // Decode -> re-encode is the identity on the fixture.
  EXPECT_EQ(EncodeSnapshot(decoded.value().store, decoded.value().epoch),
            fixture);

  // And the decoded store answers queries (sanity that the fixture holds
  // real data, not just parseable bytes).
  auto q = decoded.value().store.QueryQuantile("api.latency", 0, 800, 0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_GT(q.value(), 0.0);
}

TEST(GoldenPersistenceTest, SnapshotV1FixtureStillDecodes) {
  // Upgrade path: a v1 snapshot (fixed base/retention/factor geometry,
  // written by protocol-v5 builds) must keep decoding in place. The v1
  // fields map onto a two-level ladder; retention is raised to the
  // coarse interval where v1 allowed shorter (keeping data longer is
  // always safe).
  const std::string fixture = ReadFixture("snapshot_v1.bin");
  EXPECT_EQ(Hex(fixture.substr(0, 5)), "4444535301");
  auto decoded = DecodeSnapshot(fixture);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().epoch, 3u);
  EXPECT_EQ(decoded.value().store.num_series(), 2u);
  // v1 fixture geometry: base=10s, retention=60s, factor=6.
  const std::vector<RollupLevel> expected = {{10, 60}, {60, 0}};
  EXPECT_EQ(decoded.value().store.options().levels, expected);
  auto q = decoded.value().store.QueryQuantile("api.latency", 0, 200, 0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_GT(q.value(), 0.0);
  // Re-encoding writes v2: the old geometry round-trips through the
  // ladder encoding with identical data.
  const std::string upgraded =
      EncodeSnapshot(decoded.value().store, decoded.value().epoch);
  EXPECT_EQ(Hex(upgraded.substr(0, 5)), "4444535302");
  auto redecoded = DecodeSnapshot(upgraded);
  ASSERT_TRUE(redecoded.ok());
  EXPECT_EQ(redecoded.value().store.options().levels, expected);
  EXPECT_EQ(
      std::move(redecoded.value().store.QueryQuantile("api.latency", 0, 200,
                                                      0.5))
          .value(),
      q.value());
}

/// The scripted protocol traffic: the hello, one request per op, one
/// response per op (including an error response, a v3 BUSY admission
/// rejection, and a v5 FENCED refusal), and one v5 replication frame
/// per tag — every frame type sketchd ships, concatenated in a fixed
/// order.
std::string GoldenProtocolBytes() {
  std::string bytes = EncodeHello();

  Request ingest;
  ingest.op = Request::Op::kIngest;
  ingest.series = "api.latency";
  ingest.timestamp = 1000;
  ingest.value = 3.25;
  bytes += EncodeRequest(ingest);

  auto worker = std::move(DDSketch::Create(0.01, 2048)).value();
  worker.Add(1.0);
  worker.Add(2.5);
  worker.Add(100.0);
  Request merge;
  merge.op = Request::Op::kMerge;
  merge.series = "db.errors";
  merge.timestamp = -30;
  merge.payload = worker.Serialize();
  bytes += EncodeRequest(merge);

  Request query;
  query.op = Request::Op::kQuery;
  query.series = "api.latency";
  query.start = -100;
  query.end = 2000;
  query.quantiles = {0.5, 0.95, 0.99};
  bytes += EncodeRequest(query);

  Request checkpoint;
  checkpoint.op = Request::Op::kCheckpoint;
  bytes += EncodeRequest(checkpoint);

  Request stats;
  stats.op = Request::Op::kStats;
  bytes += EncodeRequest(stats);

  // v5: a follower's SUBSCRIBE handshake (token + resume positions) and
  // a failover PROMOTE.
  Request subscribe;
  subscribe.op = Request::Op::kSubscribe;
  subscribe.repl_token = 1;
  subscribe.positions = {{2, 13}, {2, 4096}};
  bytes += EncodeRequest(subscribe);

  Request promote;
  promote.op = Request::Op::kPromote;
  bytes += EncodeRequest(promote);

  // v6: an operator-driven COMPACT (rollup + retention at a checkpoint
  // boundary), clamped server-side to the data horizon.
  Request compact;
  compact.op = Request::Op::kCompact;
  compact.compact_now = 1700000000;
  bytes += EncodeRequest(compact);

  // v7: a connection declaring its admission tag.
  Request set_tag;
  set_tag.op = Request::Op::kSetTag;
  set_tag.tag = "team-a.prod";
  bytes += EncodeRequest(set_tag);

  Response ingest_ok;
  ingest_ok.op = Request::Op::kIngest;
  ingest_ok.wal_offset = 13 + 27;
  bytes += EncodeResponse(ingest_ok);

  Response merge_err;
  merge_err.op = Request::Op::kMerge;
  merge_err.code = StatusCode::kIncompatible;
  merge_err.message = "sketches are not mergeable";
  bytes += EncodeResponse(merge_err);

  Response query_ok;
  query_ok.op = Request::Op::kQuery;
  query_ok.values = {3.25, 3.25, 3.25};
  bytes += EncodeResponse(query_ok);

  Response checkpoint_ok;
  checkpoint_ok.op = Request::Op::kCheckpoint;
  checkpoint_ok.epoch = 2;
  bytes += EncodeResponse(checkpoint_ok);

  Response stats_ok;
  stats_ok.op = Request::Op::kStats;
  stats_ok.stats.num_series = 2;
  stats_ok.stats.num_intervals = 5;
  stats_ok.stats.size_in_bytes = 4096;
  stats_ok.stats.wal_offset = 40;
  stats_ok.stats.epoch = 2;
  stats_ok.stats.batch_commits = 17;
  stats_ok.stats.background_checkpoints = 3;
  // v3 serving counters.
  stats_ok.stats.connections_open = 1024;
  stats_ok.stats.connections_accepted = 4096;
  stats_ok.stats.connections_shed = 7;
  stats_ok.stats.busy_rejections = 21;
  stats_ok.stats.staged_bytes = 65536;
  // v4 self-instrumentation rows: a loaded INGEST row, a lightly used
  // QUERY row, a BUSY row, and empty rows (count 0, percentiles 0) for
  // the rest — all six always on the wire, in LatencyOp order.
  OpLatencyStats ingest_lat;
  ingest_lat.count = 4096;
  ingest_lat.p50_us = 812.5;
  ingest_lat.p90_us = 1900.25;
  ingest_lat.p99_us = 4225.0;
  ingest_lat.p999_us = 9800.125;
  ingest_lat.max_us = 12000.5;
  stats_ok.stats.op_latencies[static_cast<size_t>(LatencyOp::kIngest)] =
      ingest_lat;
  OpLatencyStats query_lat;
  query_lat.count = 32;
  query_lat.p50_us = 95.0;
  query_lat.p90_us = 140.75;
  query_lat.p99_us = 310.0;
  query_lat.p999_us = 310.0;
  query_lat.max_us = 310.0;
  stats_ok.stats.op_latencies[static_cast<size_t>(LatencyOp::kQuery)] =
      query_lat;
  OpLatencyStats busy_lat;
  busy_lat.count = 21;
  busy_lat.p50_us = 2.5;
  busy_lat.p90_us = 4.0;
  busy_lat.p99_us = 6.25;
  busy_lat.p999_us = 6.25;
  busy_lat.max_us = 6.25;
  stats_ok.stats.op_latencies[static_cast<size_t>(LatencyOp::kBusy)] =
      busy_lat;
  ShardStats shard0;
  shard0.shard = 0;
  shard0.num_series = 1;
  shard0.wal_bytes = 27;
  shard0.epoch = 2;
  shard0.batch_commits = 9;
  shard0.background_checkpoints = 2;
  stats_ok.stats.shards.push_back(shard0);
  ShardStats shard1;
  shard1.shard = 1;
  shard1.num_series = 1;
  shard1.wal_bytes = 13;
  shard1.epoch = 3;
  shard1.batch_commits = 8;
  shard1.background_checkpoints = 1;
  stats_ok.stats.shards.push_back(shard1);
  // v5 replication fields (encoded after the shard rows).
  stats_ok.stats.role = 0;
  stats_ok.stats.fence_token = 3;
  stats_ok.stats.fenced = 0;
  stats_ok.stats.repl_subscribers = 1;
  stats_ok.stats.repl_shipped_bytes = 8192;
  stats_ok.stats.repl_applied_bytes = 0;
  stats_ok.stats.repl_connected = 0;
  stats_ok.stats.repl_heartbeat_age_ms = 0;
  // v6 per-level rollup rows (encoded after the replication fields).
  stats_ok.stats.levels.push_back({10, 3600, 360, 0, 40960});
  stats_ok.stats.levels.push_back({60, 86400, 1440, 2100, 131072});
  stats_ok.stats.levels.push_back({3600, 0, 24, 35, 16384});
  // v7 per-tag admission rows (encoded after the level rows).
  {
    TagStatsRow default_row;
    default_row.tag = "default";
    default_row.floor_bytes = 1 << 20;
    default_row.budget_bytes = (1 << 20) + (1 << 21);
    default_row.count = 96;
    default_row.p50_us = 120.5;
    default_row.p99_us = 800.25;
    default_row.p999_us = 1500.0;
    stats_ok.stats.tags.push_back(default_row);
    TagStatsRow tagged_row;
    tagged_row.tag = "team-a.prod";
    tagged_row.floor_bytes = 1 << 20;
    tagged_row.budget_bytes = (1 << 20) + (1 << 19);
    tagged_row.staged_bytes = 4096;
    tagged_row.busy_rejections = 21;
    tagged_row.throttle_permille = 250;  // mid-throttle
    tagged_row.count = 2048;
    tagged_row.p50_us = 95.0;
    tagged_row.p99_us = 5000.5;
    tagged_row.p999_us = 12000.0;
    stats_ok.stats.tags.push_back(tagged_row);
  }
  bytes += EncodeResponse(stats_ok);

  // v3: an admission-control rejection. The record was never staged —
  // no wal_offset — and the client is expected to retry after backoff.
  // v7: the refusal carries the refusing tag's retry hint.
  Response ingest_busy;
  ingest_busy.op = Request::Op::kIngest;
  ingest_busy.code = StatusCode::kBusy;
  ingest_busy.message = "staged-bytes budget exceeded; retry with backoff";
  ingest_busy.retry_after_ms = 10;
  bytes += EncodeResponse(ingest_busy);

  // v5: the SUBSCRIBE/PROMOTE acks and a FENCED write refusal from a
  // deposed primary (like BUSY: no payload, the record never landed).
  Response subscribe_ok;
  subscribe_ok.op = Request::Op::kSubscribe;
  subscribe_ok.repl_token = 3;
  subscribe_ok.repl_shards = 2;
  bytes += EncodeResponse(subscribe_ok);

  Response promote_ok;
  promote_ok.op = Request::Op::kPromote;
  promote_ok.repl_token = 4;
  bytes += EncodeResponse(promote_ok);

  // v6: the COMPACT ack — folded interval count plus the epoch of the
  // checkpoint that persisted the fold.
  Response compact_ok;
  compact_ok.op = Request::Op::kCompact;
  compact_ok.compacted = 354;
  compact_ok.epoch = 3;
  bytes += EncodeResponse(compact_ok);

  // v7: the SET_TAG ack — acknowledgement only, no payload.
  Response set_tag_ok;
  set_tag_ok.op = Request::Op::kSetTag;
  bytes += EncodeResponse(set_tag_ok);

  Response ingest_fenced;
  ingest_fenced.op = Request::Op::kIngest;
  ingest_fenced.code = StatusCode::kFenced;
  ingest_fenced.message =
      "writer fenced: a newer primary holds the fencing token";
  bytes += EncodeResponse(ingest_fenced);

  // v5 replication channel: one frame per tag, as shipped after an OK
  // SUBSCRIBE (primary -> follower: snapshot, segment, heartbeat;
  // follower -> primary: ack, fence).
  ReplFrame snapshot_frame;
  snapshot_frame.tag = ReplFrame::Tag::kSnapshot;
  snapshot_frame.shard = 0;
  snapshot_frame.epoch = 2;
  snapshot_frame.payload = GoldenSnapshotBytes();
  bytes += EncodeReplFrame(snapshot_frame);

  ReplFrame segment_frame;
  segment_frame.tag = ReplFrame::Tag::kSegment;
  segment_frame.shard = 1;
  segment_frame.epoch = 2;
  segment_frame.start_offset = 13;
  segment_frame.payload = GoldenWalBytes().substr(13);  // records, no header
  bytes += EncodeReplFrame(segment_frame);

  ReplFrame heartbeat_frame;
  heartbeat_frame.tag = ReplFrame::Tag::kHeartbeat;
  heartbeat_frame.token = 3;
  heartbeat_frame.positions = {{2, 4123}, {2, 13}};
  bytes += EncodeReplFrame(heartbeat_frame);

  ReplFrame ack_frame;
  ack_frame.tag = ReplFrame::Tag::kAck;
  ack_frame.shard = 0;
  ack_frame.epoch = 2;
  ack_frame.offset = 4123;
  bytes += EncodeReplFrame(ack_frame);

  ReplFrame fence_frame;
  fence_frame.tag = ReplFrame::Tag::kFence;
  fence_frame.token = 4;
  bytes += EncodeReplFrame(fence_frame);

  // v6 chunked snapshot bootstrap: a chunk train closed by a terminator
  // (a real train slices one image; the fixture pins the frame layout).
  ReplFrame chunk_frame;
  chunk_frame.tag = ReplFrame::Tag::kSnapshotChunk;
  chunk_frame.shard = 0;
  chunk_frame.payload = GoldenSnapshotBytes().substr(0, 48);
  bytes += EncodeReplFrame(chunk_frame);

  ReplFrame end_frame;
  end_frame.tag = ReplFrame::Tag::kSnapshotEnd;
  end_frame.shard = 0;
  end_frame.epoch = 2;
  bytes += EncodeReplFrame(end_frame);

  return bytes;
}

TEST(GoldenPersistenceTest, ProtocolHelloPinned) {
  // magic "DDSP", version 7 (v7 = per-tag admission: SET_TAG, per-tag
  // STATS rows, retry_after_ms on BUSY refusals).
  EXPECT_EQ(Hex(EncodeHello()), "44445350" "07");
}

TEST(GoldenPersistenceTest, ProtocolIngestFramePinned) {
  // len=13 varint | crc fixed32 | body: op=1, series len+bytes "s",
  // ts zigzag(1000), value fixed64 1.5.
  Request request;
  request.op = Request::Op::kIngest;
  request.series = "s";
  request.timestamp = 1000;
  request.value = 1.5;
  EXPECT_EQ(Hex(EncodeRequest(request)),
            "0d" "99cf5196" "01" "0173" "d00f" "000000000000f83f");
}

TEST(GoldenPersistenceTest, ProtocolFixtureRoundTripsByteExactly) {
  const std::string encoded = GoldenProtocolBytes();
  MaybeRegenerate("protocol_v7.bin", encoded);
  const std::string fixture = ReadFixture("protocol_v7.bin");
  ASSERT_EQ(Hex(encoded), Hex(fixture));

  // Walk the fixture: hello, then 9 requests, then 11 responses, then 7
  // replication frames — every frame must decode, and re-encoding must
  // reproduce the exact bytes.
  std::string_view rest(fixture);
  ASSERT_TRUE(CheckHello(rest.substr(0, kHelloBytes)).ok());
  std::string reencoded(EncodeHello());
  rest.remove_prefix(kHelloBytes);
  for (int i = 0; i < 9; ++i) {
    size_t frame_size = 0;
    auto body = DecodeFrame(rest, &frame_size);
    ASSERT_TRUE(body.ok()) << "request " << i << ": "
                           << body.status().ToString();
    auto request = DecodeRequest(body.value());
    ASSERT_TRUE(request.ok()) << "request " << i << ": "
                              << request.status().ToString();
    EXPECT_EQ(static_cast<uint8_t>(request.value().op), i + 1);
    reencoded += EncodeRequest(request.value());
    rest.remove_prefix(frame_size);
  }
  // Trailing ops: BUSY ingest, SUBSCRIBE ack, PROMOTE ack, COMPACT ack,
  // SET_TAG ack, FENCED ingest.
  constexpr uint8_t kResponseOps[] = {1, 2, 3, 4, 5, 1, 6, 7, 8, 9, 1};
  for (int i = 0; i < 11; ++i) {
    size_t frame_size = 0;
    auto body = DecodeFrame(rest, &frame_size);
    ASSERT_TRUE(body.ok()) << "response " << i << ": "
                           << body.status().ToString();
    auto response = DecodeResponse(body.value());
    ASSERT_TRUE(response.ok()) << "response " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(static_cast<uint8_t>(response.value().op), kResponseOps[i]);
    reencoded += EncodeResponse(response.value());
    rest.remove_prefix(frame_size);
  }
  for (int i = 0; i < 7; ++i) {
    size_t frame_size = 0;
    auto body = DecodeFrame(rest, &frame_size);
    ASSERT_TRUE(body.ok()) << "repl frame " << i << ": "
                           << body.status().ToString();
    auto frame = DecodeReplFrame(body.value());
    ASSERT_TRUE(frame.ok()) << "repl frame " << i << ": "
                            << frame.status().ToString();
    EXPECT_EQ(static_cast<uint8_t>(frame.value().tag), i + 1);
    reencoded += EncodeReplFrame(frame.value());
    rest.remove_prefix(frame_size);
  }
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(Hex(reencoded), Hex(fixture));

  // Spot checks that the fixture carries real content.
  const auto kNthFrameBody = [&](int skip) {
    std::string_view walk(fixture);
    walk.remove_prefix(kHelloBytes);
    size_t frame_size = 0;
    for (int i = 0; i < skip; ++i) {
      auto body = DecodeFrame(walk, &frame_size);
      EXPECT_TRUE(body.ok());
      walk.remove_prefix(frame_size);
    }
    auto body = DecodeFrame(walk, &frame_size);
    EXPECT_TRUE(body.ok());
    return std::string(body.value());
  };

  // Request 8 (frame 8 after the hello): the v7 SET_TAG declaration.
  const Request set_tag = std::move(DecodeRequest(kNthFrameBody(8))).value();
  EXPECT_EQ(set_tag.op, Request::Op::kSetTag);
  EXPECT_EQ(set_tag.tag, "team-a.prod");

  // Response 1 (frame 10 after the hello): the MERGE error.
  const Response merge_err =
      std::move(DecodeResponse(kNthFrameBody(10))).value();
  EXPECT_EQ(merge_err.code, StatusCode::kIncompatible);
  EXPECT_EQ(merge_err.message, "sketches are not mergeable");

  // Response 4: the STATS payload carries the v7 per-tag rows after the
  // v6 level rows.
  const Response stats_ok =
      std::move(DecodeResponse(kNthFrameBody(13))).value();
  ASSERT_EQ(stats_ok.stats.tags.size(), 2u);
  EXPECT_EQ(stats_ok.stats.tags[0].tag, "default");
  EXPECT_EQ(stats_ok.stats.tags[1].tag, "team-a.prod");
  EXPECT_EQ(stats_ok.stats.tags[1].busy_rejections, 21u);
  EXPECT_EQ(stats_ok.stats.tags[1].throttle_permille, 250u);
  EXPECT_EQ(stats_ok.stats.tags[1].p999_us, 12000.0);

  // Response 5: the v3 BUSY rejection — a refused record has no
  // wal_offset, but v7 adds the refusing tag's retry hint.
  const Response busy = std::move(DecodeResponse(kNthFrameBody(14))).value();
  EXPECT_EQ(busy.code, StatusCode::kBusy);
  EXPECT_EQ(busy.wal_offset, 0u);
  EXPECT_EQ(busy.retry_after_ms, 10u);

  // Response 8: the v6 COMPACT ack carrying the fold count + epoch.
  const Response compact_ok =
      std::move(DecodeResponse(kNthFrameBody(17))).value();
  EXPECT_EQ(compact_ok.compacted, 354u);
  EXPECT_EQ(compact_ok.epoch, 3u);

  // Response 9: the v7 SET_TAG ack is a bare acknowledgement.
  const Response set_tag_ok =
      std::move(DecodeResponse(kNthFrameBody(18))).value();
  EXPECT_EQ(set_tag_ok.op, Request::Op::kSetTag);
  EXPECT_EQ(set_tag_ok.code, StatusCode::kOk);

  // Response 10: the v5 FENCED refusal from a deposed primary.
  const Response fenced =
      std::move(DecodeResponse(kNthFrameBody(19))).value();
  EXPECT_EQ(fenced.code, StatusCode::kFenced);
  EXPECT_EQ(fenced.wal_offset, 0u);

  // Repl frame 1 (frame 21): a WAL segment carrying real record bytes.
  const ReplFrame segment =
      std::move(DecodeReplFrame(kNthFrameBody(21))).value();
  EXPECT_EQ(segment.tag, ReplFrame::Tag::kSegment);
  EXPECT_EQ(segment.start_offset, 13u);
  EXPECT_EQ(segment.payload, GoldenWalBytes().substr(13));

  // Repl frame 6 (frame 26): the chunk-train terminator names its epoch.
  const ReplFrame end =
      std::move(DecodeReplFrame(kNthFrameBody(26))).value();
  EXPECT_EQ(end.tag, ReplFrame::Tag::kSnapshotEnd);
  EXPECT_EQ(end.epoch, 2u);
}

// `remote-stats` prints StatsText. Pin its exact text for the fixture's
// STATS response (frame 13 after the hello), so a renamed, dropped or
// reordered field, or a changed number format, fails here rather than in
// the scripts that grep it.
TEST(GoldenPersistenceTest, ProtocolFixtureStatsTextPinned) {
  const std::string fixture = ReadFixture("protocol_v7.bin");
  std::string_view walk(fixture);
  walk.remove_prefix(kHelloBytes);
  size_t frame_size = 0;
  for (int i = 0; i < 13; ++i) {
    ASSERT_TRUE(DecodeFrame(walk, &frame_size).ok());
    walk.remove_prefix(frame_size);
  }
  auto body = DecodeFrame(walk, &frame_size);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  auto stats_ok = DecodeResponse(body.value());
  ASSERT_TRUE(stats_ok.ok()) << stats_ok.status().ToString();
  ASSERT_EQ(stats_ok.value().op, Request::Op::kStats);
  EXPECT_EQ(StatsText(stats_ok.value().stats),
            "series 2\n"
            "intervals 5\n"
            "bytes 4096\n"
            "wal_bytes 40\n"
            "epoch 2\n"
            "batch_commits 17\n"
            "background_checkpoints 3\n"
            "connections_open 1024\n"
            "connections_accepted 4096\n"
            "connections_shed 7\n"
            "busy_rejections 21\n"
            "staged_bytes 65536\n"
            "role primary\n"
            "fence_token 3\n"
            "fenced 0\n"
            "repl_subscribers 1\n"
            "repl_shipped_bytes 8192\n"
            "repl_applied_bytes 0\n"
            "repl_connected 0\n"
            "repl_heartbeat_age_ms 0\n"
            "op_latency INGEST count=4096 p50_us=812.500 p90_us=1900.250 "
            "p99_us=4225.000 p999_us=9800.125 max_us=12000.500\n"
            "op_latency MERGE count=0 p50_us=0.000 p90_us=0.000 "
            "p99_us=0.000 p999_us=0.000 max_us=0.000\n"
            "op_latency QUERY count=32 p50_us=95.000 p90_us=140.750 "
            "p99_us=310.000 p999_us=310.000 max_us=310.000\n"
            "op_latency CHECKPOINT count=0 p50_us=0.000 p90_us=0.000 "
            "p99_us=0.000 p999_us=0.000 max_us=0.000\n"
            "op_latency STATS count=0 p50_us=0.000 p90_us=0.000 "
            "p99_us=0.000 p999_us=0.000 max_us=0.000\n"
            "op_latency BUSY count=21 p50_us=2.500 p90_us=4.000 "
            "p99_us=6.250 p999_us=6.250 max_us=6.250\n"
            "shard 0 series=1 wal_bytes=27 epoch=2 commits=9 "
            "bg_checkpoints=2\n"
            "shard 1 series=1 wal_bytes=13 epoch=3 commits=8 "
            "bg_checkpoints=1\n"
            "level 0 interval_s=10 retention_s=3600 intervals=360 "
            "rollup_merges=0 bytes=40960\n"
            "level 1 interval_s=60 retention_s=86400 intervals=1440 "
            "rollup_merges=2100 bytes=131072\n"
            "level 2 interval_s=3600 retention_s=0 intervals=24 "
            "rollup_merges=35 bytes=16384\n"
            "tag default floor_bytes=1048576 budget_bytes=3145728 "
            "staged_bytes=0 busy_rejections=0 share_permille=1000 count=96 "
            "p50_us=120.500 p99_us=800.250 p999_us=1500.000\n"
            "tag team-a.prod floor_bytes=1048576 budget_bytes=1572864 "
            "staged_bytes=4096 busy_rejections=21 share_permille=250 "
            "count=2048 p50_us=95.000 p99_us=5000.500 p999_us=12000.000\n");
}

TEST(GoldenPersistenceTest, VersionByteGuardsDecoding) {
  std::string wal = GoldenWalBytes();
  wal[4] = 2;  // future version
  auto wal_result = ReadWal(wal, WalRead::kStrict);
  ASSERT_FALSE(wal_result.ok());
  EXPECT_EQ(wal_result.status().code(), StatusCode::kCorruption);

  std::string snapshot = GoldenSnapshotBytes();
  snapshot[4] = 3;  // future version (1 and 2 both decode)
  auto snapshot_result = DecodeSnapshot(snapshot);
  ASSERT_FALSE(snapshot_result.ok());
  EXPECT_EQ(snapshot_result.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace dd
