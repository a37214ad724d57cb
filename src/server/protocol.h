// sketchd wire protocol: the length-prefixed, CRC-framed binary format
// spoken between SketchClient and SketchServer. Byte-exact layouts for
// every frame live in docs/PROTOCOL.md; the encodings here reuse the
// varint/fixed-width codecs (util/varint.h) and CRC-32C (util/crc32.h)
// that frame the on-disk formats, and are pinned by the golden fixture
// tests/golden/protocol_v7.bin.
//
// Connection preamble: the client sends 5 hello bytes (magic "DDSP" +
// version 0x07); the server validates them and echoes the same 5 bytes.
// After the handshake both directions carry frames:
//
//   len   varint    body length in bytes (capped at 64 MiB)
//   crc   fixed32   CRC-32C of the body bytes
//   body  request or response payload (op byte first)
//
// — the same framing as a WAL record (timeseries/wal.h), so one CRC
// discipline covers every byte the system writes to disk or socket.
//
// This header is a pure codec: no sockets, no threads. Transport lives
// in server/net.h, the daemon in server/server.h.

#ifndef DDSKETCH_SERVER_PROTOCOL_H_
#define DDSKETCH_SERVER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dd {

/// Protocol magic ("DDSP") and version, exchanged in the 5-byte hello.
/// v2 extended the STATS payload with per-shard rows (sharded store);
/// v3 added the BUSY status code (admission control: transient overload,
/// retry after backoff) and five serving counters to the STATS payload;
/// v4 added per-op ack-latency rows (self-instrumentation: the server
/// sketches its own request latencies and STATS reports the
/// percentiles); v5 added the replication channel (SUBSCRIBE/PROMOTE
/// ops, streamed ReplFrames), the FENCED status code, and
/// replication/fencing fields in STATS; v6 added the COMPACT op
/// (explicit rollup-ladder aging), per-level STATS rows, and chunked
/// replication snapshot frames (kSnapshotChunk/kSnapshotEnd, lifting
/// the 64 MiB frame cap off bootstrap snapshot size); v7 added per-tag
/// admission control (the SET_TAG op declaring a connection's tenant
/// tag, a retry_after_ms hint on BUSY ingest/merge refusals, and
/// per-tag STATS rows carrying budgets and ack-latency percentiles).
/// Everything else is unchanged from v1.
inline constexpr char kProtocolMagic[4] = {'D', 'D', 'S', 'P'};
inline constexpr uint8_t kProtocolVersion = 7;
inline constexpr size_t kHelloBytes = sizeof(kProtocolMagic) + 1;

/// Upper bound on one frame body; anything larger is corruption before
/// the CRC is even checked (mirrors the WAL's record cap).
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 26;  // 64 MiB

/// The 5 hello bytes each side sends once at connection start.
std::string EncodeHello();

/// Validates a peer's hello. Fails with Incompatible on a version
/// mismatch and Corruption on anything that is not a hello at all.
Status CheckHello(std::string_view hello);

/// One client request. `op` selects which fields are meaningful.
struct Request {
  enum class Op : uint8_t {
    kIngest = 1,      ///< ingest one raw value into a series
    kMerge = 2,       ///< merge a serialized worker sketch into a series
    kQuery = 3,       ///< quantiles of one series over [start, end)
    kCheckpoint = 4,  ///< snapshot + WAL reset
    kStats = 5,       ///< store/server statistics
    kSubscribe = 6,   ///< v5: become a replication follower of this server
    kPromote = 7,     ///< v5: become primary (bump fencing token, unfence)
    kCompact = 8,     ///< v6: age the rollup ladder now, then checkpoint
    kSetTag = 9,      ///< v7: declare this connection's admission tag
  };

  Op op = Op::kIngest;
  std::string series;              // kIngest, kMerge, kQuery
  int64_t timestamp = 0;           // kIngest, kMerge
  double value = 0;                // kIngest
  std::string payload;             // kMerge: DDSketch wire bytes
  int64_t start = 0;               // kQuery
  int64_t end = 0;                 // kQuery
  std::vector<double> quantiles;   // kQuery

  // kCompact: the caller's clock; the server clamps it to the data
  // horizon, so INT64_MAX means "fold everything eligible by data time".
  int64_t compact_now = 0;

  // kSubscribe: the follower's fencing token and per-shard resume
  // positions (epoch, WAL offset), one per shard it already holds.
  uint64_t repl_token = 0;
  std::vector<std::pair<uint64_t, uint64_t>> positions;

  // kSetTag (v7): the admission tag every later INGEST/MERGE on this
  // connection is charged to. Untagged connections use "default".
  std::string tag;
};

/// One shard's row in the STATS payload. A single-shard server reports
/// exactly one row whose fields equal the aggregate ones.
struct ShardStats {
  uint64_t shard = 0;        ///< shard index (series route: hash % shards)
  uint64_t num_series = 0;   ///< series stored on this shard
  uint64_t wal_bytes = 0;    ///< shard WAL size (13-byte header included)
  uint64_t epoch = 0;        ///< shard WAL generation (+1 per checkpoint)
  uint64_t batch_commits = 0;           ///< this shard's group commits
  uint64_t background_checkpoints = 0;  ///< scheduler-initiated checkpoints
};

/// The server-side latency rows STATS reports (v4). One row per request
/// op, plus a row for ingests/merges refused with BUSY (a rejection is
/// not an ingest: its ack latency is the cost of saying no, and folding
/// it into the INGEST row would make overload look fast).
enum class LatencyOp : uint8_t {
  kIngest = 0,
  kMerge = 1,
  kQuery = 2,
  kCheckpoint = 3,
  kStats = 4,
  kBusy = 5,  ///< BUSY-refused ingests/merges (admission rejections)
};
inline constexpr size_t kNumLatencyOps = 6;

/// Name of a latency row ("INGEST", ..., "BUSY") for display.
std::string_view LatencyOpName(LatencyOp op);

/// One op's ack-latency summary, measured server-side from "request
/// fully framed" to "response queued for write", in microseconds. The
/// percentiles come from a server-wide DDSketch the serving layer keeps
/// per op (relative accuracy 0.01); an empty row reports count = 0 with
/// all percentiles 0.
struct OpLatencyStats {
  uint64_t count = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
};

/// One rollup-ladder level's row in the STATS payload (v6), finest
/// level first. Geometry comes from the store's ladder; the counters
/// aggregate across shards.
struct LevelStatsRow {
  uint64_t interval_seconds = 0;   ///< bucket width at this level
  uint64_t retention_seconds = 0;  ///< 0 = keep forever (last level)
  uint64_t num_intervals = 0;      ///< interval sketches held at this level
  uint64_t rollup_merges = 0;      ///< cumulative sketches folded into it
  uint64_t retained_bytes = 0;     ///< live bytes at this level
};

/// One admission tag's row in the STATS payload (v7). Budgets come from
/// the server's per-tag ledger; the latency percentiles come from the
/// tag's own ack-latency sketch (non-BUSY INGEST/MERGE acks only), the
/// same instrument the throttle controller reads.
struct TagStatsRow {
  std::string tag;                  ///< tag name ("default" for untagged)
  uint64_t floor_bytes = 0;         ///< guaranteed staged-bytes floor
  uint64_t budget_bytes = 0;        ///< floor + currently borrowable share
  uint64_t staged_bytes = 0;        ///< bytes this tag has staged right now
  uint64_t busy_rejections = 0;     ///< records refused with BUSY
  uint64_t throttle_permille = 1000;///< borrowable-share scale (1000 = full)
  uint64_t count = 0;               ///< acked ingest/merge latency samples
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

/// STATS response payload. The scalar fields aggregate across shards
/// (sums, except `epoch` which is the minimum shard epoch); `shards`
/// carries one row per shard. The wire order of every field, and its
/// `remote-stats` name, are listed once in protocol.cc (VisitStats):
/// the codec below and StatsText all walk that list.
struct StoreStats {
  uint64_t num_series = 0;
  uint64_t num_intervals = 0;
  uint64_t size_in_bytes = 0;
  uint64_t wal_offset = 0;  ///< total WAL bytes across shards
  uint64_t epoch = 0;       ///< minimum shard epoch
  uint64_t batch_commits = 0;  ///< group commits since the server started
  uint64_t background_checkpoints = 0;  ///< scheduler checkpoints, all shards

  // v3 serving counters (whole-server, not per shard).
  uint64_t connections_open = 0;      ///< currently established connections
  uint64_t connections_accepted = 0;  ///< accepts since the server started
  uint64_t connections_shed = 0;      ///< closed by deadline/overload policy
  uint64_t busy_rejections = 0;       ///< records refused with BUSY
  uint64_t staged_bytes = 0;          ///< bytes currently staged, all shards

  // v4 self-instrumentation: ack-latency percentiles per op, indexed by
  // LatencyOp, merged across event loops at STATS time.
  std::array<OpLatencyStats, kNumLatencyOps> op_latencies{};

  std::vector<ShardStats> shards;

  // v5 replication + fencing (encoded after the shard rows so v4's
  // field prefix is untouched).
  uint64_t role = 0;                 ///< 0 = primary, 1 = follower
  uint64_t fence_token = 0;          ///< current fencing token
  uint64_t fenced = 0;               ///< 1 when writes are refused with FENCED
                                     ///< (follower, or a fenced ex-primary)
  uint64_t repl_subscribers = 0;     ///< primary: attached followers
  uint64_t repl_shipped_bytes = 0;   ///< primary: WAL bytes shipped
  uint64_t repl_applied_bytes = 0;   ///< follower: WAL bytes applied
  uint64_t repl_connected = 0;       ///< follower: 1 when tailing its primary
  uint64_t repl_heartbeat_age_ms = 0;///< follower: ms since last heartbeat

  // v6 rollup ladder, appended after the v5 fields so their byte
  // prefix is untouched.
  std::vector<LevelStatsRow> levels;

  // v7 per-tag admission rows, appended after the v6 level rows so
  // every earlier version's byte prefix is untouched.
  std::vector<TagStatsRow> tags;
};

/// One server response. Echoes the request's op; `code`/`message` carry
/// the Status outcome, and the op-specific fields are only present when
/// code == kOk — with one v7 exception: a BUSY ingest/merge refusal
/// carries `retry_after_ms`.
struct Response {
  Request::Op op = Request::Op::kIngest;
  StatusCode code = StatusCode::kOk;
  std::string message;             // empty on success

  uint64_t wal_offset = 0;         // kIngest, kMerge: offset after commit
  std::vector<double> values;      // kQuery: one result per requested q
  uint64_t epoch = 0;              // kCheckpoint, kCompact: epoch after reset
  StoreStats stats;                // kStats
  uint64_t repl_token = 0;         // kSubscribe, kPromote: fencing token
  uint64_t repl_shards = 0;        // kSubscribe: primary's shard count
  uint64_t compacted = 0;          // kCompact: interval sketches folded

  // v7: on a BUSY ingest/merge refusal, the refusing tag's suggested
  // wait before retrying, derived from its ledger refill rate. Only on
  // the wire when code == kBusy and op is kIngest/kMerge; 0 = no hint.
  uint64_t retry_after_ms = 0;
};

/// Frames an already-encoded body: len varint + body CRC + body.
std::string EncodeFrame(std::string_view body);

/// Splits one frame off the front of `buffer`. On success returns the
/// body (a view into `buffer`) and sets *frame_size to the bytes
/// consumed. Fails with OutOfRange when the buffer holds only a frame
/// prefix (read more and retry) and Corruption on a CRC mismatch or an
/// implausible length.
Result<std::string_view> DecodeFrame(std::string_view buffer,
                                     size_t* frame_size);

/// Encodes a complete framed request / response, ready to write.
std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

/// Decodes a frame *body* (the output of DecodeFrame). Any malformed,
/// truncated, or trailing bytes fail with Corruption.
Result<Request> DecodeRequest(std::string_view body);
Result<Response> DecodeResponse(std::string_view body);

/// The `remote-stats` text of a STATS payload: one `name value` line
/// per scalar in wire order, then one `kind key name=value ...` line per
/// op-latency, shard, level and tag row. Doubles print as "%.3f", `role`
/// as primary/follower.
std::string StatsText(const StoreStats& stats);

/// Converts a response's code/message pair back into a Status, so client
/// callers see the server-side error exactly as the server produced it.
Status ResponseStatus(const Response& response);

/// One replication-channel frame (v5). After an OK SUBSCRIBE response
/// the connection leaves request/response mode: the primary streams
/// kSnapshot / kSegment / kHeartbeat frames down, and the follower
/// streams kAck (plus, at promotion, kFence) frames up — all in the
/// same CRC framing as every other byte on the wire.
struct ReplFrame {
  enum class Tag : uint8_t {
    kSnapshot = 1,   ///< full shard state: payload is a snapshot image,
                     ///< epoch is the WAL epoch to tail from
    kSegment = 2,    ///< raw WAL record bytes starting at start_offset
    kHeartbeat = 3,  ///< primary liveness: fence token + shard positions
    kAck = 4,        ///< follower's durable (epoch, offset) for one shard
    kFence = 5,      ///< observed fencing token (a promotion upstream)
    // v6 chunked snapshot bootstrap: a large shard snapshot streams as
    // any number of kSnapshotChunk frames (payload pieces, in order)
    // closed by one kSnapshotEnd frame, whose epoch stamps the
    // assembled image — so the 64 MiB frame cap bounds a chunk, not
    // the bootstrapable shard size. Single-frame kSnapshot remains
    // valid (and is still what small snapshots ship as).
    kSnapshotChunk = 6,  ///< one piece of a shard snapshot image
    kSnapshotEnd = 7,    ///< terminator: install the assembled image
  };

  Tag tag = Tag::kSegment;
  uint64_t shard = 0;         // kSnapshot, kSegment, kAck, kSnapshotChunk/End
  uint64_t epoch = 0;         // kSnapshot, kSegment, kAck, kSnapshotEnd
  uint64_t start_offset = 0;  // kSegment
  uint64_t offset = 0;        // kAck: durable WAL offset after apply
  uint64_t token = 0;         // kHeartbeat, kFence
  std::vector<std::pair<uint64_t, uint64_t>> positions;  // kHeartbeat
  std::string payload;        // kSnapshot, kSegment, kSnapshotChunk
};

/// Encodes a complete framed replication frame, ready to write.
std::string EncodeReplFrame(const ReplFrame& frame);

/// Decodes a replication frame *body*. Unknown tags, truncation, or
/// trailing bytes fail with Corruption.
Result<ReplFrame> DecodeReplFrame(std::string_view body);

}  // namespace dd

#endif  // DDSKETCH_SERVER_PROTOCOL_H_
