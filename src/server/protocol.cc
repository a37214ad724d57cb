#include "server/protocol.h"

#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/varint.h"

namespace dd {
namespace {

/// Request ops are a dense range; anything else on the wire is garbage.
bool ValidOp(uint8_t op) {
  return op >= static_cast<uint8_t>(Request::Op::kIngest) &&
         op <= static_cast<uint8_t>(Request::Op::kSetTag);
}

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kFenced);
}

void PutLengthPrefixed(std::string* out, std::string_view bytes) {
  PutVarint64(out, bytes.size());
  out->append(bytes);
}

Status GetLengthPrefixed(Slice* in, std::string* out) {
  uint64_t len = 0;
  DD_RETURN_IF_ERROR(in->GetVarint64(&len));
  if (len > in->remaining()) {
    return Status::Corruption("length-prefixed field overruns frame");
  }
  std::string_view bytes;
  DD_RETURN_IF_ERROR(in->GetBytes(len, &bytes));
  out->assign(bytes);
  return Status::OK();
}

Status GetDoubles(Slice* in, std::vector<double>* out) {
  uint64_t n = 0;
  DD_RETURN_IF_ERROR(in->GetVarint64(&n));
  if (n > in->remaining() / sizeof(double)) {
    return Status::Corruption("double array overruns frame");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    double v = 0;
    DD_RETURN_IF_ERROR(in->GetFixedDouble(&v));
    out->push_back(v);
  }
  return Status::OK();
}

void PutDoubles(std::string* out, const std::vector<double>& values) {
  PutVarint64(out, values.size());
  for (double v : values) PutFixedDouble(out, v);
}

Status CheckDrained(const Slice& in) {
  if (!in.empty()) {
    return Status::Corruption("trailing bytes in protocol frame body");
  }
  return Status::OK();
}

/// (epoch, offset) pairs — SUBSCRIBE resume positions and heartbeat
/// shipping positions share one layout.
void PutPositions(std::string* out,
                  const std::vector<std::pair<uint64_t, uint64_t>>& positions) {
  PutVarint64(out, positions.size());
  for (const auto& [epoch, offset] : positions) {
    PutVarint64(out, epoch);
    PutVarint64(out, offset);
  }
}

Status GetPositions(Slice* in,
                    std::vector<std::pair<uint64_t, uint64_t>>* positions) {
  uint64_t n = 0;
  DD_RETURN_IF_ERROR(in->GetVarint64(&n));
  // Each position is at least 2 varint bytes; a count the frame cannot
  // possibly hold is corruption, not an allocation request.
  if (n > in->remaining() / 2) {
    return Status::Corruption("position list overruns frame");
  }
  positions->clear();
  positions->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t epoch = 0;
    uint64_t offset = 0;
    DD_RETURN_IF_ERROR(in->GetVarint64(&epoch));
    DD_RETURN_IF_ERROR(in->GetVarint64(&offset));
    positions->emplace_back(epoch, offset);
  }
  return Status::OK();
}

// The STATS payload's fields, written down once. VisitStats walks every
// StoreStats field in wire order under its `remote-stats` name: twelve
// scalars, the op-latency and shard rows, eight replication scalars,
// then the level and tag rows (each protocol version appended its
// fields after the last, so earlier byte prefixes never moved).
//
// A visitor provides Field(name, value) for uint64_t (varint), double
// (fixed64) and std::string (length-prefixed) fields, Role(name, value)
// for the role scalar, Key(key) for a row key that is not on the wire,
// and Rows(kind, rows, each_row), which walks each row as
// each_row(r, row, index) with a row visitor r. A row's first item is
// its key. The visitors are StatsEncoder, StatsDecoder, StatsPrinter
// and, for the decoder's overrun guard, MinRowBytes.
template <typename S, typename V>
void VisitStats(S& s, V& v) {
  v.Field("series", s.num_series);
  v.Field("intervals", s.num_intervals);
  v.Field("bytes", s.size_in_bytes);
  v.Field("wal_bytes", s.wal_offset);
  v.Field("epoch", s.epoch);
  v.Field("batch_commits", s.batch_commits);
  v.Field("background_checkpoints", s.background_checkpoints);
  v.Field("connections_open", s.connections_open);
  v.Field("connections_accepted", s.connections_accepted);
  v.Field("connections_shed", s.connections_shed);
  v.Field("busy_rejections", s.busy_rejections);
  v.Field("staged_bytes", s.staged_bytes);
  v.Rows("op_latency", s.op_latencies, [](auto& r, auto& row, size_t i) {
    r.Key(LatencyOpName(static_cast<LatencyOp>(i)));
    r.Field("count", row.count);
    r.Field("p50_us", row.p50_us);
    r.Field("p90_us", row.p90_us);
    r.Field("p99_us", row.p99_us);
    r.Field("p999_us", row.p999_us);
    r.Field("max_us", row.max_us);
  });
  v.Rows("shard", s.shards, [](auto& r, auto& row, size_t) {
    r.Field("shard", row.shard);
    r.Field("series", row.num_series);
    r.Field("wal_bytes", row.wal_bytes);
    r.Field("epoch", row.epoch);
    r.Field("commits", row.batch_commits);
    r.Field("bg_checkpoints", row.background_checkpoints);
  });
  v.Role("role", s.role);
  v.Field("fence_token", s.fence_token);
  v.Field("fenced", s.fenced);
  v.Field("repl_subscribers", s.repl_subscribers);
  v.Field("repl_shipped_bytes", s.repl_shipped_bytes);
  v.Field("repl_applied_bytes", s.repl_applied_bytes);
  v.Field("repl_connected", s.repl_connected);
  v.Field("repl_heartbeat_age_ms", s.repl_heartbeat_age_ms);
  v.Rows("level", s.levels, [](auto& r, auto& row, size_t i) {
    r.Key(i);
    r.Field("interval_s", row.interval_seconds);
    r.Field("retention_s", row.retention_seconds);
    r.Field("intervals", row.num_intervals);
    r.Field("rollup_merges", row.rollup_merges);
    r.Field("bytes", row.retained_bytes);
  });
  v.Rows("tag", s.tags, [](auto& r, auto& row, size_t) {
    r.Field("tag", row.tag);
    r.Field("floor_bytes", row.floor_bytes);
    r.Field("budget_bytes", row.budget_bytes);
    r.Field("staged_bytes", row.staged_bytes);
    r.Field("busy_rejections", row.busy_rejections);
    r.Field("share_permille", row.throttle_permille);
    r.Field("count", row.count);
    r.Field("p50_us", row.p50_us);
    r.Field("p99_us", row.p99_us);
    r.Field("p999_us", row.p999_us);
  });
}

/// Appends each field in its wire encoding; a row list is its count,
/// then its rows.
struct StatsEncoder {
  std::string* out;
  void Field(const char*, uint64_t value) { PutVarint64(out, value); }
  void Field(const char*, double value) { PutFixedDouble(out, value); }
  void Field(const char*, const std::string& value) {
    PutLengthPrefixed(out, value);
  }
  void Role(const char* name, uint64_t value) { Field(name, value); }
  template <typename K>
  void Key(const K&) {}
  template <typename R, typename F>
  void Rows(const char*, const R& rows, F each_row) {
    PutVarint64(out, rows.size());
    for (size_t i = 0; i < rows.size(); ++i) each_row(*this, rows[i], i);
  }
};

/// The fewest wire bytes a row can take: one per varint or length
/// prefix, eight per double.
struct MinRowBytes {
  size_t bytes = 0;
  void Field(const char*, uint64_t) { bytes += 1; }
  void Field(const char*, double) { bytes += sizeof(double); }
  void Field(const char*, const std::string&) { bytes += 1; }
  template <typename K>
  void Key(const K&) {}
};

/// The first failed read sticks; every later read is a no-op.
struct StatsDecoder {
  Slice* in;
  Status status = Status::OK();
  void Field(const char*, uint64_t& value) {
    if (status.ok()) status = in->GetVarint64(&value);
  }
  void Field(const char*, double& value) {
    if (status.ok()) status = in->GetFixedDouble(&value);
  }
  void Field(const char*, std::string& value) {
    if (status.ok()) status = GetLengthPrefixed(in, &value);
  }
  void Role(const char* name, uint64_t& value) { Field(name, value); }
  template <typename K>
  void Key(const K&) {}
  // One row per LatencyOp: any other count means the peer's op set
  // diverged from ours.
  template <typename T, size_t N, typename F>
  void Rows(const char*, std::array<T, N>& rows, F each_row) {
    uint64_t n = 0;
    Field(nullptr, n);
    if (status.ok() && n != N) {
      status = Status::Corruption("unexpected latency row count");
    }
    for (size_t i = 0; i < N; ++i) each_row(*this, rows[i], i);
  }
  template <typename T, typename F>
  void Rows(const char* kind, std::vector<T>& rows, F each_row) {
    uint64_t n = 0;
    Field(nullptr, n);
    // A count the frame cannot possibly hold is corruption, not an
    // allocation request.
    MinRowBytes min;
    T probe;
    each_row(min, probe, 0);
    if (status.ok() && n > in->remaining() / min.bytes) {
      status = Status::Corruption(std::string(kind) + " stats overrun frame");
    }
    if (!status.ok()) return;
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) each_row(*this, rows[i], i);
  }
};

/// Scalars print as `name value` lines while walking; row lines
/// (`kind key name=value ...`) follow after all of them.
class StatsPrinter {
 public:
  void Field(const char* name, uint64_t value) {
    Put(name, std::to_string(value));
  }
  void Field(const char* name, double value) {
    char text[320];  // "%.3f" of -DBL_MAX is 314 characters
    std::snprintf(text, sizeof(text), "%.3f", value);
    Put(name, text);
  }
  void Field(const char* name, const std::string& value) { Put(name, value); }
  void Role(const char* name, uint64_t value) {
    Put(name, value == 1 ? "follower" : "primary");
  }
  void Key(std::string_view key) { Put("", key); }
  void Key(size_t index) { Put("", std::to_string(index)); }
  template <typename R, typename F>
  void Rows(const char* kind, const R& rows, F each_row) {
    for (size_t i = 0; i < rows.size(); ++i) {
      rows_.append(kind);
      in_row_ = at_row_key_ = true;
      each_row(*this, rows[i], i);
      rows_.append("\n");
    }
    in_row_ = false;
  }
  std::string Text() const { return scalars_ + rows_; }

 private:
  void Put(const char* name, std::string_view value) {
    if (!in_row_) {
      scalars_.append(name).append(" ").append(value).append("\n");
      return;
    }
    rows_.append(" ");
    if (!at_row_key_) rows_.append(name).append("=");
    at_row_key_ = false;
    rows_.append(value);
  }

  std::string scalars_;
  std::string rows_;
  bool in_row_ = false;
  bool at_row_key_ = false;
};

}  // namespace

std::string StatsText(const StoreStats& stats) {
  StatsPrinter printer;
  VisitStats(stats, printer);
  return printer.Text();
}

std::string_view LatencyOpName(LatencyOp op) {
  switch (op) {
    case LatencyOp::kIngest:
      return "INGEST";
    case LatencyOp::kMerge:
      return "MERGE";
    case LatencyOp::kQuery:
      return "QUERY";
    case LatencyOp::kCheckpoint:
      return "CHECKPOINT";
    case LatencyOp::kStats:
      return "STATS";
    case LatencyOp::kBusy:
      return "BUSY";
  }
  return "UNKNOWN";
}

std::string EncodeHello() {
  std::string out(kProtocolMagic, sizeof(kProtocolMagic));
  out.push_back(static_cast<char>(kProtocolVersion));
  return out;
}

Status CheckHello(std::string_view hello) {
  if (hello.size() != kHelloBytes ||
      std::memcmp(hello.data(), kProtocolMagic, sizeof(kProtocolMagic)) != 0) {
    return Status::Corruption("bad protocol hello");
  }
  if (static_cast<uint8_t>(hello[sizeof(kProtocolMagic)]) !=
      kProtocolVersion) {
    return Status::Incompatible("unsupported protocol version");
  }
  return Status::OK();
}

std::string EncodeFrame(std::string_view body) {
  std::string framed;
  framed.reserve(body.size() + kMaxVarintBytes + sizeof(uint32_t));
  PutVarint64(&framed, body.size());
  PutFixed32(&framed, Crc32c(body));
  framed.append(body);
  return framed;
}

Result<std::string_view> DecodeFrame(std::string_view buffer,
                                     size_t* frame_size) {
  Slice in(buffer);
  uint64_t body_len = 0;
  if (!in.GetVarint64(&body_len).ok()) {
    // GetVarint64 fails both on truncation (need more bytes) and on a
    // malformed varint (> kMaxVarintBytes or 64-bit overflow). With a
    // full varint's worth of bytes available the length can never
    // become parseable, so reading more would buffer garbage forever.
    if (buffer.size() >= static_cast<size_t>(kMaxVarintBytes)) {
      return Status::Corruption("malformed frame length");
    }
    return Status::OutOfRange("incomplete frame");
  }
  if (body_len > kMaxFrameBytes) {
    return Status::Corruption("frame length implausibly large");
  }
  uint32_t crc = 0;
  std::string_view body;
  if (!in.GetFixed32(&crc).ok() || !in.GetBytes(body_len, &body).ok()) {
    return Status::OutOfRange("incomplete frame");
  }
  if (crc != Crc32c(body)) {
    return Status::Corruption("frame checksum mismatch");
  }
  *frame_size = buffer.size() - in.remaining();
  return body;
}

std::string EncodeRequest(const Request& request) {
  std::string body;
  body.push_back(static_cast<char>(request.op));
  switch (request.op) {
    case Request::Op::kIngest:
      PutLengthPrefixed(&body, request.series);
      PutVarintSigned64(&body, request.timestamp);
      PutFixedDouble(&body, request.value);
      break;
    case Request::Op::kMerge:
      PutLengthPrefixed(&body, request.series);
      PutVarintSigned64(&body, request.timestamp);
      PutLengthPrefixed(&body, request.payload);
      break;
    case Request::Op::kQuery:
      PutLengthPrefixed(&body, request.series);
      PutVarintSigned64(&body, request.start);
      PutVarintSigned64(&body, request.end);
      PutDoubles(&body, request.quantiles);
      break;
    case Request::Op::kSubscribe:
      PutVarint64(&body, request.repl_token);
      PutPositions(&body, request.positions);
      break;
    case Request::Op::kCompact:
      PutVarintSigned64(&body, request.compact_now);
      break;
    case Request::Op::kSetTag:
      PutLengthPrefixed(&body, request.tag);
      break;
    case Request::Op::kCheckpoint:
    case Request::Op::kStats:
    case Request::Op::kPromote:
      break;  // op byte only
  }
  return EncodeFrame(body);
}

Result<Request> DecodeRequest(std::string_view body) {
  Slice in(body);
  std::string_view op_byte;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &op_byte));
  const uint8_t op = static_cast<uint8_t>(op_byte[0]);
  if (!ValidOp(op)) {
    return Status::Corruption("unknown request op");
  }
  Request request;
  request.op = static_cast<Request::Op>(op);
  switch (request.op) {
    case Request::Op::kIngest:
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &request.series));
      DD_RETURN_IF_ERROR(in.GetVarintSigned64(&request.timestamp));
      DD_RETURN_IF_ERROR(in.GetFixedDouble(&request.value));
      break;
    case Request::Op::kMerge:
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &request.series));
      DD_RETURN_IF_ERROR(in.GetVarintSigned64(&request.timestamp));
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &request.payload));
      break;
    case Request::Op::kQuery:
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &request.series));
      DD_RETURN_IF_ERROR(in.GetVarintSigned64(&request.start));
      DD_RETURN_IF_ERROR(in.GetVarintSigned64(&request.end));
      DD_RETURN_IF_ERROR(GetDoubles(&in, &request.quantiles));
      break;
    case Request::Op::kSubscribe:
      DD_RETURN_IF_ERROR(in.GetVarint64(&request.repl_token));
      DD_RETURN_IF_ERROR(GetPositions(&in, &request.positions));
      break;
    case Request::Op::kCompact:
      DD_RETURN_IF_ERROR(in.GetVarintSigned64(&request.compact_now));
      break;
    case Request::Op::kSetTag:
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &request.tag));
      break;
    case Request::Op::kCheckpoint:
    case Request::Op::kStats:
    case Request::Op::kPromote:
      break;
  }
  DD_RETURN_IF_ERROR(CheckDrained(in));
  return request;
}

std::string EncodeResponse(const Response& response) {
  std::string body;
  body.push_back(static_cast<char>(response.op));
  body.push_back(static_cast<char>(response.code));
  PutLengthPrefixed(&body, response.message);
  if (response.code == StatusCode::kOk) {
    switch (response.op) {
      case Request::Op::kIngest:
      case Request::Op::kMerge:
        PutVarint64(&body, response.wal_offset);
        break;
      case Request::Op::kQuery:
        PutDoubles(&body, response.values);
        break;
      case Request::Op::kCheckpoint:
        PutVarint64(&body, response.epoch);
        break;
      case Request::Op::kStats: {
        StatsEncoder encoder{&body};
        VisitStats(response.stats, encoder);
        break;
      }
      case Request::Op::kSubscribe:
        PutVarint64(&body, response.repl_token);
        PutVarint64(&body, response.repl_shards);
        break;
      case Request::Op::kPromote:
        PutVarint64(&body, response.repl_token);
        break;
      case Request::Op::kCompact:
        PutVarint64(&body, response.compacted);
        PutVarint64(&body, response.epoch);
        break;
      case Request::Op::kSetTag:
        break;  // acknowledgement only
    }
  } else if (response.code == StatusCode::kBusy &&
             (response.op == Request::Op::kIngest ||
              response.op == Request::Op::kMerge)) {
    // v7: a BUSY refusal is the one non-OK response with a payload —
    // the refusing tag's suggested retry delay.
    PutVarint64(&body, response.retry_after_ms);
  }
  return EncodeFrame(body);
}

Result<Response> DecodeResponse(std::string_view body) {
  Slice in(body);
  std::string_view head;
  DD_RETURN_IF_ERROR(in.GetBytes(2, &head));
  const uint8_t op = static_cast<uint8_t>(head[0]);
  const uint8_t code = static_cast<uint8_t>(head[1]);
  if (!ValidOp(op)) {
    return Status::Corruption("unknown response op");
  }
  if (!ValidStatusCode(code)) {
    return Status::Corruption("unknown response status code");
  }
  Response response;
  response.op = static_cast<Request::Op>(op);
  response.code = static_cast<StatusCode>(code);
  DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &response.message));
  if (response.code == StatusCode::kOk) {
    switch (response.op) {
      case Request::Op::kIngest:
      case Request::Op::kMerge:
        DD_RETURN_IF_ERROR(in.GetVarint64(&response.wal_offset));
        break;
      case Request::Op::kQuery:
        DD_RETURN_IF_ERROR(GetDoubles(&in, &response.values));
        break;
      case Request::Op::kCheckpoint:
        DD_RETURN_IF_ERROR(in.GetVarint64(&response.epoch));
        break;
      case Request::Op::kStats: {
        StatsDecoder decoder{&in};
        VisitStats(response.stats, decoder);
        DD_RETURN_IF_ERROR(decoder.status);
        break;
      }
      case Request::Op::kSubscribe:
        DD_RETURN_IF_ERROR(in.GetVarint64(&response.repl_token));
        DD_RETURN_IF_ERROR(in.GetVarint64(&response.repl_shards));
        break;
      case Request::Op::kPromote:
        DD_RETURN_IF_ERROR(in.GetVarint64(&response.repl_token));
        break;
      case Request::Op::kCompact:
        DD_RETURN_IF_ERROR(in.GetVarint64(&response.compacted));
        DD_RETURN_IF_ERROR(in.GetVarint64(&response.epoch));
        break;
      case Request::Op::kSetTag:
        break;  // acknowledgement only
    }
  } else if (response.code == StatusCode::kBusy &&
             (response.op == Request::Op::kIngest ||
              response.op == Request::Op::kMerge)) {
    DD_RETURN_IF_ERROR(in.GetVarint64(&response.retry_after_ms));
  }
  DD_RETURN_IF_ERROR(CheckDrained(in));
  return response;
}

Status ResponseStatus(const Response& response) {
  if (response.code == StatusCode::kOk) return Status::OK();
  return Status(response.code, response.message);
}

std::string EncodeReplFrame(const ReplFrame& frame) {
  std::string body;
  body.push_back(static_cast<char>(frame.tag));
  switch (frame.tag) {
    case ReplFrame::Tag::kSnapshot:
      PutVarint64(&body, frame.shard);
      PutVarint64(&body, frame.epoch);
      PutLengthPrefixed(&body, frame.payload);
      break;
    case ReplFrame::Tag::kSegment:
      PutVarint64(&body, frame.shard);
      PutVarint64(&body, frame.epoch);
      PutVarint64(&body, frame.start_offset);
      PutLengthPrefixed(&body, frame.payload);
      break;
    case ReplFrame::Tag::kHeartbeat:
      PutVarint64(&body, frame.token);
      PutPositions(&body, frame.positions);
      break;
    case ReplFrame::Tag::kAck:
      PutVarint64(&body, frame.shard);
      PutVarint64(&body, frame.epoch);
      PutVarint64(&body, frame.offset);
      break;
    case ReplFrame::Tag::kFence:
      PutVarint64(&body, frame.token);
      break;
    case ReplFrame::Tag::kSnapshotChunk:
      PutVarint64(&body, frame.shard);
      PutLengthPrefixed(&body, frame.payload);
      break;
    case ReplFrame::Tag::kSnapshotEnd:
      PutVarint64(&body, frame.shard);
      PutVarint64(&body, frame.epoch);
      break;
  }
  return EncodeFrame(body);
}

Result<ReplFrame> DecodeReplFrame(std::string_view body) {
  Slice in(body);
  std::string_view tag_byte;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &tag_byte));
  const uint8_t tag = static_cast<uint8_t>(tag_byte[0]);
  if (tag < static_cast<uint8_t>(ReplFrame::Tag::kSnapshot) ||
      tag > static_cast<uint8_t>(ReplFrame::Tag::kSnapshotEnd)) {
    return Status::Corruption("unknown replication frame tag");
  }
  ReplFrame frame;
  frame.tag = static_cast<ReplFrame::Tag>(tag);
  switch (frame.tag) {
    case ReplFrame::Tag::kSnapshot:
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.shard));
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.epoch));
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &frame.payload));
      break;
    case ReplFrame::Tag::kSegment:
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.shard));
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.epoch));
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.start_offset));
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &frame.payload));
      break;
    case ReplFrame::Tag::kHeartbeat:
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.token));
      DD_RETURN_IF_ERROR(GetPositions(&in, &frame.positions));
      break;
    case ReplFrame::Tag::kAck:
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.shard));
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.epoch));
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.offset));
      break;
    case ReplFrame::Tag::kFence:
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.token));
      break;
    case ReplFrame::Tag::kSnapshotChunk:
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.shard));
      DD_RETURN_IF_ERROR(GetLengthPrefixed(&in, &frame.payload));
      break;
    case ReplFrame::Tag::kSnapshotEnd:
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.shard));
      DD_RETURN_IF_ERROR(in.GetVarint64(&frame.epoch));
      break;
  }
  DD_RETURN_IF_ERROR(CheckDrained(in));
  return frame;
}

}  // namespace dd
