// Write-ahead interval log for the durable sketch store.
//
// File layout (multi-byte integers are LEB128 varints from util/varint;
// CRCs are little-endian fixed32 CRC-32C from util/crc32):
//
//   header (13 bytes, fixed-size so a torn header write is
//   distinguishable from bit rot by length alone):
//     magic     4 bytes  "DDWL"
//     version   1 byte   0x01
//     epoch     fixed32  checkpoint generation this log belongs to
//     crc       fixed32  CRC-32C of the preceding header bytes
//   record (repeated until EOF): one util/frame.h frame (len varint +
//   CRC-32C of the body + body), encoded and decoded by that module —
//   the same frame, from the same code, as a sketchd socket frame.
//     body:
//       type    1 byte   1 = serialized-sketch ingest, 2 = single value,
//                        3 = values of one series at one timestamp
//       series  varint length + bytes
//       ts      signed varint (zigzag)
//       type 1: payload  varint length + bytes (DDSketch wire format,
//               core/serialization.cc)
//       type 2: value    fixed64 little-endian double
//       type 3: count    varint, at least 1
//               values   count x fixed64 little-endian double, in
//                        arrival order
//   A type-3 record is a sketchd unit: consecutive pipelined INGEST
//   frames of one series at one timestamp. Replay adds the values of
//   consecutive value records in one raw interval with one
//   DDSketch::AddBatch, which gives the bytes that adding them one
//   record at a time gives. Type 1 is every MERGE; type 2 is still
//   written by the durable store's IngestValue, benches and tests, and
//   a log may mix all three. A reader without type 3 refuses it as
//   Corruption ("unknown WAL record type").
//
// Recovery semantics: a record whose frame runs past EOF (DecodeFrame
// reports it incomplete) is a torn tail (the process died mid-append) —
// replay stops at the last complete record and the tail is truncated
// away. Whatever DecodeFrame calls Corruption — a CRC mismatch, a length
// above 64 MiB, a length varint that does not end within kMaxVarintBytes
// (10) bytes (a crash can only cut a varint short, which leaves fewer) —
// fails with Corruption, and so does an undecodable body. The strict
// mode used by validation and fuzz tests treats every anomaly, including
// a torn tail, as Corruption.
//
// The epoch ties a log to its snapshot (timeseries/snapshot.h): a
// checkpoint writes a snapshot carrying the log's epoch, then resets the
// log to epoch + 1. See durable_store.cc for the recovery protocol.

#ifndef DDSKETCH_TIMESERIES_WAL_H_
#define DDSKETCH_TIMESERIES_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/file_io.h"
#include "util/status.h"

namespace dd {

/// Size of the fixed WAL header (magic + version + fixed32 epoch +
/// fixed32 crc). A log whose size equals this holds no records — the
/// checkpoint scheduler uses that to skip shards with nothing to fold.
inline constexpr uint64_t kWalHeaderBytes = 13;

/// One logged ingest.
struct WalRecord {
  enum class Type : uint8_t {
    kIngestSketch = 1,  ///< a serialized worker sketch
    kIngestValue = 2,   ///< a single raw value
    kIngestValues = 3,  ///< raw values of one series at one timestamp
  };

  Type type = Type::kIngestSketch;
  std::string series;
  int64_t timestamp = 0;
  std::string payload;  ///< DDSketch wire bytes (kIngestSketch only)
  double value = 0;     ///< kIngestValue only
  std::vector<double> values;  ///< kIngestValues only, never empty
};

/// Encodes the file header for a log of generation `epoch` (the header
/// stores epochs as fixed32; WalWriter rejects larger values).
std::string EncodeWalHeader(uint32_t epoch);

/// Encodes one framed record (len + crc + body).
std::string EncodeWalRecord(const WalRecord& record);

/// Outcome of scanning a whole log image.
struct WalContents {
  uint64_t epoch = 0;
  std::vector<WalRecord> records;
  /// Offset one past the last complete record; bytes beyond this are a
  /// torn tail (tolerant mode only — strict mode never reports one).
  uint64_t valid_size = 0;
  bool torn_tail = false;
  /// False when the file ends inside the header itself (a crash during
  /// log creation, before any record could have been acknowledged);
  /// tolerant mode only. epoch/records are meaningless when false.
  bool header_valid = true;
};

/// How ReadWal treats a frame that runs past EOF.
enum class WalRead {
  kTolerateTornTail,  ///< recovery: stop at the last complete record
  kStrict,            ///< validation/fuzz: any anomaly is Corruption
};

/// Parses an entire log image. CRC mismatches and undecodable bodies are
/// always Corruption; see WalRead for the torn-tail policy.
Result<WalContents> ReadWal(std::string_view file_bytes, WalRead mode);

/// ReadWal over a file on disk.
Result<WalContents> ReadWalFile(const std::string& path, WalRead mode);

/// Parses a headerless run of framed records — the payload of a
/// replication WAL-SEGMENT frame, which ships raw log bytes from some
/// record boundary onward (server/replication.h). Strict: segments are
/// CRC-protected end to end by the network frame, so any anomaly
/// (truncated frame, bad record CRC, undecodable body) is Corruption.
/// Shares ReadWal's record loop.
Result<std::vector<WalRecord>> DecodeWalSegment(std::string_view bytes);

/// Appends framed records to a log file. Creation writes the header
/// durably; each Append pushes the record to the OS (process-crash safe)
/// and Sync() makes it power-loss safe.
class WalWriter {
 public:
  /// Creates or truncates `path` as an empty epoch-`epoch` log.
  static Result<WalWriter> Create(const std::string& path, uint64_t epoch);

  /// Opens an existing log for appending at `size` (the valid prefix
  /// established by ReadWal; any torn tail beyond it is truncated away).
  static Result<WalWriter> OpenExisting(const std::string& path,
                                        uint64_t epoch, uint64_t size);

  Status Append(const WalRecord& record);

  /// Appends already-framed record bytes verbatim, in one write (a group
  /// commit's frames, or a replicated WAL segment). The caller must have
  /// validated the records first — the log must only ever contain
  /// records that replay cleanly.
  Status AppendRaw(std::string_view framed_records);

  /// fsync. Call after Append (or a batch) for power-loss durability.
  Status Sync();

  /// Empties the log and starts generation `epoch` (post-checkpoint).
  Status Reset(uint64_t epoch);

  /// Truncates back to `offset` (a record boundary captured from
  /// offset() before an append). Repairs the log after a failed
  /// append so later appends cannot land behind a torn frame, where
  /// recovery's torn-tail scan would discard them.
  Status TruncateTo(uint64_t offset);

  /// Current file size; record boundaries (offset after each Append) are
  /// the crash-consistent recovery points.
  uint64_t offset() const noexcept { return file_.size(); }

  uint64_t epoch() const noexcept { return epoch_; }

 private:
  WalWriter(AppendOnlyFile file, uint64_t epoch)
      : file_(std::move(file)), epoch_(epoch) {}

  AppendOnlyFile file_;
  uint64_t epoch_;
};

}  // namespace dd

#endif  // DDSKETCH_TIMESERIES_WAL_H_
