#include "timeseries/durable_store.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "core/ddsketch.h"
#include "timeseries/snapshot.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/frame.h"

namespace dd {
namespace {

/// The options under which a directory was written must match the options
/// it is reopened with: silently adopting either side would change query
/// semantics (time geometry) or break merges (sketch parameters). The
/// one sanctioned exception: an empty requested ladder means "adopt the
/// directory's ladder" (mirroring shards = 0 auto-detection), so v1
/// directories — whose geometry maps onto a two-level ladder — and
/// default-flag restarts open in place.
Status CheckOptionsMatch(const SketchStoreOptions& snapshot,
                         const SketchStoreOptions& requested) {
  if (!requested.levels.empty() && snapshot.levels != requested.levels) {
    return Status::Incompatible(
        "data directory was written with a different rollup ladder");
  }
  if (snapshot.sketch.relative_accuracy != requested.sketch.relative_accuracy ||
      snapshot.sketch.mapping != requested.sketch.mapping ||
      snapshot.sketch.store != requested.sketch.store ||
      snapshot.sketch.max_num_buckets != requested.sketch.max_num_buckets) {
    return Status::Incompatible(
        "data directory was written with different store options");
  }
  return Status::OK();
}

/// Recovery checks and merges the WAL this many records at a time, so
/// a large log never holds all of its built merge images at once.
constexpr size_t kReplaySliceRecords = 1024;

/// Checks a sketch record for a merge into `store`, building nothing:
/// its timestamp, then its payload (SketchStore::CheckPayload).
Status CheckSketchRecord(const SketchStore& store, const WalRecord& record,
                         DDSketch::SerializedView* view) {
  DD_RETURN_IF_ERROR(SketchStore::CheckTimestamp(record.timestamp));
  return store.CheckPayload(record.payload, view);
}

/// Checks a raw-value record (type 2 or 3) for a merge: its timestamp
/// is in bounds, and a type-3 record holds at least one value (a count
/// of 0 would encode a record that replay refuses).
Status CheckValueRecord(const WalRecord& record) {
  if (record.type == WalRecord::Type::kIngestValues &&
      record.values.empty()) {
    return Status::InvalidArgument("value record holds no values");
  }
  return SketchStore::CheckTimestamp(record.timestamp);
}

/// The values a raw-value record adds, in order.
std::span<const double> ValuesOf(const WalRecord& record) {
  if (record.type == WalRecord::Type::kIngestValues) return record.values;
  return {&record.value, 1};
}

/// DecodeRecords' output: the frozen image each sketch record merges,
/// in record order.
struct MergeImages {
  /// A view into the record's payload, or into `built`.
  std::vector<std::string_view> images;
  /// The images built for payloads that are not canonical for the store.
  /// Reserved to the batch's size before the first one, so the views
  /// into them stay valid.
  std::vector<std::string> built;
};

/// The one decode: validates every record for a merge into `store` and
/// finds each sketch record's image (SketchStore::MergeImageOf), so a
/// canonical payload is walked once here and never decoded into a
/// sketch. Runs before anything reaches the log, so the WAL only ever
/// holds records that replay cleanly.
Status DecodeRecords(const SketchStore& store,
                     std::span<const WalRecord> records,
                     MergeImages* out) {
  out->images.clear();
  out->built.clear();
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalRecord::Type::kIngestSketch: {
        DDSketch::SerializedView view;
        DD_RETURN_IF_ERROR(CheckSketchRecord(store, record, &view));
        std::string built;
        std::string_view image =
            store.MergeImageOf(record.payload, view, &built);
        if (!built.empty()) {
          if (out->built.empty()) out->built.reserve(records.size());
          image = out->built.emplace_back(std::move(built));
        }
        out->images.push_back(image);
        break;
      }
      case WalRecord::Type::kIngestValue:
      case WalRecord::Type::kIngestValues:
        DD_RETURN_IF_ERROR(CheckValueRecord(record));
        break;
      default:
        return Status::Corruption("unknown WAL record type");
    }
  }
  return Status::OK();
}

/// The one merge, shared by the committer, the follower and recovery:
/// `images` are DecodeRecords' output for `records`, each merged by
/// SketchStore::IngestImage. Runs of
/// consecutive value records (type 2 or 3) sharing a series and raw
/// interval collapse into one IngestValues call — one interval lookup
/// and one DDSketch::AddBatch pass instead of a lookup and an add per
/// record. Each interval sketch sees its values and merges in record
/// order, and AddBatch sums in input order, so the merged state is
/// bit-identical however the values were cut into records and the
/// records into batches.
Status MergeRecords(SketchStore* store, std::span<const WalRecord> records,
                    std::span<const std::string_view> images) {
  std::vector<double> run_values;
  size_t next_image = 0;
  for (size_t i = 0; i < records.size();) {
    const WalRecord& record = records[i];
    if (record.type == WalRecord::Type::kIngestSketch) {
      DD_RETURN_IF_ERROR(store->IngestImage(record.series, record.timestamp,
                                            images[next_image++]));
      ++i;
      continue;
    }
    const int64_t interval = store->RawStart(record.timestamp);
    run_values.clear();
    size_t j = i;
    for (; j < records.size(); ++j) {
      const WalRecord& next = records[j];
      if (next.type == WalRecord::Type::kIngestSketch ||
          next.series != record.series ||
          store->RawStart(next.timestamp) != interval) {
        break;
      }
      const std::span<const double> values = ValuesOf(next);
      run_values.insert(run_values.end(), values.begin(), values.end());
    }
    DD_RETURN_IF_ERROR(
        store->IngestValues(record.series, record.timestamp, run_values));
    i = j;
  }
  return Status::OK();
}

/// The token every directory starts at; the first promotion moves to 2.
constexpr uint64_t kInitialFenceToken = 1;

/// The LOCK file's two fields, one per line.
std::string FenceFields(uint64_t token, bool fenced) {
  return "fence=" + std::to_string(token) + "\nfenced=" +
         (fenced ? "1" : "0") + "\n";
}

/// The fields, then a line with their CRC-32C in 8 hex digits. The LOCK
/// is rewritten in place, so a torn rewrite can leave the new token over
/// the old file's tail; the CRC line turns that into Corruption instead
/// of a valid-looking state.
std::string EncodeFenceState(uint64_t token, bool fenced) {
  const std::string fields = FenceFields(token, fenced);
  char crc[10];
  std::snprintf(crc, sizeof(crc), "%08x\n", Crc32c(fields));
  return fields + crc;
}

/// An empty lock file (pre-replication directories) parses as the
/// defaults; anything else must be the exact EncodeFenceState layout, or
/// its two fields alone as written before the CRC line (*legacy is then
/// set, and Open rewrites the file).
Status ParseFenceState(const std::string& contents, uint64_t* token,
                       bool* fenced, bool* legacy) {
  *token = kInitialFenceToken;
  *fenced = false;
  *legacy = false;
  if (contents.empty()) return Status::OK();
  uint64_t t = 0;
  int f = -1;
  if (std::sscanf(contents.c_str(), "fence=%" SCNu64 "\nfenced=%d", &t, &f) !=
          2 ||
      t == 0 || (f != 0 && f != 1)) {
    return Status::Corruption("unparseable fencing state in LOCK file");
  }
  if (contents == FenceFields(t, f == 1)) {
    *legacy = true;
  } else if (contents != EncodeFenceState(t, f == 1)) {
    return Status::Corruption(
        "LOCK file fencing state fails its checksum (torn rewrite?)");
  }
  *token = t;
  *fenced = f == 1;
  return Status::OK();
}

/// pread a byte range of `path`; short only at EOF.
Result<std::string> PreadRange(const std::string& path, uint64_t offset,
                               uint64_t len) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  out.resize(len);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, &out[got], len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::Internal("pread " + path + ": " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

}  // namespace

Result<DurableSketchStore> DurableSketchStore::Open(
    const std::string& data_dir, const DurableSketchStoreOptions& options) {
  DD_RETURN_IF_ERROR(CreateDirIfMissing(data_dir));
  auto lock = FileLock::Acquire(LockPath(data_dir));
  if (!lock.ok()) return lock.status();
  const std::string wal_path = WalPath(data_dir);
  const std::string snapshot_path = SnapshotPath(data_dir);

  // Fencing state rides in the lock file; a pre-replication (empty) lock
  // file is stamped with the defaults so the token is always durable, and
  // one written before the CRC line is rewritten with it.
  uint64_t fence_token = kInitialFenceToken;
  bool fenced = false;
  {
    auto contents = lock.value().Read();
    if (!contents.ok()) return contents.status();
    bool legacy = false;
    DD_RETURN_IF_ERROR(ParseFenceState(contents.value(), &fence_token,
                                       &fenced, &legacy));
    if (contents.value().empty() || legacy) {
      DD_RETURN_IF_ERROR(
          lock.value().Write(EncodeFenceState(fence_token, fenced)));
    }
  }
  const auto finish = [&](SketchStore store,
                          WalWriter writer) -> DurableSketchStore {
    DurableSketchStore opened(options, data_dir, std::move(lock).value(),
                              std::move(store), std::move(writer));
    opened.role_ = options.role;
    opened.fence_token_ = fence_token;
    opened.fenced_ = fenced;
    return opened;
  };

  // Base state. A fresh directory gets an empty epoch-0 snapshot first,
  // pinning the store options on disk so every later Open — including
  // one that finds only a WAL — can verify them instead of silently
  // adopting whatever it was called with.
  uint64_t snapshot_epoch = 0;
  auto base = [&]() -> Result<SketchStore> {
    if (!FileExists(snapshot_path)) {
      auto fresh = SketchStore::Create(options.store);
      if (!fresh.ok()) return fresh.status();
      DD_RETURN_IF_ERROR(
          WriteSnapshotFile(fresh.value(), /*epoch=*/0, snapshot_path));
      return fresh;
    }
    auto snapshot = ReadSnapshotFile(snapshot_path);
    if (!snapshot.ok()) return snapshot.status();
    DD_RETURN_IF_ERROR(
        CheckOptionsMatch(snapshot.value().store.options(), options.store));
    snapshot_epoch = snapshot.value().epoch;
    return std::move(snapshot).value().store;
  }();
  if (!base.ok()) return base.status();
  SketchStore store = std::move(base).value();

  // Incremental state: replay the WAL onto the base.
  if (FileExists(wal_path)) {
    auto scanned = ReadWalFile(wal_path, WalRead::kTolerateTornTail);
    if (!scanned.ok()) return scanned.status();
    const WalContents& wal = scanned.value();
    if (!wal.header_valid || wal.epoch == snapshot_epoch) {
      // Either a crash during log creation (nothing was ever
      // acknowledged) or one between snapshot rename and WAL reset (the
      // log's records are already folded into the snapshot). Both
      // finish the same way: a fresh log on the next epoch.
      auto writer = WalWriter::Create(wal_path, snapshot_epoch + 1);
      if (!writer.ok()) return writer.status();
      return finish(std::move(store), std::move(writer).value());
    }
    if (wal.epoch != snapshot_epoch + 1) {
      return Status::Corruption(
          "WAL epoch does not match the snapshot (mixed data directories?)");
    }
    std::span<const WalRecord> rest(wal.records);
    MergeImages images;
    while (!rest.empty()) {
      const auto slice = rest.first(std::min(rest.size(), kReplaySliceRecords));
      DD_RETURN_IF_ERROR(DecodeRecords(store, slice, &images));
      DD_RETURN_IF_ERROR(MergeRecords(&store, slice, images.images));
      rest = rest.subspan(slice.size());
    }
    auto writer = WalWriter::OpenExisting(wal_path, wal.epoch, wal.valid_size);
    if (!writer.ok()) return writer.status();
    return finish(std::move(store), std::move(writer).value());
  }

  auto writer = WalWriter::Create(wal_path, snapshot_epoch + 1);
  if (!writer.ok()) return writer.status();
  return finish(std::move(store), std::move(writer).value());
}

Status DurableSketchStore::Ingest(const std::string& series, int64_t timestamp,
                                  std::string_view payload) {
  std::vector<WalRecord> batch(1);
  batch[0].type = WalRecord::Type::kIngestSketch;
  batch[0].series = series;
  batch[0].timestamp = timestamp;
  batch[0].payload.assign(payload);
  return IngestBatch(batch);
}

Status DurableSketchStore::IngestValue(const std::string& series,
                                       int64_t timestamp, double value) {
  std::vector<WalRecord> batch(1);
  batch[0].type = WalRecord::Type::kIngestValue;
  batch[0].series = series;
  batch[0].timestamp = timestamp;
  batch[0].value = value;
  return IngestBatch(batch);
}

Status DurableSketchStore::ValidateRecord(const WalRecord& record) const {
  switch (record.type) {
    case WalRecord::Type::kIngestSketch: {
      DDSketch::SerializedView view;
      return CheckSketchRecord(store_, record, &view);
    }
    case WalRecord::Type::kIngestValue:
    case WalRecord::Type::kIngestValues:
      return CheckValueRecord(record);
  }
  return Status::Corruption("unknown WAL record type");
}

Status DurableSketchStore::IngestBatch(const std::vector<WalRecord>& records) {
  DD_RETURN_IF_ERROR(CheckWritable());
  std::string framed;
  for (const WalRecord& record : records) framed += EncodeWalRecord(record);
  return Commit(records, framed);
}

Status DurableSketchStore::Commit(std::span<const WalRecord> records,
                                  std::string_view framed) {
  if (!failure_.ok()) return failure_;
  MergeImages images;
  DD_RETURN_IF_ERROR(DecodeRecords(store_, records, &images));
  const uint64_t start = wal_.offset();
  if (Status appended = wal_.AppendRaw(framed); !appended.ok()) {
    // A partial append (e.g. ENOSPC or EFBIG mid-record) leaves a torn
    // frame in the middle of the log; anything appended after it would
    // be silently dropped by recovery's torn-tail scan. Truncate back to
    // where this commit started so the next one can retry; if even that
    // fails, the log must take no more records.
    if (Status repair = wal_.TruncateTo(start); !repair.ok()) {
      return Fail("WAL left torn by a failed append (" +
                      appended.message() + "); truncating it back failed",
                  repair);
    }
    return appended;
  }
  if (Status synced = wal_.Sync(); !synced.ok()) {
    // After a failed fsync the kernel may have dropped the dirty pages,
    // and a retried fsync can report success for them: no later record
    // may be acknowledged. The batch is cut back off, as it is refused.
    (void)wal_.TruncateTo(start);
    return Fail("WAL fsync failed", synced);
  }
  return MergeRecords(&store_, records, images.images);
}

Status DurableSketchStore::CheckpointUnguarded() {
  // Rollup happens here and ONLY here — at an epoch boundary, before
  // the state is snapshotted. Compact(INT64_MAX) saturates to the data
  // horizon, so the fold is a pure function of the stored multiset:
  //  * crash safety — the fold mutates memory only; until the snapshot
  //    rename lands, recovery is old snapshot + full raw WAL replay,
  //    and the next checkpoint re-folds to the identical state;
  //  * replication — a follower crossing this epoch boundary runs its
  //    own CheckpointUnguarded with bit-identical raw state (it has
  //    replayed the full epoch), so it folds to bit-identical levels.
  // Once the snapshot's rename lands it carries the WAL's own epoch,
  // whose records recovery discards as folded: from then on a record
  // logged before the reset completes could be lost.
  if (!failure_.ok()) return failure_;
  store_.Compact(std::numeric_limits<int64_t>::max());
  const uint64_t epoch = wal_.epoch();
  const uint64_t end_offset = wal_.offset();
  bool renamed = false;
  if (Status written = WriteSnapshotFile(store_, epoch,
                                         SnapshotPath(data_dir_), &renamed);
      !written.ok()) {
    if (!renamed) return written;
    return Fail("snapshot renamed but its directory fsync failed", written);
  }
  if (Status reset = wal_.Reset(epoch + 1); !reset.ok()) {
    return Fail("WAL reset failed after the checkpoint's snapshot was written",
                reset);
  }
  prior_epoch_end_ = end_offset;
  return Status::OK();
}

Status DurableSketchStore::Fail(const std::string& step, const Status& cause) {
  failure_ = Status::Internal(step + ": " + cause.message() +
                              "; writes are refused until the store reopens");
  return failure_;
}

Status DurableSketchStore::Checkpoint() {
  DD_RETURN_IF_ERROR(CheckWritable());
  return CheckpointUnguarded();
}

Result<size_t> DurableSketchStore::Compact(int64_t now) {
  DD_RETURN_IF_ERROR(CheckWritable());
  // The explicit fold honours the caller's clock (clamped to the data
  // horizon inside SketchStore::Compact); the checkpoint that persists
  // it then folds anything still eligible by data time.
  const size_t compacted = store_.Compact(now);
  DD_RETURN_IF_ERROR(CheckpointUnguarded());
  return compacted;
}

Status DurableSketchStore::CheckWritable() const {
  if (!failure_.ok()) return failure_;
  if (role_ == StoreRole::kFollower) {
    return Status::Fenced(
        "store is a follower (applier mode); writes must go to the primary");
  }
  if (fenced_) {
    return Status::Fenced("writer fenced: a newer primary holds fencing "
                          "token " +
                          std::to_string(fence_token_));
  }
  return Status::OK();
}

Status DurableSketchStore::Fence(uint64_t observed_token) {
  if (fenced_ && observed_token <= fence_token_ && !fence_pending_) {
    return Status::OK();
  }
  // Refuse writes in memory first: if the LOCK write fails, this
  // process still stays fenced, and the fence stays pending until a
  // later call writes it.
  fence_token_ = std::max(fence_token_, observed_token);
  fenced_ = true;
  const Status written = lock_.Write(EncodeFenceState(fence_token_, fenced_));
  fence_pending_ = !written.ok();
  return written;
}

Status DurableSketchStore::AdoptFenceToken(uint64_t token) {
  if (token <= fence_token_) return Status::OK();
  DD_RETURN_IF_ERROR(lock_.Write(EncodeFenceState(token, fenced_)));
  fence_token_ = token;
  fence_pending_ = false;  // the LOCK now holds the whole in-memory state
  return Status::OK();
}

Result<uint64_t> DurableSketchStore::Promote() {
  // Memory changes only after every durable step has landed: a failed
  // promotion leaves the store exactly as writable (or not) as before,
  // and a retry asks for the same token.
  const uint64_t token = fence_token_ + 1;
  DD_RETURN_IF_ERROR(lock_.Write(EncodeFenceState(token, /*fenced=*/false)));
  // Start the new lineage in a fresh WAL epoch before the first write
  // lands: a deposed primary's resume position (same epoch, offset at
  // or below ours) would otherwise pass the shipper's tail check even
  // though its log may end in a divergent, never-replicated suffix.
  // With the epoch bumped, every old-lineage position mismatches and
  // takes the snapshot path, which discards that suffix.
  DD_RETURN_IF_ERROR(CheckpointUnguarded());
  prior_epoch_end_ = 0;  // lineage break: never roll across a promotion
  fence_token_ = token;
  fenced_ = false;
  fence_pending_ = false;
  role_ = StoreRole::kPrimary;
  return token;
}

std::string DurableSketchStore::EncodeReplicationSnapshot() const {
  return EncodeSnapshot(store_, wal_.epoch() - 1);
}

Result<std::string> DurableSketchStore::ReadWalChunk(
    uint64_t from_offset, uint64_t max_bytes) const {
  const uint64_t end = wal_.offset();
  if (from_offset < kWalHeaderBytes || from_offset > end) {
    return Status::InvalidArgument(
        "WAL chunk start is not a valid record boundary");
  }
  if (from_offset == end) return std::string();
  // A frame header (len varint + crc) is at most 14 bytes; always read
  // enough to at least parse the first frame's length.
  uint64_t want = std::min<uint64_t>(std::max<uint64_t>(max_bytes, 64),
                                     end - from_offset);
  for (;;) {
    auto chunk = PreadRange(WalPath(data_dir_), from_offset, want);
    if (!chunk.ok()) return chunk.status();
    if (chunk.value().size() < want) {
      return Status::Internal("WAL shrank during replication read");
    }
    // Trim to the last whole record frame, checking each frame's CRC on
    // the way: a corrupt record is never shipped.
    size_t valid = 0;
    size_t frame_size = 0;
    for (;;) {
      auto body = DecodeFrame(
          std::string_view(chunk.value()).substr(valid), &frame_size);
      if (!body.ok()) {
        if (body.status().code() != StatusCode::kOutOfRange) {
          return body.status();
        }
        break;
      }
      valid += frame_size;
    }
    if (valid > 0) {
      chunk.value().resize(valid);
      return chunk;
    }
    // The first record is longer than `want`. Every byte below
    // wal_offset() belongs to a complete record, and DecodeFrame
    // reported this one's whole size: read it whole.
    if (frame_size <= want || from_offset + frame_size > end) {
      return Status::Internal("WAL byte range does not parse as records");
    }
    want = frame_size;
  }
}

Status DurableSketchStore::InstallReplicatedSnapshot(
    std::string_view snapshot_bytes, uint64_t wal_epoch) {
  if (role_ != StoreRole::kFollower) {
    return Status::Internal("InstallReplicatedSnapshot on a primary store");
  }
  if (!failure_.ok()) return failure_;
  auto decoded = DecodeSnapshot(snapshot_bytes);
  if (!decoded.ok()) return decoded.status();
  DD_RETURN_IF_ERROR(
      CheckOptionsMatch(decoded.value().store.options(), options_.store));
  if (decoded.value().epoch + 1 != wal_epoch) {
    return Status::Corruption(
        "replicated snapshot epoch does not precede its WAL epoch");
  }
  // Remove the WAL before replacing the snapshot: a crash between the
  // two steps reopens as "snapshot only" (old or new state, both
  // valid), never as a snapshot/WAL epoch mismatch. From the removal on
  // the writer's log is gone, so a failure can only be repaired by
  // reopening.
  DD_RETURN_IF_ERROR(RemoveFileIfExists(WalPath(data_dir_)));
  const std::string step =
      "replicated snapshot install failed after removing the WAL";
  const std::string snapshot_path = SnapshotPath(data_dir_);
  if (Status written = ReplaceFile(snapshot_path + ".tmp", snapshot_path,
                                   snapshot_bytes);
      !written.ok()) {
    return Fail(step, written);
  }
  auto writer = WalWriter::Create(WalPath(data_dir_), wal_epoch);
  if (!writer.ok()) return Fail(step, writer.status());
  wal_ = std::move(writer).value();
  store_ = std::move(decoded).value().store;
  prior_epoch_end_ = 0;  // the new WAL has no local prior-epoch history
  return Status::OK();
}

Status DurableSketchStore::ApplyReplicatedSegment(uint64_t epoch,
                                                  uint64_t start_offset,
                                                  std::string_view bytes) {
  if (role_ != StoreRole::kFollower) {
    return Status::Internal("ApplyReplicatedSegment on a primary store");
  }
  if (epoch == wal_.epoch() + 1 && start_offset == kWalHeaderBytes) {
    // The primary checkpointed past our position's epoch: fold our own
    // state the same way so the directories stay epoch-aligned, then
    // tail the new log.
    DD_RETURN_IF_ERROR(CheckpointUnguarded());
  } else if (epoch != wal_.epoch() || start_offset != wal_.offset()) {
    return Status::OutOfRange(
        "replication segment does not match the local WAL position "
        "(snapshot resync needed)");
  }
  auto records = DecodeWalSegment(bytes);
  if (!records.ok()) return records.status();
  return Commit(records.value(), bytes);
}

}  // namespace dd
