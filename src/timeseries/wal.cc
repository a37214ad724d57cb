#include "timeseries/wal.h"

#include <cstring>
#include <system_error>
#include <utility>

#include "util/crc32.h"
#include "util/frame.h"
#include "util/varint.h"

namespace dd {
namespace {

constexpr char kMagic[4] = {'D', 'D', 'W', 'L'};
constexpr uint8_t kVersion = 1;

Status DecodeBody(std::string_view body, WalRecord* record) {
  Slice in(body);
  std::string_view type_byte;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &type_byte));
  const uint8_t type = static_cast<uint8_t>(type_byte[0]);
  if (type < static_cast<uint8_t>(WalRecord::Type::kIngestSketch) ||
      type > static_cast<uint8_t>(WalRecord::Type::kIngestValues)) {
    return Status::Corruption("unknown WAL record type");
  }
  record->type = static_cast<WalRecord::Type>(type);
  uint64_t series_len = 0;
  DD_RETURN_IF_ERROR(in.GetVarint64(&series_len));
  if (series_len > in.remaining()) {
    return Status::Corruption("WAL series name overruns record");
  }
  std::string_view series;
  DD_RETURN_IF_ERROR(in.GetBytes(series_len, &series));
  record->series.assign(series);
  DD_RETURN_IF_ERROR(in.GetVarintSigned64(&record->timestamp));
  record->payload.clear();
  record->value = 0;
  record->values.clear();
  switch (record->type) {
    case WalRecord::Type::kIngestSketch: {
      uint64_t payload_len = 0;
      DD_RETURN_IF_ERROR(in.GetVarint64(&payload_len));
      if (payload_len > in.remaining()) {
        return Status::Corruption("WAL payload overruns record");
      }
      std::string_view payload;
      DD_RETURN_IF_ERROR(in.GetBytes(payload_len, &payload));
      record->payload.assign(payload);
      break;
    }
    case WalRecord::Type::kIngestValue:
      DD_RETURN_IF_ERROR(in.GetFixedDouble(&record->value));
      break;
    case WalRecord::Type::kIngestValues: {
      uint64_t count = 0;
      DD_RETURN_IF_ERROR(in.GetVarint64(&count));
      if (count == 0) {
        return Status::Corruption("WAL value record holds no values");
      }
      if (count > in.remaining() / sizeof(double)) {
        return Status::Corruption("WAL values overrun record");
      }
      record->values.resize(count);
      for (double& value : record->values) {
        DD_RETURN_IF_ERROR(in.GetFixedDouble(&value));
      }
      break;
    }
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes in WAL record body");
  }
  return Status::OK();
}

/// The one record loop: decodes the whole frames at the front of `bytes`
/// into *records and returns the bytes they span. It stops before an
/// incomplete last frame, which the caller judges (a torn tail, or
/// Corruption in strict mode); a corrupt frame or body fails.
Result<size_t> DecodeFramedRecords(std::string_view bytes,
                                   std::vector<WalRecord>* records) {
  size_t consumed = 0;
  while (consumed < bytes.size()) {
    size_t frame_size = 0;
    auto body = DecodeFrame(bytes.substr(consumed), &frame_size);
    if (!body.ok()) {
      if (body.status().code() == StatusCode::kOutOfRange) break;
      return body.status();
    }
    WalRecord record;
    DD_RETURN_IF_ERROR(DecodeBody(body.value(), &record));
    records->push_back(std::move(record));
    consumed += frame_size;
  }
  return consumed;
}

}  // namespace

// magic + version + fixed32 epoch + fixed32 crc.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 1 + 2 * sizeof(uint32_t);
static_assert(kHeaderBytes == kWalHeaderBytes,
              "wal.h kWalHeaderBytes must match the encoded header size");

std::string EncodeWalHeader(uint32_t epoch) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  PutFixed32(&out, epoch);
  PutFixed32(&out, Crc32c(out));
  return out;
}

namespace {
Status CheckEpochRange(uint64_t epoch) {
  if (epoch > UINT32_MAX) {
    return Status::InvalidArgument("WAL epoch exceeds fixed32 range");
  }
  return Status::OK();
}
}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string body;
  body.push_back(static_cast<char>(record.type));
  PutVarint64(&body, record.series.size());
  body.append(record.series);
  PutVarintSigned64(&body, record.timestamp);
  switch (record.type) {
    case WalRecord::Type::kIngestSketch:
      PutVarint64(&body, record.payload.size());
      body.append(record.payload);
      break;
    case WalRecord::Type::kIngestValue:
      PutFixedDouble(&body, record.value);
      break;
    case WalRecord::Type::kIngestValues:
      PutVarint64(&body, record.values.size());
      for (double value : record.values) PutFixedDouble(&body, value);
      break;
  }
  return EncodeFrame(body);
}

Result<WalContents> ReadWal(std::string_view file_bytes, WalRead mode) {
  WalContents contents;
  if (file_bytes.size() < kHeaderBytes) {
    // The header is written and fsynced before any append is
    // acknowledged, so a short file means a crash during log creation.
    if (mode == WalRead::kStrict) {
      return Status::Corruption("truncated WAL header");
    }
    contents.header_valid = false;
    contents.torn_tail = true;
    return contents;
  }
  Slice in(file_bytes);
  std::string_view magic;
  DD_RETURN_IF_ERROR(in.GetBytes(sizeof(kMagic), &magic));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad WAL magic");
  }
  std::string_view version;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &version));
  if (static_cast<uint8_t>(version[0]) != kVersion) {
    return Status::Corruption("unsupported WAL version");
  }
  uint32_t epoch32 = 0;
  DD_RETURN_IF_ERROR(in.GetFixed32(&epoch32));
  contents.epoch = epoch32;
  uint32_t header_crc = 0;
  DD_RETURN_IF_ERROR(in.GetFixed32(&header_crc));
  if (header_crc !=
      Crc32c(file_bytes.substr(0, kHeaderBytes - sizeof(uint32_t)))) {
    return Status::Corruption("WAL header checksum mismatch");
  }
  auto records = DecodeFramedRecords(file_bytes.substr(kHeaderBytes),
                                     &contents.records);
  if (!records.ok()) return records.status();
  contents.valid_size = kHeaderBytes + records.value();
  if (contents.valid_size < file_bytes.size()) {
    if (mode == WalRead::kStrict) {
      return Status::Corruption("truncated WAL record");
    }
    contents.torn_tail = true;
  }
  return contents;
}

Result<std::vector<WalRecord>> DecodeWalSegment(std::string_view bytes) {
  std::vector<WalRecord> records;
  auto decoded = DecodeFramedRecords(bytes, &records);
  if (!decoded.ok()) return decoded.status();
  if (decoded.value() < bytes.size()) {
    return Status::Corruption("truncated record frame in WAL segment");
  }
  return records;
}

Result<WalContents> ReadWalFile(const std::string& path, WalRead mode) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return ReadWal(bytes.value(), mode);
}

Result<WalWriter> WalWriter::Create(const std::string& path, uint64_t epoch) {
  DD_RETURN_IF_ERROR(CheckEpochRange(epoch));
  WalWriter writer(AppendOnlyFile(), epoch);
  DD_RETURN_IF_ERROR(
      ReplaceFile(path + ".next", path,
                  EncodeWalHeader(static_cast<uint32_t>(epoch)),
                  /*renamed=*/nullptr, &writer.file_));
  return writer;
}

Result<WalWriter> WalWriter::OpenExisting(const std::string& path,
                                          uint64_t epoch, uint64_t size) {
  auto file = AppendOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  WalWriter writer(std::move(file).value(), epoch);
  if (writer.file_.size() < size) {
    return Status::Corruption("WAL shrank below its validated prefix");
  }
  if (writer.file_.size() > size) {
    DD_RETURN_IF_ERROR(writer.file_.Truncate(size));  // drop the torn tail
  }
  return writer;
}

Status WalWriter::Append(const WalRecord& record) {
  return file_.Append(EncodeWalRecord(record));
}

Status WalWriter::AppendRaw(std::string_view framed_records) {
  return file_.Append(framed_records);
}

Status WalWriter::Sync() { return file_.Sync(); }

Status WalWriter::TruncateTo(uint64_t offset) {
  if (offset > file_.size()) {
    return Status::Internal("WAL truncate target beyond end of log");
  }
  return file_.Truncate(offset);
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (closer_.joinable()) closer_.join();
    file_ = std::move(other.file_);
    epoch_ = other.epoch_;
    closer_ = std::move(other.closer_);
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (closer_.joinable()) closer_.join();
}

Status WalWriter::Reset(uint64_t epoch) {
  DD_RETURN_IF_ERROR(CheckEpochRange(epoch));
  const std::string path = file_.path();
  AppendOnlyFile file;
  bool renamed = false;
  const Status status =
      ReplaceFile(path + ".next", path,
                  EncodeWalHeader(static_cast<uint32_t>(epoch)), &renamed,
                  &file);
  if (!renamed) return status;
  // `path` names the new log now: follow it even if the directory fsync
  // after the rename failed.
  std::swap(file_, file);
  epoch_ = epoch;
  if (closer_.joinable()) closer_.join();
  try {
    closer_ = std::thread([](AppendOnlyFile) {}, std::move(file));
  } catch (const std::system_error&) {
    // No thread to spare: the old log was closed here instead.
  }
  return status;
}

}  // namespace dd
