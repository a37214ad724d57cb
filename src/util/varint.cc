#include "util/varint.h"

#include <cstring>

namespace dd {

void PutVarint64(std::string* out, uint64_t value) {
  char buf[kMaxVarintBytes];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<char>(value);
  out->append(buf, n);
}

void PutVarintSigned64(std::string* out, int64_t value) {
  PutVarint64(out, ZigZagEncode(value));
}

void PutFixedDouble(std::string* out, double value) {
  char buf[sizeof(double)];
  std::memcpy(buf, &value, sizeof(double));
  out->append(buf, sizeof(double));
}

void PutFixed32(std::string* out, uint32_t value) {
  char buf[sizeof(uint32_t)];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  out->append(buf, sizeof(buf));
}

Status Slice::GetVarint64(uint64_t* value) {
  // Under kMaxVarintBytes bytes, the only way to fail is to run out.
  const bool short_input = data_.size() < static_cast<size_t>(kMaxVarintBytes);
  if (ConsumeVarint64(&data_, value)) return Status::OK();
  return Status::Corruption(short_input ? "truncated varint"
                                        : "varint past 10 bytes or 64 bits");
}

Status Slice::GetVarintSigned64(int64_t* value) {
  uint64_t raw = 0;
  DD_RETURN_IF_ERROR(GetVarint64(&raw));
  *value = ZigZagDecode(raw);
  return Status::OK();
}

Status Slice::GetFixedDouble(double* value) {
  if (data_.size() < sizeof(double)) {
    return Status::Corruption("truncated double");
  }
  std::memcpy(value, data_.data(), sizeof(double));
  data_.remove_prefix(sizeof(double));
  return Status::OK();
}

Status Slice::GetFixed32(uint32_t* value) {
  if (data_.size() < sizeof(uint32_t)) {
    return Status::Corruption("truncated fixed32");
  }
  *value = static_cast<uint32_t>(static_cast<uint8_t>(data_[0])) |
           static_cast<uint32_t>(static_cast<uint8_t>(data_[1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(data_[2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(data_[3])) << 24;
  data_.remove_prefix(sizeof(uint32_t));
  return Status::OK();
}

Status Slice::GetBytes(size_t n, std::string_view* out) {
  if (data_.size() < n) {
    return Status::Corruption("truncated byte span");
  }
  *out = data_.substr(0, n);
  data_.remove_prefix(n);
  return Status::OK();
}

}  // namespace dd
