#include "util/frame.h"

#include <bit>
#include <cstring>

#include "util/crc32.h"
#include "util/varint.h"

namespace dd {

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
  *frame_size = 0;
  // Read with ConsumeVarint64 and one fixed32 load: the frame is split
  // without building a Status unless it is refused.
  std::string_view rest = buffer;
  uint64_t body_len = 0;
  if (!ConsumeVarint64(&rest, &body_len)) {
    // The varint fails both on truncation (need more bytes) and when it
    // is malformed (> kMaxVarintBytes or 64-bit overflow). With a full
    // varint's worth of bytes available the length can never become
    // parseable. A socket reader would buffer garbage forever, and WAL
    // recovery would truncate the acked records behind it.
    if (buffer.size() >= static_cast<size_t>(kMaxVarintBytes)) {
      return Status::Corruption("malformed frame length");
    }
    return Status::OutOfRange("incomplete frame");
  }
  if (body_len > kMaxFrameBytes) {
    return Status::Corruption("frame length implausibly large");
  }
  *frame_size = buffer.size() - rest.size() + sizeof(uint32_t) + body_len;
  if (rest.size() < sizeof(uint32_t) + body_len) {
    return Status::OutOfRange("incomplete frame");
  }
  uint32_t crc = 0;
  std::memcpy(&crc, rest.data(), sizeof(crc));
  if constexpr (std::endian::native == std::endian::big) {
    crc = __builtin_bswap32(crc);  // the field is little-endian
  }
  const std::string_view body = rest.substr(sizeof(uint32_t), body_len);
  if (crc != Crc32c(body)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return body;
}

}  // namespace dd
