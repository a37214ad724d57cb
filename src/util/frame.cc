#include "util/frame.h"

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
  Slice in(buffer);
  uint64_t body_len = 0;
  if (!in.GetVarint64(&body_len).ok()) {
    // GetVarint64 fails both on truncation (need more bytes) and on a
    // malformed varint (> kMaxVarintBytes or 64-bit overflow). With a
    // full varint's worth of bytes available the length can never
    // become parseable. A socket reader would buffer garbage forever,
    // and WAL recovery would truncate the acked records behind it.
    if (buffer.size() >= static_cast<size_t>(kMaxVarintBytes)) {
      return Status::Corruption("malformed frame length");
    }
    return Status::OutOfRange("incomplete frame");
  }
  if (body_len > kMaxFrameBytes) {
    return Status::Corruption("frame length implausibly large");
  }
  *frame_size = buffer.size() - in.remaining() + sizeof(uint32_t) + body_len;
  uint32_t crc = 0;
  std::string_view body;
  if (!in.GetFixed32(&crc).ok() || !in.GetBytes(body_len, &body).ok()) {
    return Status::OutOfRange("incomplete frame");
  }
  if (crc != Crc32c(body)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return body;
}

}  // namespace dd
