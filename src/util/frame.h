// The one CRC frame every checksummed record travels in: sketchd's
// socket frames (server/protocol.h), WAL records, and the replication
// segments that ship WAL bytes verbatim (timeseries/wal.h).
//
//   len   varint    body length in bytes (at most kMaxFrameBytes)
//   crc   fixed32   CRC-32C of the body bytes
//   body  len bytes
//
// A reader hands DecodeFrame whatever prefix of a stream it holds. The
// outcome says what to do next: consume the frame, read more bytes, or
// treat the stream as corrupt. Socket readers, WAL recovery, segment
// decoding and the replication shipper's chunk trimming all decide
// through this one function, so they cannot disagree about where a
// frame ends or when it is bad.

#ifndef DDSKETCH_UTIL_FRAME_H_
#define DDSKETCH_UTIL_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dd {

/// Upper bound on one frame body; a larger length is corruption before
/// the CRC is even checked.
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 26;  // 64 MiB

/// Frames an already-encoded body: len varint + body CRC + body.
std::string EncodeFrame(std::string_view body);

/// Splits one frame off the front of `buffer`. On success returns the
/// body (a view into `buffer`) and sets *frame_size to the bytes
/// consumed. Fails with:
///   - OutOfRange when `buffer` holds only a frame prefix (read more and
///     retry). Once the length varint is complete, *frame_size receives
///     the whole frame's size; before that it is 0.
///   - Corruption on a CRC mismatch, a length above kMaxFrameBytes, or
///     a length varint still unterminated after kMaxVarintBytes bytes
///     (reading more could never make it parse).
Result<std::string_view> DecodeFrame(std::string_view buffer,
                                     size_t* frame_size);

}  // namespace dd

#endif  // DDSKETCH_UTIL_FRAME_H_
