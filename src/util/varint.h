// LEB128 varint and zigzag codecs used by the sketch binary serialization
// format (core/serialization.cc). Bucket indices are small signed integers
// and counts are small unsigned integers most of the time, so varints keep
// serialized sketches compact — this matters because the paper's use case
// ships sketches over the network every few seconds.

#ifndef DDSKETCH_UTIL_VARINT_H_
#define DDSKETCH_UTIL_VARINT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace dd {

/// Maximum encoded size of a 64-bit varint.
inline constexpr int kMaxVarintBytes = 10;

/// Appends an unsigned LEB128 varint to `out`.
void PutVarint64(std::string* out, uint64_t value);

/// Appends a zigzag-encoded signed varint to `out`.
void PutVarintSigned64(std::string* out, int64_t value);

/// Appends a raw little-endian double (8 bytes) to `out`.
void PutFixedDouble(std::string* out, double value);

/// Appends a raw little-endian uint32 (4 bytes) to `out` — used for CRC
/// fields in the on-disk formats, which must stay fixed-width so framing
/// survives arbitrary corruption of the checksummed bytes.
void PutFixed32(std::string* out, uint32_t value);

/// Reads one LEB128 varint off the front of `*in` and advances past it,
/// without building a Status. Returns false, leaving `*in` unspecified,
/// when the varint is truncated, runs past kMaxVarintBytes bytes, or
/// carries more than bit 63 in its 10th byte. Slice::GetVarint64 is this
/// plus a Status; a parser run once per socket frame (DecodeIngest) calls
/// it directly.
inline bool ConsumeVarint64(std::string_view* in, uint64_t* value) noexcept {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (in->empty()) return false;
    const auto byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    if (shift == 63 && (byte & 0x7e) != 0) return false;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;
}

/// A consuming read cursor over a serialized payload. All Get* methods
/// return Corruption on truncated or malformed input and leave the cursor
/// position unspecified afterwards.
class Slice {
 public:
  explicit Slice(std::string_view data) noexcept : data_(data) {}

  /// Bytes not yet consumed.
  size_t remaining() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Reads an unsigned LEB128 varint.
  Status GetVarint64(uint64_t* value);
  /// Reads a zigzag-encoded signed varint.
  Status GetVarintSigned64(int64_t* value);
  /// Reads a raw little-endian double.
  Status GetFixedDouble(double* value);
  /// Reads a raw little-endian uint32.
  Status GetFixed32(uint32_t* value);
  /// Reads `n` raw bytes into `out`.
  Status GetBytes(size_t n, std::string_view* out);

 private:
  std::string_view data_;
};

/// Zigzag-maps a signed integer to unsigned so small magnitudes encode small.
inline uint64_t ZigZagEncode(int64_t v) noexcept {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Inverse of ZigZagEncode.
inline int64_t ZigZagDecode(uint64_t v) noexcept {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace dd

#endif  // DDSKETCH_UTIL_VARINT_H_
