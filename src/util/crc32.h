// CRC-32C (Castagnoli) checksums: every checksummed byte the system
// writes goes through Crc32c. It covers the one frame of util/frame.h
// (sketchd's socket frames, WAL records and the replication segments
// that ship WAL bytes verbatim), the WAL header, the snapshot body
// (timeseries/snapshot.cc) and the LOCK file's CRC line. The wire format
// for sketches themselves (core/serialization.cc) stays checksum-free:
// the frame around them carries the check.
//
// On an x86-64 CPU that reports SSE4.2, Crc32c runs the crc32
// instruction 8 bytes at a time. Any other CPU (aarch64 included, for
// now) runs a byte-at-a-time table loop. Both give the same value; the
// choice is made once, on the first call.

#ifndef DDSKETCH_UTIL_CRC32_H_
#define DDSKETCH_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace dd {

/// CRC-32C of `data` continued from `crc` (pass 0 to start a new checksum).
/// Slice-and-continue composes: Crc32c(Crc32c(0, a), b) == Crc32c(0, a + b).
uint32_t Crc32c(uint32_t crc, std::string_view data) noexcept;

/// CRC-32C of a whole buffer.
inline uint32_t Crc32c(std::string_view data) noexcept {
  return Crc32c(0, data);
}

/// The implementations behind Crc32c, for its tests and benchmarks. Other
/// code calls Crc32c.
namespace crc32c_internal {

/// The byte-table loop: the fallback, and the oracle the tests hold the
/// hardware path to.
uint32_t Table(uint32_t crc, std::string_view data) noexcept;

#if defined(__x86_64__)
/// The SSE4.2 crc32 loop. Only valid on a CPU that reports SSE4.2.
uint32_t Sse42(uint32_t crc, std::string_view data) noexcept;
#endif

/// True when Crc32c runs a hardware path on this CPU.
bool UsesHardware() noexcept;

}  // namespace crc32c_internal

}  // namespace dd

#endif  // DDSKETCH_UTIL_CRC32_H_
