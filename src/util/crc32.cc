#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dd {
namespace {

// Reflected CRC-32C polynomial (iSCSI / RocksDB / LevelDB).
constexpr uint32_t kPolynomial = 0x82f63b78u;

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes this same reflected CRC-32C, 8
// bytes per instruction. Only this function is compiled for SSE4.2, so
// the rest of the binary still runs on any x86-64. The loads go through
// memcpy: `data` has no alignment guarantee, and x86 loads need none.
__attribute__((target("sse4.2"))) uint32_t Sse42Loop(
    uint32_t crc, std::string_view data) noexcept {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t state = ~crc;
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
    p += sizeof(uint64_t);
  }
  // The tail of 0-7 bytes in at most three steps: 4, 2, then 1 byte.
  auto state32 = static_cast<uint32_t>(state);
  if (n & 4) {
    uint32_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    state32 = _mm_crc32_u32(state32, word);
    p += sizeof(word);
  }
  if (n & 2) {
    uint16_t half = 0;
    std::memcpy(&half, p, sizeof(half));
    state32 = _mm_crc32_u16(state32, half);
    p += sizeof(half);
  }
  if (n & 1) state32 = _mm_crc32_u8(state32, static_cast<uint8_t>(*p));
  return ~state32;
}
#endif

}  // namespace

namespace crc32c_internal {

uint32_t Table(uint32_t crc, std::string_view data) noexcept {
  crc = ~crc;
  for (const char c : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
uint32_t Sse42(uint32_t crc, std::string_view data) noexcept {
  return Sse42Loop(crc, data);
}
#endif

bool UsesHardware() noexcept {
#if defined(__x86_64__)
  static const bool kSse42 = [] {
    // A static constructor elsewhere may checksum before libgcc's own
    // constructor has filled in the CPU model __builtin_cpu_supports reads.
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return kSse42;
#else
  return false;
#endif
}

}  // namespace crc32c_internal

uint32_t Crc32c(uint32_t crc, std::string_view data) noexcept {
#if defined(__x86_64__)
  if (crc32c_internal::UsesHardware()) return Sse42Loop(crc, data);
#endif
  return crc32c_internal::Table(crc, data);
}

}  // namespace dd
