#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define RUIDX_CRC32C_SSE42 1
#endif

namespace ruidx {
namespace util {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#ifdef RUIDX_CRC32C_SSE42
// The crc32 instruction computes the same reflected CRC32C step as the
// table, without the pre/post inversion, so the two paths agree bit for bit.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                        size_t len,
                                                        uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

}  // namespace

namespace detail {

uint32_t Crc32cTable(const void* data, size_t len, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

Crc32cFn Crc32cHardware() {
#ifdef RUIDX_CRC32C_SSE42
  __builtin_cpu_init();  // needed if this runs before static constructors
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return nullptr;
}

}  // namespace detail

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  // Chosen on the first call, so callers running during static
  // initialization see a ready implementation too.
  static const detail::Crc32cFn impl = [] {
    detail::Crc32cFn hardware = detail::Crc32cHardware();
    return hardware != nullptr ? hardware : detail::Crc32cTable;
  }();
  return impl(data, len, seed);
}

}  // namespace util
}  // namespace ruidx
