// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum used by the storage durability layer for WAL records and page
// trailers. On x86-64 CPUs with SSE4.2 it runs the `crc32` instruction over
// 8 bytes per step; elsewhere a byte-at-a-time table computes the same
// value, so stores and journals verify on either kind of CPU. The choice is
// made once, on the first call.
#ifndef RUIDX_UTIL_CRC32C_H_
#define RUIDX_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ruidx {
namespace util {

/// Returns the CRC32C of `data[0..len)`. Pass the previous return value as
/// `seed` to checksum a logical buffer in pieces; the default seed starts a
/// fresh checksum.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

namespace detail {

using Crc32cFn = uint32_t (*)(const void* data, size_t len, uint32_t seed);

/// The portable table implementation (the fallback path of Crc32c).
uint32_t Crc32cTable(const void* data, size_t len, uint32_t seed);

/// The SSE4.2 implementation, or nullptr when this CPU or build lacks it.
Crc32cFn Crc32cHardware();

}  // namespace detail

}  // namespace util
}  // namespace ruidx

#endif  // RUIDX_UTIL_CRC32C_H_
