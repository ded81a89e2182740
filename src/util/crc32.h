/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the integrity footer
 * of the OTA model package. FNV (bytes.h) stays the in-memory hash;
 * CRC is used where payloads cross a transport and bit corruption
 * must be *detected*, not just scrambled.
 *
 * The kernel is slicing-by-16: sixteen constexpr 256-entry tables
 * fold 16 input bytes per step (one table lookup per byte, no
 * loop-carried dependency between them), and a bytewise loop takes
 * the tail. It is portable C++ with no intrinsics or CPU dispatch.
 * Input is read one byte at a time and the CRC state is combined
 * with a word assembled from bytes in little-endian order, so the
 * result does not depend on the host's byte order or on the
 * buffer's alignment; it is bit-identical to the classic bytewise
 * table CRC.
 */

#ifndef SNIP_UTIL_CRC32_H
#define SNIP_UTIL_CRC32_H

#include <cstddef>
#include <cstdint>

namespace snip {
namespace util {

/**
 * CRC-32 over a byte range. @p seed chains partial computations:
 * crc32(ab) == crc32(b, crc32(a)).
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_CRC32_H
