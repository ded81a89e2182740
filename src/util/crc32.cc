#include "util/crc32.h"

#include <array>

namespace snip {
namespace util {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

using Table = std::array<uint32_t, 256>;

/**
 * Slicing-by-16 tables: kTables[0] is the bytewise table, and
 * kTables[k][b] is the CRC state after byte b followed by k zero
 * bytes, so byte j of a 16-byte block goes through kTables[15 - j].
 */
constexpr std::array<Table, 16>
makeTables()
{
    std::array<Table, 16> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr std::array<Table, 16> kTables = makeTables();

}  // namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    const auto &t = kTables;
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; len >= 16; p += 16, len -= 16) {
        // The state folds into the block's first four bytes read as
        // a little-endian word, assembled from bytes so the result
        // is the same on any host byte order.
        uint32_t a = c ^ (static_cast<uint32_t>(p[0]) |
                          static_cast<uint32_t>(p[1]) << 8 |
                          static_cast<uint32_t>(p[2]) << 16 |
                          static_cast<uint32_t>(p[3]) << 24);
        c = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^
            t[13][(a >> 16) & 0xFF] ^ t[12][a >> 24] ^ t[11][p[4]] ^
            t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^
            t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^
            t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

}  // namespace util
}  // namespace snip
