#include "crypto/simple_hash.hpp"

#include <array>

#include "crypto/counters.hpp"

namespace kshot::crypto {

u64 sdbm(ByteSpan data) {
  u64 h = 0;
  for (u8 c : data) h = c + (h << 6) + (h << 16) - h;
  return h;
}

u64 fnv1a(ByteSpan data) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u8 c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b] is the
// CRC register after byte b is followed by k zero bytes. Eight lookups then
// fold eight input bytes per step.
using CrcTables = std::array<std::array<u32, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

// Inline little-endian load; common's load_u32 is out of line, and a call
// per four bytes would cost the inner loop more than the lookups.
inline u32 le32(const u8* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

}  // namespace

u32 crc32(ByteSpan data) {
  static const CrcTables t = make_crc_tables();
  detail::crc32_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  const u8* p = data.data();
  size_t n = data.size();
  u32 c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const u32 lo = c ^ le32(p);
    const u32 hi = le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace kshot::crypto
