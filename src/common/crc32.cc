#include "common/crc32.h"

namespace ivdb {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // IEEE 802.3, reflected

// Slicing-by-8 tables: t[0] is the classic bytewise table; t[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so eight input bytes
// fold into the running CRC with eight independent lookups instead of a
// chain of eight dependent ones.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? kPolynomial ^ (c >> 1) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

// Little-endian load from any alignment (compiles to one move on LE hosts).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const Crc32Tables& tab = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = tab.t[7][lo & 0xFF] ^ tab.t[6][(lo >> 8) & 0xFF] ^
        tab.t[5][(lo >> 16) & 0xFF] ^ tab.t[4][lo >> 24] ^
        tab.t[3][hi & 0xFF] ^ tab.t[2][(hi >> 8) & 0xFF] ^
        tab.t[1][(hi >> 16) & 0xFF] ^ tab.t[0][hi >> 24];
  }
  for (; n > 0; p++, n--) {
    c = tab.t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ivdb
