#ifndef IVDB_COMMON_CRC32_H_
#define IVDB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace ivdb {

// CRC-32 (IEEE polynomial, reflected, as in zlib) used to detect
// torn/corrupt log records at the tail of the write-ahead log after a crash.
uint32_t Crc32(const void* data, size_t n);

}  // namespace ivdb

#endif  // IVDB_COMMON_CRC32_H_
