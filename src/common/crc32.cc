#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace eunomia {

namespace {

// The 8-byte loads below fold the running CRC into the low bytes of a
// native-order word.
static_assert(std::endian::native == std::endian::little,
              "Crc32Update assumes a little-endian host");

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

// Slice-by-16 tables: table[0] is the classic byte-at-a-time CRC-32 table
// (polynomial 0xEDB88320); table[j][b] gives the CRC contribution of byte b
// placed j positions ahead, so sixteen input bytes fold into the
// accumulator with sixteen independent lookups per iteration — two 8-byte
// halves with no serial dependency between them — instead of a dependency
// chain per byte. Same polynomial, bit-identical results — only the
// throughput changes (the frame path checksums every payload byte in both
// directions, and the WAL every logged batch on the commit path).
constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t j = 1; j < 16; ++j) {
      c = tables[0][c & 0xffu] ^ (c >> 8);
      tables[j][i] = c;
    }
  }
  return tables;
}

constexpr CrcTables kTables = MakeCrcTables();

}  // namespace

std::uint32_t Crc32Update(std::uint32_t state, const void* data,
                          std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = state;
  while (size >= 16) {
    // The running CRC mixes into the first 8-byte chunk; the second chunk's
    // lookups are fully independent of it, so the two halves overlap in the
    // pipeline.
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, p, sizeof(a));
    std::memcpy(&b, p + 8, sizeof(b));
    a ^= crc;
    crc = kTables[15][a & 0xffu] ^ kTables[14][(a >> 8) & 0xffu] ^
          kTables[13][(a >> 16) & 0xffu] ^ kTables[12][(a >> 24) & 0xffu] ^
          kTables[11][(a >> 32) & 0xffu] ^ kTables[10][(a >> 40) & 0xffu] ^
          kTables[9][(a >> 48) & 0xffu] ^ kTables[8][a >> 56] ^
          kTables[7][b & 0xffu] ^ kTables[6][(b >> 8) & 0xffu] ^
          kTables[5][(b >> 16) & 0xffu] ^ kTables[4][(b >> 24) & 0xffu] ^
          kTables[3][(b >> 32) & 0xffu] ^ kTables[2][(b >> 40) & 0xffu] ^
          kTables[1][(b >> 48) & 0xffu] ^ kTables[0][b >> 56];
    p += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTables[0][(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace eunomia
