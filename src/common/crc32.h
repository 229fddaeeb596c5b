// CRC-32 (the IEEE 802.3 polynomial, reflected — the zlib checksum). One
// implementation for every checksummed byte in the tree: wire frame
// payloads (src/net/wire.h) and WAL records (src/wal/log.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace eunomia {

// Streaming form, for checksumming a logical region without materializing
// it: Crc32(concat(a, b)) == Crc32Final(Crc32Update(Crc32Update(Crc32Seed(),
// a...), b...)).
inline constexpr std::uint32_t Crc32Seed() { return 0xFFFFFFFFu; }
std::uint32_t Crc32Update(std::uint32_t state, const void* data,
                          std::size_t size);
inline constexpr std::uint32_t Crc32Final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

inline std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Final(Crc32Update(Crc32Seed(), data, size));
}

}  // namespace eunomia
