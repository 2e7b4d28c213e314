#include "core/util/checksum.hpp"

#include <array>

namespace pyblaz {

namespace {

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time CRC-32
/// (IEEE, reflected 0xEDB88320) table; table[k][b] extends it so eight
/// input bytes fold into the running CRC with eight independent lookups per
/// iteration instead of eight serial ones.  Same polynomial, bit-identical
/// results to the byte loop — this is purely a throughput upgrade.  The v2/v3
/// chunk payload is plain little-endian word stores, so this pass is most of
/// the v3 container's time (v3 takes 2-3.5x v2's); bench_micro_kernels warns
/// when its own rate, v3 bytes over (v3 - v2) time, drops under 700 MB/s,
/// which a byte-at-a-time loop does (~300 MB/s on its 256x256 case).
std::array<std::array<std::uint32_t, 256>, 8> build_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    std::uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    tables[0][byte] = crc;
  }
  for (std::uint32_t byte = 0; byte < 256; ++byte)
    for (int slice = 1; slice < 8; ++slice)
      tables[slice][byte] = (tables[slice - 1][byte] >> 8) ^
                            tables[0][tables[slice - 1][byte] & 0xFFu];
  return tables;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) {
  static const auto tables = build_crc32_tables();
  std::uint32_t crc = ~seed;
  while (size >= 8) {
    // Explicit little-endian assembly (a single 32-bit load after
    // optimization on LE hosts, and still correct on BE ones).
    const std::uint32_t lo =
        static_cast<std::uint32_t>(data[0]) |
        static_cast<std::uint32_t>(data[1]) << 8 |
        static_cast<std::uint32_t>(data[2]) << 16 |
        static_cast<std::uint32_t>(data[3]) << 24;
    const std::uint32_t hi =
        static_cast<std::uint32_t>(data[4]) |
        static_cast<std::uint32_t>(data[5]) << 8 |
        static_cast<std::uint32_t>(data[6]) << 16 |
        static_cast<std::uint32_t>(data[7]) << 24;
    crc ^= lo;
    crc = tables[7][crc & 0xFFu] ^ tables[6][(crc >> 8) & 0xFFu] ^
          tables[5][(crc >> 16) & 0xFFu] ^ tables[4][crc >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    data += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ tables[0][(crc ^ data[i]) & 0xFFu];
  return ~crc;
}

}  // namespace pyblaz
