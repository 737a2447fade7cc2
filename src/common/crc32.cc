#include "common/crc32.h"

namespace bayescrowd {
namespace {

// Slicing-by-8 tables. Row 0 is the bytewise table; row k maps a byte
// to its CRC contribution when k zero bytes follow it.
struct Crc32Tables {
  std::uint32_t row[8][256];
};

Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables.row[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables.row[k - 1][i];
      tables.row[k][i] = tables.row[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size) {
  static const Crc32Tables kTables = BuildTables();
  const auto& t = kTables.row;
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
  // Eight bytes per step. The first four are folded into the running
  // CRC as a little-endian word built from bytes, so neither the host's
  // byte order nor the buffer's alignment matters.
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t low =
        crc ^ (static_cast<std::uint32_t>(bytes[0]) |
               static_cast<std::uint32_t>(bytes[1]) << 8 |
               static_cast<std::uint32_t>(bytes[2]) << 16 |
               static_cast<std::uint32_t>(bytes[3]) << 24);
    crc = t[7][low & 0xFFu] ^ t[6][(low >> 8) & 0xFFu] ^
          t[5][(low >> 16) & 0xFFu] ^ t[4][low >> 24] ^ t[3][bytes[4]] ^
          t[2][bytes[5]] ^ t[1][bytes[6]] ^ t[0][bytes[7]];
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace bayescrowd
