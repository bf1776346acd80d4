#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sion {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so one step can fold
// eight input bytes with eight independent lookups.
constexpr Tables kTables = [] {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = ((c & 1u) != 0u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}();

// Little-endian u32 at p, independent of host byte order (compilers fold
// this into one load on little-endian targets).
std::uint32_t load_le32(const std::byte* p) {
  return std::to_integer<std::uint32_t>(p[0]) |
         (std::to_integer<std::uint32_t>(p[1]) << 8) |
         (std::to_integer<std::uint32_t>(p[2]) << 16) |
         (std::to_integer<std::uint32_t>(p[3]) << 24);
}

std::uint32_t crc32c_slice8(const std::byte* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ std::to_integer<std::uint32_t>(*p)) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::byte* p, std::size_t n) {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));  // x86-64 is little-endian
    crc = _mm_crc32_u64(crc, v);
  }
  auto c = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    c = _mm_crc32_u8(c, std::to_integer<std::uint8_t>(*p));
  }
  return ~c;
}
#endif

using Crc32cFn = std::uint32_t (*)(const std::byte*, std::size_t);

Crc32cFn select_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_slice8;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data) {
  static const Crc32cFn fn = select_crc32c();
  return fn(data.data(), data.size());
}

std::uint32_t crc32c_portable(std::span<const std::byte> data) {
  return crc32c_slice8(data.data(), data.size());
}

}  // namespace sion
