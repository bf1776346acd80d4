// CRC32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum of
// every integrity-checked on-disk structure in ext/ (compression frames,
// ECC parity headers).
//
// Two implementations compute the same value. The portable one is
// slicing-by-8: eight 256-entry tables fold eight input bytes per step. On
// x86-64 hosts whose CPU reports SSE4.2, crc32c() uses the hardware CRC32
// instruction instead (eight bytes per instruction). The choice is made once,
// from the CPU features observed at run time; there is no option to force
// either path, and both are tested against each other.
#pragma once

#include <cstdint>
#include <span>

namespace sion {

// CRC32C of `data` (initial value and final XOR 0xFFFFFFFF), on the fastest
// path this CPU supports.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data);

// The portable slicing-by-8 implementation; the reference crc32c() is tested
// against, and the path taken on hosts without SSE4.2.
[[nodiscard]] std::uint32_t crc32c_portable(std::span<const std::byte> data);

}  // namespace sion
