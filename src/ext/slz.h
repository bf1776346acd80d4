// slz: a small, self-contained LZ77-style byte codec.
//
// The paper's section 6 lists "transparent file compression ... (e.g., via
// integrating zlib)" as planned work, and the Scalasca use case (section
// 5.2) compresses trace data with zlib before writing. No external
// compression library exists in this reproduction, so slz provides the same
// role from scratch: greedy hash-chain matching over a 64 KiB window with a
// varint token stream. It favours speed over ratio.
//
// The token stream is a format: for a given input, slz_compress emits the
// same bytes on every host and build (the match search is fixed, not tuned to
// the CPU). Speed comes from mechanics only: tokens go through a raw pointer
// into a buffer sized by slz_compress_bound, matches are extended eight bytes
// at a time, and the decoder copies literal runs and non-overlapping matches
// with memcpy, falling back to a byte loop only for self-overlapping matches.
// No path depends on CPU features.
//
// Stream format (little-endian):
//   magic "SLZ1" (4 B) | u64 uncompressed size | tokens...
// Token: control varint C.
//   C even:  literal run of C/2 bytes, which follow verbatim.
//   C odd:   match; C>>1 = length - kMinMatch, followed by varint distance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace sion::ext {

inline constexpr std::size_t kSlzMinMatch = 4;
inline constexpr std::size_t kSlzWindow = 64 * 1024;

// Hard ceiling on the self-described uncompressed size a stream may claim.
// Callers that know the expected output (e.g. the ext/compress.h framing
// layer, whose frame header carries the raw size) should pass a tighter
// `max_bytes` so a forged header cannot drive large allocations.
inline constexpr std::uint64_t kSlzMaxDecode = 1ULL << 40;

std::vector<std::byte> slz_compress(std::span<const std::byte> input);

// Upper bound on the slz stream size for `n` input bytes; see slz.cpp for
// the proof.
[[nodiscard]] constexpr std::size_t slz_compress_bound(std::size_t n) {
  return 12 + n + n / 4 + 32;
}

// slz_compress into caller memory: writes the stream to `out`, which must
// hold slz_compress_bound(input.size()) bytes, and returns the stream size.
// The frame writers use it to encode straight into their output buffer.
std::size_t slz_compress_to(std::span<const std::byte> input, std::byte* out);

// Self-describing: the uncompressed size comes from the stream header.
// Streams claiming more than `max_bytes` are rejected as Corrupt, and the
// output buffer grows incrementally instead of trusting the header for the
// up-front reservation.
Result<std::vector<std::byte>> slz_decompress(std::span<const std::byte> input,
                                              std::uint64_t max_bytes =
                                                  kSlzMaxDecode);

// Compress/decompress with framing suitable for appending to a SION logical
// file: [u32 frame bytes][slz stream]. Returns bytes consumed from `input`.
// The u32 length field cannot represent a >= 4 GiB compressed stream; such
// inputs are rejected (kOutOfRange) — split at a higher framing layer
// (ext/compress.h chunks streams well below this bound).
Result<std::vector<std::byte>> slz_frame(std::span<const std::byte> input);
Result<std::pair<std::vector<std::byte>, std::size_t>> slz_unframe(
    std::span<const std::byte> framed);

// Exposed for the frame writers (slz_frame, ext/compress.h) and for tests:
// checks that a compressed stream of `stream_bytes` fits a u32 length field.
[[nodiscard]] Status slz_validate_frame_size(std::uint64_t stream_bytes);

}  // namespace sion::ext
