// Transparent, corruption-tolerant compression for SION logical streams
// (paper section 6 lists "transparent file compression" as planned work; the
// Scalasca use case in section 5.2 compresses trace data before writing).
//
// A logical stream is encoded as a sequence of independent frames, each
// compressing one chunk of at most CompressionSpec::chunk_bytes raw bytes:
//
//   offset  size  field
//   0       8     sync marker (kFrameSync, never produced by accident)
//   8       4     u32 comp_bytes — length of the slz stream
//   12      4     u32 raw_bytes  — uncompressed payload length
//   16      4     u32 CRC32C over bytes [0, 16) (sync + lengths)
//   20      comp  slz stream (ext/slz.h)
//   20+comp 4     u32 CRC32C over the slz stream
//
// The header CRC means torn or bit-flipped length fields are detected
// without trusting them; the raw size in the header means a frame whose
// *payload* is damaged can be zero-filled with its exact extent, so every
// later byte of the stream keeps its position. Decoding degrades instead of
// aborting: a bad payload CRC zero-fills the frame, a bad header triggers a
// forward scan to the next sync marker (in the spirit of protoseq sync
// sequences / the LightweightFEC CRC-trailer frames), and all loss is
// accounted in a StreamLossReport (ext/recovery.h) for the restart status
// machinery rather than thrown away as an error.
//
// Both CRCs are CRC32C from common/crc32c.h: the SSE4.2 CRC32 instruction on
// x86-64 CPUs that report it, portable slicing-by-8 everywhere else, picked
// once from the CPU features seen at run time. The two paths compute the
// same value, so encoded streams are byte-identical on every host.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "ext/recovery.h"
#include "ext/slz.h"

namespace sion::ext {

// 8 bytes that are neither ASCII-likely nor an slz/SION magic; the leading
// 0xF5 keeps it out of UTF-8 text and the embedded 0x1A (SUB) out of
// accidental line-based tooling.
inline constexpr std::array<std::byte, 8> kFrameSync = {
    std::byte{0xF5}, std::byte{'S'},  std::byte{'L'},  std::byte{'Z'},
    std::byte{'F'},  std::byte{0x1A}, std::byte{0xA7}, std::byte{0x5C}};

inline constexpr std::uint64_t kFrameHeaderBytes = 20;
inline constexpr std::uint64_t kFrameTrailerBytes = 4;
// Format caps, protected by the header CRC: a frame may carry at most 1 GiB
// of raw payload, and its slz stream is at most slz_compress_bound of that
// (the encoder's worst case on incompressible input), so anything claiming
// more is garbage, not a frame.
inline constexpr std::uint64_t kMaxFrameRawBytes = kGiB;
inline constexpr std::uint64_t kMaxFrameCompBytes =
    slz_compress_bound(kMaxFrameRawBytes);
static_assert(kMaxFrameCompBytes <= UINT32_MAX,
              "frame header stores comp_bytes as a u32");

// Knobs for the framed-compression stream path, carried as an optional
// sub-spec of workloads::CheckpointSpec (and by TracerSpec).
struct CompressionSpec {
  // Raw bytes per frame. Smaller chunks bound the blast radius of one
  // damaged frame; larger chunks compress better. Clamped to
  // [512, kMaxFrameRawBytes] by compress_stream.
  std::uint64_t chunk_bytes = 256 * kKiB;

  // Read side: when set, restore paths accumulate the restart's global loss
  // accounting here (what was zero-filled or discarded instead of failing).
  StreamLossReport* loss_report = nullptr;
};

// Encode `input` as consecutive frames. Empty input encodes to zero frames
// (an empty stream). Fails only on the (clamped-away) u32 overflow paths.
Result<std::vector<std::byte>> compress_stream(std::span<const std::byte> input,
                                               const CompressionSpec& spec = {});

// Positioned reader over encoded bytes: fill `out` from byte `offset` of the
// stream, returning the count delivered (short only at end of stream).
using ReadAtFn =
    std::function<Result<std::uint64_t>(std::uint64_t offset,
                                        std::span<std::byte> out)>;

// One structurally-located frame. `torn` marks a frame whose header was
// intact but whose body runs past the end of the encoded stream (e.g. a
// truncated physical file): its raw extent is known and will be zero-filled.
struct FrameEntry {
  std::uint64_t encoded_offset = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decoded_offset = 0;
  std::uint64_t decoded_bytes = 0;
  std::uint32_t comp_bytes = 0;
  bool torn = false;
};

// The frame map of one encoded stream, built from headers only (payloads are
// not read or verified here). Regions with no valid header are recorded in
// `scan_loss` and contribute no decoded bytes: their extent is unknowable,
// so the decoded stream is shorter than the original by exactly those
// frames. decoded_bytes is therefore the *deliverable* size, and the scan
// and the decoder agree on it by construction.
struct FrameIndex {
  std::vector<FrameEntry> frames;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decoded_bytes = 0;
  StreamLossReport scan_loss;
};

Result<FrameIndex> index_frames(std::uint64_t encoded_bytes,
                                const ReadAtFn& read_at);

// Random-access decoded reads over an encoded stream, used by ext::Remap's
// wave pipeline. Ascending reads decode each frame exactly once (the last
// frame is cached); payload CRC failures zero-fill and are counted once per
// frame in `loss` (which also receives the index's scan loss up front).
// Frame bodies are read in frame order and checked and decoded on the host
// pool (par/host_pool.h) while the next bodies are read.
class FrameStreamReader {
 public:
  FrameStreamReader(FrameIndex index, ReadAtFn read_at,
                    StreamLossReport* loss);

  [[nodiscard]] std::uint64_t decoded_bytes() const {
    return index_.decoded_bytes;
  }
  // Encoded bytes fetched through read_at so far (I/O accounting).
  [[nodiscard]] std::uint64_t encoded_bytes_read() const {
    return encoded_read_;
  }

  // Fill `out` with decoded bytes [offset, offset + out.size()); the range
  // must lie within [0, decoded_bytes()). Damaged frames read as zeros.
  Status read_decoded(std::uint64_t offset, std::span<std::byte> out);

 private:
  struct InFlight;
  // Waits for `f`'s decode, makes it the cached frame, counts it once and
  // copies its wanted bytes into `out`.
  void finish(InFlight& f, std::span<std::byte> out);

  FrameIndex index_;
  ReadAtFn read_at_;
  StreamLossReport* loss_;
  std::uint64_t encoded_read_ = 0;
  std::vector<std::byte> cache_;  // decoded bytes of frame cache_i_
  std::size_t cache_i_ = SIZE_MAX;
  std::vector<bool> loss_counted_;  // per frame, so waves never double-count
};

// Decode a whole in-memory encoded stream tolerantly (see file comment for
// the degradation rules). Never fails on damaged *content* — only on
// internal errors; loss lands in `loss` when given.
Result<std::vector<std::byte>> decompress_stream(
    std::span<const std::byte> encoded, StreamLossReport* loss = nullptr);

// True when `head` (the first bytes of a stream, >= 8 needed) starts with
// the frame sync marker — the transparent-read detection rule.
[[nodiscard]] bool stream_is_framed(std::span<const std::byte> head);

}  // namespace sion::ext
