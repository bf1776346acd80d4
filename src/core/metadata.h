// On-disk metadata of a SION physical file: metablock 1 (written at open by
// the file-local master) and metablock 2 (written at close with the space
// actually used in every chunk). core/layout.h gives the file geometry.
//
// Metablock 1 contains two fixed-offset trailer fields (`nblocks`,
// `meta2_offset`) that are zero after open and patched in place at close —
// if an application dies before parclose, they stay zero and the recovery
// extension (src/ext/recovery.h) can rebuild metablock 2 from per-chunk
// frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/layout.h"
#include "fs/filesystem.h"

namespace sion::core {

inline constexpr char kMagic[8] = {'S', 'I', 'O', 'N', 'S', 'I', 'M', '1'};
inline constexpr char kMagic2[8] = {'S', 'I', 'O', 'N', 'M', 'E', 'T', '2'};
inline constexpr std::uint32_t kFormatVersion = 1;

// Flag bits (FileHeader::flags).
inline constexpr std::uint8_t kFlagChunkFrames = 0x01;

// Fixed byte offsets of the close-time trailer fields inside metablock 1.
inline constexpr std::uint64_t kTrailerNblocksOffset = 16;
inline constexpr std::uint64_t kTrailerMeta2Offset = 24;

// The per-chunk recovery frame written when kFlagChunkFrames is set: it
// occupies the first kChunkFrameSize bytes of every chunk, shrinking its
// usable capacity (see src/ext/recovery.h). On disk, little-endian:
//
//   0 kChunkFrameMagic | 8 u32 global rank | 12 u32 local rank |
//   16 u64 block | 24 u64 bytes written | 32 u64 checksum | 40 zeros
//
// The writer keeps the bytes-written field and the checksum patched as the
// chunk fills.
inline constexpr std::uint64_t kChunkFrameSize = 64;
inline constexpr char kChunkFrameMagic[8] = {'S', 'I', 'O', 'N',
                                             'F', 'R', 'M', '1'};

struct ChunkFrame {
  std::uint32_t grank = 0;
  std::uint32_t lrank = 0;
  std::uint64_t block = 0;
  std::uint64_t bytes_written = 0;
};

// Integrity checksum over a chunk frame's fields, stored in the frame and
// kept in step with every bytes-written patch: metablock-2 recovery must
// never rebuild metadata from a torn or bit-flipped frame (it would
// silently hand back wrong data), so a frame whose checksum disagrees is
// treated as damaged.
inline std::uint64_t chunk_frame_checksum(std::uint32_t grank,
                                          std::uint32_t lrank,
                                          std::uint64_t block,
                                          std::uint64_t bytes_written) {
  std::uint64_t h = 0x53494F4E46524D31ULL;  // the magic, read big-endian
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(grank) << 32 | lrank, block,
        bytes_written}) {
    h ^= v;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
  }
  return h;
}

// The full kChunkFrameSize-byte frame.
std::vector<std::byte> encode_chunk_frame(const ChunkFrame& frame);

// Parse a frame; kCorrupt when it is short, or its magic or checksum
// disagrees (torn or bit-flipped).
Result<ChunkFrame> parse_chunk_frame(std::span<const std::byte> bytes);

// Write the whole frame at `offset`, the first byte of its chunk.
Status write_chunk_frame(fs::File& file, std::uint64_t offset,
                         const ChunkFrame& frame);

// Rewrite only the bytes-written field and the checksum of the frame at
// `offset`.
Status patch_chunk_frame(fs::File& file, std::uint64_t offset,
                         const ChunkFrame& frame);

// Reads `out.size()` payload bytes that metablock 2 records at `offset`; a
// short read means the file lost them (kCorrupt).
Status read_recorded(fs::File& file, std::span<std::byte> out,
                     std::uint64_t offset);

// The frame of chunk `frame.block` of a writer walking with `cursor`, in
// front of the chunk's payload: written whole when the chunk is `fresh`,
// else patched.
Status put_chunk_frame(fs::File& file, const ChunkCursor& cursor,
                       const ChunkFrame& frame, bool fresh);

struct FileHeader {
  std::uint32_t version = kFormatVersion;
  std::uint8_t flags = 0;
  std::uint64_t nblocks = 0;       // 0 until parclose
  std::uint64_t meta2_offset = 0;  // 0 until parclose
  std::uint64_t fsblksize = 0;
  std::uint32_t ntasks = 0;   // tasks mapped to THIS physical file
  std::uint32_t nfiles = 1;   // physical files in the multifile set
  std::uint32_t filenum = 0;  // index of this physical file
  std::vector<std::uint64_t> global_ranks;     // per local task
  std::vector<std::uint64_t> chunksizes_req;   // per local task

  [[nodiscard]] std::vector<std::byte> serialize() const;
  static Result<FileHeader> parse(std::span<const std::byte> bytes);
};

struct FileMeta2 {
  // bytes_written[local task][block] = payload bytes in that chunk.
  std::vector<std::vector<std::uint64_t>> bytes_written;

  [[nodiscard]] std::uint64_t nblocks() const;
  [[nodiscard]] std::vector<std::byte> serialize() const;
  static Result<FileMeta2> parse(std::span<const std::byte> bytes);
};

// Read and parse metablock 1 from an open physical file.
Result<FileHeader> read_header(fs::File& file);

// Read and parse metablock 2 (requires header.meta2_offset != 0); kCorrupt
// when it lists a different number of tasks than `header`.
Result<FileMeta2> read_meta2(fs::File& file, const FileHeader& header);

// Write metablock 2 behind the last block `meta2` uses (at least one) of a
// file whose data starts at `data_start` in blocks of `block_span` bytes,
// and patch the trailer fields of metablock 1 in place.
Status write_meta2_and_trailer(fs::File& file, std::uint64_t data_start,
                               std::uint64_t block_span,
                               const FileMeta2& meta2);

// Name of physical file `filenum` of a multifile set with `nfiles` files:
// the base name itself for a single file, "<name>.<%06u>" otherwise.
std::string physical_file_name(const std::string& base, int filenum,
                               int nfiles);

}  // namespace sion::core
