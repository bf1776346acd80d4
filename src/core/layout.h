// Geometry of a SION physical file (paper Fig. 2).
//
// A physical file is:
//
//   [ metablock 1 | block 0 | block 1 | ... | block B-1 | metablock 2 ]
//
// where each block holds one *chunk* per task mapped to this file. Chunk
// sizes are the per-task requests rounded up to a multiple of the
// file-system block size, and the data region starts on a file-system block
// boundary, so no two tasks ever share a file-system block (Fig. 2(c)) —
// the property that avoids write-lock false sharing.
//
// FileLayout computes that geometry once, on the file's master. ChunkCursor
// is what every task then walks its chunks with: it hides the chunk-address
// rule of Fig. 2(b) — a task's chunk in block b starts at
// `start0 + b * block_span`, and a task that fills its chunk moves on to the
// same slot in the next block — so every reader and writer computes all of
// its chunk addresses locally, without further communication.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/strings.h"

namespace sion::core {

// Payload bytes a task's per-chunk usage (one row of metablock 2) holds
// from byte `pos` of chunk `block` on.
std::uint64_t bytes_from(std::span<const std::uint64_t> chunk_bytes,
                         std::uint64_t block = 0, std::uint64_t pos = 0);

// The `frame` hook of a writer without recovery frames.
inline Status no_frames(std::uint64_t, bool) { return Status::Ok(); }

// One task's position in its chunks. The cursor holds the geometry and the
// position only; the per-chunk usage `chunk_bytes` (payload bytes per
// chunk, one row of metablock 2) stays with the caller, which may keep one
// row per task.
//
// Both walks call `io(offset, done, take)` once per extent: bytes
// [done, done + take) of the caller's request at file offset `offset`. A
// writer with recovery frames passes `frame(block, fresh)`, which writes
// (`fresh`) or patches the frame of chunk `block`; the walk calls it after
// every extent and when it moves on from a full chunk.
struct ChunkCursor {
  std::uint64_t start0 = 0;      // first payload byte of chunk 0 (after
                                 // any recovery frame)
  std::uint64_t block_span = 0;  // bytes from one chunk to the next
  std::uint64_t capacity = 0;    // payload bytes per chunk
  std::uint64_t block = 0;
  std::uint64_t pos = 0;  // payload bytes into chunk `block`

  // File offset of payload byte `p` of chunk `b`.
  [[nodiscard]] std::uint64_t at(std::uint64_t b, std::uint64_t p = 0) const {
    return start0 + b * block_span + p;
  }

  // Payload bytes that still fit in the current chunk.
  [[nodiscard]] std::uint64_t room() const { return capacity - pos; }

  // Readable bytes left in the current chunk, and in the whole stream.
  [[nodiscard]] std::uint64_t avail(
      std::span<const std::uint64_t> chunk_bytes) const {
    return block < chunk_bytes.size() ? chunk_bytes[block] - pos : 0;
  }
  [[nodiscard]] std::uint64_t remaining(
      std::span<const std::uint64_t> chunk_bytes) const {
    return bytes_from(chunk_bytes, block, pos);
  }

  // Moves to the same chunk slot in the next block. The full chunk's frame
  // is patched first; a chunk new to `chunk_bytes` is appended and gets a
  // fresh frame.
  template <typename Frame>
  Status next_chunk(std::vector<std::uint64_t>& chunk_bytes, Frame&& frame) {
    SION_RETURN_IF_ERROR(frame(block, false));
    ++block;
    pos = 0;
    if (block < chunk_bytes.size()) return Status::Ok();
    chunk_bytes.push_back(0);
    return frame(block, true);
  }

  // Guarantees `n` contiguous bytes in the current chunk, moving to the
  // next one when they do not fit (sion_ensure_free_space).
  template <typename Frame>
  Status reserve(std::uint64_t n, std::vector<std::uint64_t>& chunk_bytes,
                 Frame&& frame) {
    if (n > capacity) {
      return InvalidArgument(strformat(
          "request of %llu bytes exceeds the chunk capacity of %llu; use "
          "write() instead",
          static_cast<unsigned long long>(n),
          static_cast<unsigned long long>(capacity)));
    }
    if (n <= room()) return Status::Ok();
    return next_chunk(chunk_bytes, frame);
  }

  // Write walk: splits `n` bytes at chunk ends (sion_fwrite). After each
  // extent, chunk_bytes[block] becomes max(chunk_bytes[block], pos): a
  // running sum for a writer that only appends, and a serial writer's
  // seek-and-overwrite stays inside what the chunk already holds.
  template <typename Io, typename Frame = Status (*)(std::uint64_t, bool)>
  Status write(std::uint64_t n, std::vector<std::uint64_t>& chunk_bytes,
               Io&& io, Frame&& frame = no_frames) {
    for (std::uint64_t done = 0; done < n;) {
      if (pos == capacity) {
        SION_RETURN_IF_ERROR(next_chunk(chunk_bytes, frame));
      }
      const std::uint64_t take = std::min(room(), n - done);
      SION_RETURN_IF_ERROR(io(at(block, pos), done, take));
      pos += take;
      done += take;
      chunk_bytes[block] = std::max(chunk_bytes[block], pos);
      SION_RETURN_IF_ERROR(frame(block, false));
    }
    return Status::Ok();
  }

  // Read walk: takes at most `n` of the recorded bytes, skipping drained
  // chunks (sion_fread); returns how many it took.
  template <typename Io>
  Result<std::uint64_t> read(std::uint64_t n,
                             std::span<const std::uint64_t> chunk_bytes,
                             Io&& io) {
    const std::uint64_t want = std::min(n, remaining(chunk_bytes));
    for (std::uint64_t done = 0; done < want;) {
      if (pos >= chunk_bytes[block]) {
        ++block;
        pos = 0;
        continue;
      }
      const std::uint64_t take =
          std::min(chunk_bytes[block] - pos, want - done);
      SION_RETURN_IF_ERROR(io(at(block, pos), done, take));
      pos += take;
      done += take;
    }
    return want;
  }
};

// The `io` of a walk that only moves the cursor: a task whose bytes another
// task moves keeps its own position and usage in step with it.
inline Status no_io(std::uint64_t, std::uint64_t, std::uint64_t) {
  return Status::Ok();
}

class FileLayout {
 public:
  // `chunksizes_req` are the per-local-task requested chunk sizes;
  // `meta1_bytes` is the serialized size of metablock 1.
  static Result<FileLayout> create(
      std::uint64_t fsblksize,
      const std::vector<std::uint64_t>& chunksizes_req,
      std::uint64_t meta1_bytes);

  // Block-aligned chunk size of local task `t`.
  [[nodiscard]] std::uint64_t chunksize(int t) const {
    return aligned_[static_cast<std::size_t>(t)];
  }

  // First byte of the data region (block 0), on an fs-block boundary.
  [[nodiscard]] std::uint64_t data_start() const { return data_start_; }

  // Bytes spanned by one block (sum of aligned chunk sizes).
  [[nodiscard]] std::uint64_t block_span() const { return block_span_; }

  // Start offset of task `t`'s chunk within any block.
  [[nodiscard]] std::uint64_t chunk_offset_in_block(int t) const {
    return prefix_[static_cast<std::size_t>(t)];
  }

  // Absolute offset of task `t`'s chunk in block `b`.
  [[nodiscard]] std::uint64_t chunk_start(int t, std::uint64_t b) const {
    return data_start_ + b * block_span_ + chunk_offset_in_block(t);
  }

  // Task `t`'s walk over its chunks, from the start, with `reserved` bytes
  // (a recovery frame) in front of every chunk's payload.
  [[nodiscard]] ChunkCursor cursor(int t, std::uint64_t reserved) const {
    return ChunkCursor{chunk_start(t, 0) + reserved, block_span_,
                       chunksize(t) - reserved};
  }

 private:
  std::uint64_t data_start_ = 0;
  std::uint64_t block_span_ = 0;
  std::vector<std::uint64_t> aligned_;
  std::vector<std::uint64_t> prefix_;
};

}  // namespace sion::core
