// The collective metadata protocol of a SION multifile (paper section 3.1),
// written once for every parallel writer and reader (core::SionParFile,
// ext::Collective and the ext::Buddy mirror writer):
//
//   open for writing  the master of each physical file (rank 0 of the
//                     per-file communicator) gathers the chunk sizes, lays
//                     the file out, creates it and writes metablock 1, then
//                     broadcasts the geometry and scatters chunk offsets;
//   open for reading  the global master discovers the set and scatters the
//                     rank -> file map; each file master parses both
//                     metablocks and scatters every task's view;
//   close             the master gathers every task's chunk usage and
//                     writes metablock 2 plus the metablock-1 trailer.
//
// The callers differ only in data (which ranks need a file handle, the
// chunk granule and group padding, whether requested sizes travel back,
// which header flags a reader accepts), and each keeps its own order of
// collectives around these steps. Every run of collectives between two
// file-system operations is one par::Comm::exchange rendezvous.
//
// Discovery of a set on disk and the "both metablocks parse" probe live
// here as well, for the serial readers and the recovery paths.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/layout.h"
#include "core/metadata.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::core {

// ---- discovery and probe ---------------------------------------------------

// The first physical file of multifile `name` (`name` itself, else
// "name.000000"), open for reading, with its metablock 1, whose `nfiles`
// names the rest of the set.
struct FirstPhysicalFile {
  std::unique_ptr<fs::File> file;
  FileHeader header;
};
Result<FirstPhysicalFile> discover_multifile(fs::FileSystem& fs,
                                             const std::string& name);

// True when `path` opens, both metablocks parse, and the header places the
// file in a set of `nfiles`. Missing files, injected faults and truncation
// (metablock 2 lives at the end) all fail it.
bool physical_file_usable(fs::FileSystem& fs, const std::string& path,
                          int nfiles);

// The geometry metablock 1 describes.
Result<FileLayout> header_layout(const FileHeader& header);

// Lays a physical file out from its metablock 1 and creates it at `path`
// with that metablock written: the master's step of every create.
struct CreatedFile {
  FileLayout layout;
  std::unique_ptr<fs::File> file;
};
Result<CreatedFile> create_with_metablock1(fs::FileSystem& fs,
                                           const std::string& path,
                                           const FileHeader& header);

// Copies the `size` bytes of physical file `src`, whose metablock 1 is
// `header`, to `dst` through a buffer of `buffer_bytes`. With `filenum`
// set, the copy's metablock 1 is rewritten to take that place in its set.
Status copy_physical_file(fs::File& src, const FileHeader& header,
                          std::uint64_t size, fs::File& dst,
                          std::uint64_t buffer_bytes,
                          std::optional<std::uint32_t> filenum);

// ---- collective open and close steps ---------------------------------------

// The physical file a task of a collective open works on, and the
// communicator of that file's tasks.
struct FilePlacement {
  int nfiles = 1;
  int filenum = 0;
  std::string path;
  par::Comm* lcom = nullptr;
};

// Placement on physical file `filenum` of the `nfiles` of multifile
// `name`: `gcom` splits into one communicator per physical file (the
// paper's gcom -> lcom split).
FilePlacement place_on_file(par::Comm& gcom, const std::string& name,
                            int filenum, int nfiles);

// Rank 0 of `gcom` reads every header of multifile `name`, checks that the
// set was written by exactly gcom.size() tasks, and scatters the
// rank -> file map (one exchange with its status and the file count); then
// every task is placed on its file.
Result<FilePlacement> place_in_multifile(fs::FileSystem& fs, par::Comm& gcom,
                                         const std::string& name,
                                         const char* what);

// The file-system block size: `fsblksize` itself when nonzero; otherwise
// rank 0 of `comm` detects it for the directory of `path` (the paper's
// fstat()) and shares the outcome and the value over `comm` in one
// exchange. The result is not checked here: create_physical_file rejects a
// block size that is not a power of two inside its agreement, so every task
// fails, not just the one that passed it.
Result<std::uint64_t> agree_block_size(fs::FileSystem& fs, par::Comm& comm,
                                       const std::string& path,
                                       std::uint64_t fsblksize,
                                       const char* what);

// One task's view of its physical file after a collective open.
struct ChunkView {
  std::unique_ptr<fs::File> file;  // null where no handle was asked for
  std::uint64_t fsblksize = 0;     // the header's chunk granule
  std::uint8_t flags = 0;
  std::uint64_t data_start = 0;
  std::uint64_t block_span = 0;
  std::uint64_t chunk_start0 = 0;  // this task's chunk in block 0
  std::uint64_t chunksize = 0;     // this task's requested chunk size
  // Read: payload bytes per chunk from metablock 2, never empty. Write: {0}.
  std::vector<std::uint64_t> chunk_bytes;

  [[nodiscard]] std::uint64_t aligned_chunksize() const {
    return round_up(chunksize, fsblksize);
  }

  // This task's walk over its chunks, from the start, with `reserved` bytes
  // (a recovery frame) in front of every chunk's payload.
  [[nodiscard]] ChunkCursor cursor(std::uint64_t reserved = 0) const {
    return ChunkCursor{chunk_start0 + reserved, block_span,
                       aligned_chunksize() - reserved};
  }
};

struct CreateSpec {
  std::uint8_t flags = 0;
  // The file-system block size; 0 = the file's master detects it (the
  // paper's fstat()) and shares it with the file's tasks.
  std::uint64_t fsblksize = 0;
  // Chunks pack at this finer granule when it is a power of two dividing
  // the block size; otherwise (and when 0) at the block size itself.
  std::uint64_t granule = 0;
  // When nonzero and chunks pack finer than the block, the master pads the
  // last chunk of every `pad_group` consecutive tasks so that each group
  // ends on a block boundary.
  int pad_group = 0;
  std::uint64_t chunksize = 0;  // this task's requested chunk size
  // The file's tasks carry consecutive global ranks from this one when set;
  // otherwise every task's `gcom` rank is gathered.
  std::optional<std::uint64_t> first_global_rank;
  // Scatter every task's (possibly padded) requested size back to it;
  // otherwise ChunkView::chunksize is this task's own `chunksize`.
  bool scatter_chunksizes = false;
  bool open_handle = true;  // the master always holds one
  // The caller's closing barrier over `gcom` joins the last agreement's
  // rendezvous (same virtual time as a barrier right after the create).
  bool closing_barrier = false;
  const char* what = "";    // message for failures on other tasks
  // This task's own failure from before the create (e.g. a zero chunk
  // size). It joins the create's agreement, so every task fails instead of
  // the others deadlocking in the collectives; the master skips the create
  // when its own check failed. A chunk too small for its recovery frame
  // (with kFlagChunkFrames), or a granule or padding block that is not a
  // power of two, fails the same way.
  Status task_status;
};

// Collective create of the physical file `place` names, over its
// communicator; failures are agreed over `gcom` as well. Each task suspends
// three times: block size plus gathers, the create's vote plus the layout,
// and the non-masters' open vote.
Result<ChunkView> create_physical_file(fs::FileSystem& fs, par::Comm& gcom,
                                       const FilePlacement& place,
                                       const CreateSpec& spec);

struct OpenReadSpec {
  // Header flags the reader supports; the master rejects a file with any
  // other flag set. When none are allowed, the flags are not broadcast.
  std::uint8_t allowed_flags = 0;
  bool open_handle = true;  // the master always holds one
  bool closing_barrier = false;  // as in CreateSpec
  const char* what = "";
};

// Collective read open of the physical file `place` names: its master
// parses both metablocks and scatters every task's view; failures are
// agreed over `gcom` as well. Each task suspends twice: the master's vote
// plus the view, and the non-masters' open vote.
Result<ChunkView> open_physical_file(fs::FileSystem& fs, par::Comm& gcom,
                                     const FilePlacement& place,
                                     const OpenReadSpec& spec);

// Close step of a writer: gathers every task's per-chunk usage to rank 0 of
// `lcom`, which writes metablock 2 behind the last block and patches the
// metablock-1 trailer through `file` (no write when null). Returns the
// master's write status, Ok on every other task.
Status write_chunk_usage(par::Comm& lcom, fs::File* file,
                         std::uint64_t data_start, std::uint64_t block_span,
                         std::span<const std::uint64_t> chunk_bytes);

// The close vote: rank 0 of each file shares `mine` over the file's
// communicator and `gcom` agrees, in one rendezvous (par::Comm::exchange).
Status agree_over_files(par::Comm& gcom, const FilePlacement& place,
                        const Status& mine, const char* what);

// The entire remaining logical stream of a parallel reader (SionParFile or
// ext::Collective) as one buffer: the raw-byte foundation of compressed
// restores, whose frame boundaries do not respect chunk boundaries.
template <typename Reader>
Result<std::vector<std::byte>> read_whole_stream(Reader& reader) {
  std::vector<std::byte> out(
      static_cast<std::size_t>(reader.bytes_remaining_total()));
  SION_ASSIGN_OR_RETURN(const std::uint64_t got, reader.read(out));
  if (got != out.size()) {
    return Corrupt(strformat("logical stream delivered %llu of %zu "
                             "remaining bytes",
                             static_cast<unsigned long long>(got),
                             out.size()));
  }
  return out;
}

}  // namespace sion::core
