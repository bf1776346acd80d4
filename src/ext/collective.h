// Collective write aggregation (paper section 6, "coalescing I/O"): the
// paper funnels task-local streams through per-I/O-node multifiles because
// many small uncoordinated writes collapse file-system bandwidth at scale;
// its roadmap names collective aggregation as the next step. This extension
// provides it on top of the SION multifile format.
//
// Ranks are grouped; rank 0 of each group is the *collector*. Members ship
// their chunk payloads to the collector over the par::NetworkModel (gather
// cost charged on the virtual clock), and the collector issues large,
// coalesced, chunk-aligned writes on their behalf — members never touch the
// file system at all, which removes both the per-task open/token pressure
// and the one-write-per-task operation count. Reads run the same pipeline
// in reverse (collector reads, scatters to members).
//
// The on-disk format is the ordinary SION multifile: one logical chunk per
// member rank, so a file written collectively reads back per-rank through
// core::SionParFile::open_read (and vice versa). The chunks of a group are
// packed at `packing_granule` instead of one file-system block each — safe
// because a group has exactly one writer — and only group boundaries are
// padded to the real file-system block, which removes the "at least one
// file-system block per task" floor the paper calls out for small task
// payloads.
//
// Collective calls (open/write/read/read_skip/close) must be made by every
// rank of the communicator, in the same order, like every SIONlib
// collective. Recovery chunk frames are not supported in collective mode.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/multifile.h"
#include "core/par_file.h"
#include "fs/filesystem.h"
#include "par/comm.h"

namespace sion::ext {

struct CollectiveConfig {
  // Member ranks per collector (the collector itself included); 0 gives
  // every physical file one collector.
  int group_size = 0;

  // Cap on the collector-side aggregation buffer; payloads are shipped and
  // flushed in waves of at most this many bytes, so host memory stays
  // bounded regardless of payload size.
  std::uint64_t buffer_bytes = 4 * kMiB;

  // Member chunks pack at this granule (a power of two, clamped to the real
  // file-system block) and each group's end is padded to the real block, so
  // different collectors never share a block. 0 is classic SION alignment:
  // every chunk padded to the real file-system block — no packing win, but
  // collectors still cut opens and op counts.
  std::uint64_t packing_granule = 4 * kKiB;
};

class Collective {
 public:
  // Collective open for writing over `gcom`; every rank passes the same
  // filename/nfiles/mapping and config (chunksize may differ per rank).
  // Only collector ranks open the physical files.
  static Result<std::unique_ptr<Collective>> open_write(
      fs::FileSystem& fs, par::Comm& gcom, const core::ParOpenSpec& spec,
      const CollectiveConfig& config);

  // Collective open for reading; `gcom` must have as many ranks as the
  // multifile was written with. The file may have been written either
  // collectively or through core::SionParFile.
  static Result<std::unique_ptr<Collective>> open_read(
      fs::FileSystem& fs, par::Comm& gcom, const std::string& name,
      const CollectiveConfig& config);

  ~Collective();
  Collective(const Collective&) = delete;
  Collective& operator=(const Collective&) = delete;

  // Collective over the group: every member contributes its payload (sizes
  // may differ; empty is fine). Splits at chunk boundaries internally, like
  // sion_fwrite.
  Status write(fs::DataView data);

  // Collective over the group: every member receives up to out.size() bytes
  // of its own logical stream; returns the bytes actually delivered.
  Result<std::uint64_t> read(std::span<std::byte> out);

  // Timing-only read: charges the full file-system and scatter cost and
  // advances the logical position without materialising payload bytes.
  Status read_skip(std::uint64_t nbytes);

  // Collective close; write mode gathers per-chunk usage to the file-local
  // master, which writes metablock 2 (core::write_chunk_usage, the step
  // SionParFile::close runs too).
  Status close();

  // ---- introspection ------------------------------------------------------
  [[nodiscard]] bool writable() const { return writable_; }
  [[nodiscard]] bool is_collector() const { return group_->rank() == 0; }
  [[nodiscard]] int group_size() const { return group_->size(); }
  [[nodiscard]] int nfiles() const { return place_.nfiles; }
  [[nodiscard]] const std::string& physical_path() const {
    return place_.path;
  }
  // Packing granule the chunks were laid out with (the header's fsblksize).
  [[nodiscard]] std::uint64_t granule() const { return view_.fsblksize; }
  // Usable payload capacity of one chunk of this rank.
  [[nodiscard]] std::uint64_t chunk_capacity() const { return self_.capacity; }
  [[nodiscard]] std::uint64_t bytes_written_total() const;
  [[nodiscard]] std::uint64_t bytes_remaining_total() const;

 private:
  Collective(par::Comm& gcom, core::FilePlacement place, bool writable,
             const CollectiveConfig& config);

  void adopt(core::ChunkView view);

  Status write_as_collector(fs::DataView own,
                            const std::vector<std::uint64_t>& sizes);
  Status write_as_member(fs::DataView data);
  Status read_as_collector(std::span<std::byte> own_out, bool skip,
                           const std::vector<std::uint64_t>& wants);
  Status read_as_member(std::span<std::byte> out, bool skip,
                        std::uint64_t want);
  Result<std::uint64_t> read_impl(std::span<std::byte> out, bool skip,
                                  std::uint64_t want);

  par::Comm* gcom_ = nullptr;
  core::FilePlacement place_;   // the physical file and its tasks
  par::Comm* group_ = nullptr;  // aggregation group within the file
  bool writable_ = false;
  bool closed_ = false;
  std::uint64_t buffer_bytes_ = 0;
  // From the shared open; the file handle is held by collectors only.
  // chunk_bytes: payload bytes per own chunk so far (write mode) or as
  // recorded in metablock 2 (read mode).
  core::ChunkView view_;
  core::ChunkCursor self_;

  // Collector only: every group rank's chunk walk and chunk usage, as the
  // collector moves its bytes. Entry 0 mirrors self_ and view_.chunk_bytes
  // (both advance identically).
  struct Member {
    core::ChunkCursor cursor;
    std::vector<std::uint64_t> chunk_bytes;
  };
  std::vector<Member> members_;
};

// One whole multifile in one collective call: every rank writes `payload`
// as its logical file, aggregated through Collective when `aggregation` is
// given, else through core::SionParFile.
Status write_multifile(fs::FileSystem& fs, par::Comm& gcom,
                       const core::ParOpenSpec& spec,
                       const CollectiveConfig* aggregation,
                       fs::DataView payload);

}  // namespace sion::ext
