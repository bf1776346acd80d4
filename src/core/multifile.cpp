#include "core/multifile.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/codec.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/layout.h"
#include "fs/path.h"

namespace sion::core {

// The master-only steps below run as out-of-line lambdas: inlined, their
// locals would sit in the frame of every task of the file, and one more
// touched stack page per fiber costs 64 MiB of RSS at 16Ki tasks.

namespace {

// Every task except the master (which created or parsed the file) opens
// its own handle when it asked for one; a failure anywhere fails all. The
// agreement runs the collectives of par::share_status_global, but a task's
// own failed open joins the global vote as well.
Status open_handles(fs::FileSystem& fs, par::Comm& lcom, par::Comm& gcom,
                    const std::string& path, bool wanted, bool writable,
                    std::unique_ptr<fs::File>& file, const char* what) {
  Status st;
  if (wanted && lcom.rank() != 0) {
    auto opened = writable ? fs.open_rw(path) : fs.open_read(path);
    if (opened.ok()) {
      file = std::move(opened).value();
    } else {
      st = opened.status();
    }
  }
  Status shared = par::share_status(lcom, st, 0, what);
  if (shared.ok()) shared = st;
  return par::agree_status(gcom, shared, what);
}

// Pads the last chunk of every `group` consecutive tasks so that the group
// ends on a multiple of `block` in a file whose data starts at
// `data_start`: a group has exactly one writer, so only boundaries
// *between* groups can false-share a block, and this removes them.
void pad_group_ends(std::vector<std::uint64_t>& chunksizes,
                    std::uint64_t granule, std::uint64_t data_start,
                    std::uint64_t block, int group) {
  const std::size_t n = chunksizes.size();
  const auto g = static_cast<std::size_t>(group);
  std::uint64_t prefix = 0;
  for (std::size_t t = 0; t < n; ++t) {
    std::uint64_t aligned = round_up(chunksizes[t], granule);
    if (t % g == g - 1 || t == n - 1) {
      const std::uint64_t end = data_start + prefix + aligned;
      const std::uint64_t pad = round_up(end, block) - end;
      chunksizes[t] += pad;
      aligned += pad;
    }
    prefix += aligned;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// discovery and probe
// ---------------------------------------------------------------------------

Result<FirstPhysicalFile> discover_multifile(fs::FileSystem& fs,
                                             const std::string& name) {
  std::string first = name;
  if (!fs.exists(first)) first = physical_file_name(name, 0, 2);
  FirstPhysicalFile out;
  SION_ASSIGN_OR_RETURN(out.file, fs.open_read(first));
  SION_ASSIGN_OR_RETURN(out.header, read_header(*out.file));
  return out;
}

bool physical_file_usable(fs::FileSystem& fs, const std::string& path,
                          int nfiles) {
  auto file = fs.open_read(path);
  if (!file.ok()) return false;
  auto header = read_header(*file.value());
  if (!header.ok()) return false;
  if (static_cast<int>(header.value().nfiles) != nfiles) return false;
  return read_meta2(*file.value(), header.value()).ok();
}

Result<FileLayout> header_layout(const FileHeader& header) {
  return FileLayout::create(header.fsblksize, header.chunksizes_req,
                            header.serialize().size());
}

Result<CreatedFile> create_with_metablock1(fs::FileSystem& fs,
                                           const std::string& path,
                                           const FileHeader& header) {
  const std::vector<std::byte> meta1 = header.serialize();
  CreatedFile out;
  SION_ASSIGN_OR_RETURN(out.layout,
                        FileLayout::create(header.fsblksize,
                                           header.chunksizes_req,
                                           meta1.size()));
  SION_ASSIGN_OR_RETURN(out.file, fs.create(path));
  SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                        out.file->pwrite(fs::DataView(meta1), 0));
  (void)n;
  return out;
}

Status copy_physical_file(fs::File& src, const FileHeader& header,
                          std::uint64_t size, fs::File& dst,
                          std::uint64_t buffer_bytes,
                          std::optional<std::uint32_t> filenum) {
  std::vector<std::byte> buf(
      static_cast<std::size_t>(std::max<std::uint64_t>(1, buffer_bytes)));
  for (std::uint64_t done = 0; done < size;) {
    const auto piece = std::span<std::byte>(buf).first(
        static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(),
                                                          size - done)));
    SION_ASSIGN_OR_RETURN(const std::uint64_t got, src.pread(piece, done));
    if (got != piece.size()) {
      return Corrupt(strformat("physical file shrank to %llu bytes while "
                               "being copied",
                               static_cast<unsigned long long>(done + got)));
    }
    SION_ASSIGN_OR_RETURN(const std::uint64_t put,
                          dst.pwrite(fs::DataView(piece), done));
    if (put != got) return IoError("short write while copying a file");
    done += got;
  }
  if (!filenum) return Status::Ok();
  FileHeader renumbered = header;
  renumbered.filenum = *filenum;
  const std::vector<std::byte> meta1 = renumbered.serialize();
  SION_ASSIGN_OR_RETURN(const std::uint64_t put,
                        dst.pwrite(fs::DataView(meta1), 0));
  if (put != meta1.size()) return IoError("short metablock-1 rewrite");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// placement
// ---------------------------------------------------------------------------

FilePlacement place_on_file(par::Comm& gcom, const std::string& name,
                            int filenum, int nfiles) {
  FilePlacement out{nfiles, filenum,
                    physical_file_name(name, filenum, nfiles), nullptr};
  out.lcom = gcom.split(filenum, gcom.rank());
  SION_CHECK(out.lcom != nullptr) << "split returned no communicator";
  return out;
}

Result<FilePlacement> place_in_multifile(fs::FileSystem& fs, par::Comm& gcom,
                                         const std::string& name,
                                         const char* what) {
  const int gsize = gcom.size();
  // The global master learns the rank -> file map from the headers and
  // *scatters* it: each task learns only its own file index, keeping the
  // collective O(ntasks) total instead of O(ntasks) per task.
  Status st;
  std::uint64_t nfiles = 0;
  std::vector<std::uint64_t> file_of_rank;  // master only
  if (gcom.rank() == 0) {
    st = [&]() __attribute__((noinline)) -> Status {
      SION_ASSIGN_OR_RETURN(const FirstPhysicalFile first,
                            discover_multifile(fs, name));
      const int n = static_cast<int>(first.header.nfiles);
      std::uint64_t total_tasks = 0;
      file_of_rank.assign(static_cast<std::size_t>(gsize), 0);
      for (int f = 0; f < n; ++f) {
        FileHeader other;
        if (f != 0) {
          SION_ASSIGN_OR_RETURN(
              auto file, fs.open_read(physical_file_name(name, f, n)));
          SION_ASSIGN_OR_RETURN(other, read_header(*file));
        }
        const FileHeader& h = f == 0 ? first.header : other;
        total_tasks += h.ntasks;
        for (const std::uint64_t r : h.global_ranks) {
          if (r >= static_cast<std::uint64_t>(gsize)) {
            return InvalidArgument(strformat(
                "multifile was written by rank %llu but only %d tasks "
                "opened it (task count must match the writer)",
                static_cast<unsigned long long>(r), gsize));
          }
          file_of_rank[r] = static_cast<std::uint64_t>(f);
        }
      }
      if (total_tasks != static_cast<std::uint64_t>(gsize)) {
        return InvalidArgument(strformat(
            "multifile holds %llu logical files but %d tasks opened it",
            static_cast<unsigned long long>(total_tasks), gsize));
      }
      nfiles = static_cast<std::uint64_t>(n);
      return Status::Ok();
    }();
  }
  SION_RETURN_IF_ERROR(par::share_status(gcom, st, 0, what));

  const auto n = static_cast<int>(gcom.bcast_u64(nfiles, 0));
  const auto filenum = static_cast<int>(gcom.scatter_u64(file_of_rank, 0));
  return place_on_file(gcom, name, filenum, n);
}

// ---------------------------------------------------------------------------
// open
// ---------------------------------------------------------------------------

Result<std::uint64_t> agree_block_size(fs::FileSystem& fs, par::Comm& lcom,
                                       par::Comm* gcom,
                                       const std::string& path,
                                       std::uint64_t fsblksize,
                                       const char* what) {
  if (fsblksize == 0) {
    Status st;
    if (lcom.rank() == 0) {
      auto detected = fs.block_size(fs::parent(path));
      if (detected.ok()) {
        fsblksize = detected.value();
      } else {
        st = detected.status();
      }
    }
    SION_RETURN_IF_ERROR(
        gcom != nullptr ? par::share_status_global(lcom, *gcom, st, 0, what)
                        : par::share_status(lcom, st, 0, what));
    fsblksize = lcom.bcast_u64(fsblksize, 0);
  }
  return fsblksize;
}

Result<ChunkView> create_physical_file(fs::FileSystem& fs, par::Comm& gcom,
                                       const FilePlacement& place,
                                       const CreateSpec& spec) {
  par::Comm& lcom = *place.lcom;
  const int lsize = lcom.size();
  std::vector<std::uint64_t> chunksizes = lcom.gather_u64(spec.chunksize, 0);
  std::vector<std::uint64_t> granks;
  if (!spec.first_global_rank) {
    granks = lcom.gather_u64(static_cast<std::uint64_t>(gcom.rank()), 0);
  }

  ChunkView view;
  view.fsblksize = spec.fsblksize;
  view.flags = spec.flags;
  std::vector<std::uint64_t> chunk_offsets;
  Status st = spec.task_status;
  if (st.ok() && (!is_power_of_two(spec.fsblksize) ||
                  (spec.pad_block != 0 && !is_power_of_two(spec.pad_block)))) {
    st = InvalidArgument("file-system block size must be a power of two");
  }
  if (lcom.rank() == 0 && st.ok()) {
    st = [&]() __attribute__((noinline)) -> Status {
      FileHeader header;
      header.flags = spec.flags;
      header.fsblksize = spec.fsblksize;
      header.ntasks = static_cast<std::uint32_t>(lsize);
      header.nfiles = static_cast<std::uint32_t>(place.nfiles);
      header.filenum = static_cast<std::uint32_t>(place.filenum);
      if (spec.first_global_rank) {
        granks.resize(static_cast<std::size_t>(lsize));
        std::iota(granks.begin(), granks.end(), *spec.first_global_rank);
      }
      header.global_ranks = std::move(granks);
      header.chunksizes_req = chunksizes;
      if (spec.pad_block != 0) {
        // The serialized size depends only on the task count, so the
        // unpadded header already has the final metablock-1 size.
        pad_group_ends(chunksizes, spec.fsblksize,
                       round_up(header.serialize().size(), spec.fsblksize),
                       spec.pad_block, spec.pad_group);
        header.chunksizes_req = chunksizes;
      }
      SION_ASSIGN_OR_RETURN(CreatedFile created,
                            create_with_metablock1(fs, place.path, header));
      view.file = std::move(created.file);
      view.data_start = created.layout.data_start();
      view.block_span = created.layout.block_span();
      chunk_offsets.resize(static_cast<std::size_t>(lsize));
      for (int t = 0; t < lsize; ++t) {
        chunk_offsets[static_cast<std::size_t>(t)] =
            created.layout.chunk_offset_in_block(t);
      }
      return Status::Ok();
    }();
  }
  // The collectives of par::share_status_global, with a task's own failure
  // joining the global vote (as in open_handles).
  Status shared = par::share_status(lcom, st, 0, spec.what);
  if (shared.ok()) shared = st;
  SION_RETURN_IF_ERROR(par::agree_status(gcom, shared, spec.what));

  // Everyone learns where its chunks live; no further communication is
  // needed for any later chunk (paper 3.1). The geometry broadcasts fuse
  // into one suspension (bit-identical virtual cost, see bcast_u64_seq).
  std::uint64_t geom[2] = {view.data_start, view.block_span};
  lcom.bcast_u64_seq(geom, 0);
  view.data_start = geom[0];
  view.block_span = geom[1];
  std::uint64_t offset = 0;
  view.chunksize = spec.chunksize;
  if (spec.scatter_chunksizes) {
    std::tie(offset, view.chunksize) =
        lcom.scatter2_u64(chunk_offsets, chunksizes, 0);
  } else {
    offset = lcom.scatter_u64(chunk_offsets, 0);
  }
  view.chunk_start0 = view.data_start + offset;
  view.chunk_bytes.assign(1, 0);

  // Non-masters open the (hot) physical file: the cheap path that makes
  // SIONlib creation orders of magnitude faster than task-local files.
  SION_RETURN_IF_ERROR(open_handles(fs, lcom, gcom, place.path,
                                    spec.open_handle, /*writable=*/true,
                                    view.file, spec.what));
  return view;
}

Result<ChunkView> open_physical_file(fs::FileSystem& fs, par::Comm& gcom,
                                     const FilePlacement& place,
                                     const OpenReadSpec& spec) {
  par::Comm& lcom = *place.lcom;
  // The master parses both metablocks and scatters each task's view:
  // geometry plus the bytes-actually-written array per chunk.
  ChunkView view;
  std::vector<std::uint64_t> chunk_offsets;
  std::vector<std::uint64_t> requested;
  std::vector<std::byte> blobs_flat;
  std::vector<std::uint64_t> blob_sizes;
  Status st;
  if (lcom.rank() == 0) {
    st = [&]() __attribute__((noinline)) -> Status {
      SION_ASSIGN_OR_RETURN(auto file, fs.open_read(place.path));
      SION_ASSIGN_OR_RETURN(const FileHeader header, read_header(*file));
      if (static_cast<int>(header.ntasks) != lcom.size()) {
        return InvalidArgument(
            strformat("physical file %s holds %u logical files but %d tasks "
                      "opened it",
                      place.path.c_str(), header.ntasks, lcom.size()));
      }
      if ((header.flags & ~spec.allowed_flags) != 0) {
        return InvalidArgument(
            strformat("physical file %s uses header flags 0x%02x, which "
                      "this reader does not support",
                      place.path.c_str(), header.flags));
      }
      SION_ASSIGN_OR_RETURN(const FileMeta2 meta2, read_meta2(*file, header));
      SION_ASSIGN_OR_RETURN(const FileLayout layout, header_layout(header));
      view.fsblksize = header.fsblksize;
      view.flags = header.flags;
      view.data_start = layout.data_start();
      view.block_span = layout.block_span();
      chunk_offsets.resize(header.ntasks);
      requested = header.chunksizes_req;
      blob_sizes.resize(header.ntasks);
      // One flat buffer for every task's bytes-written array, sliced by the
      // scatter below — not one heap blob per task.
      ByteWriter w;
      for (std::uint32_t t = 0; t < header.ntasks; ++t) {
        chunk_offsets[t] = layout.chunk_offset_in_block(static_cast<int>(t));
        const std::size_t at = w.size();
        w.put_u64_array(meta2.bytes_written[t]);
        blob_sizes[t] = w.size() - at;
      }
      blobs_flat = w.take();
      view.file = std::move(file);
      return Status::Ok();
    }();
  }
  SION_RETURN_IF_ERROR(par::share_status_global(lcom, gcom, st, 0, spec.what));

  // The flags travel only to readers that allow any.
  std::array<std::uint64_t, 4> geom = {view.fsblksize, view.data_start,
                                       view.block_span, view.flags};
  lcom.bcast_u64_seq(
      std::span<std::uint64_t>(geom).first(spec.allowed_flags != 0 ? 4 : 3),
      0);
  view.fsblksize = geom[0];
  view.data_start = geom[1];
  view.block_span = geom[2];
  view.flags = static_cast<std::uint8_t>(geom[3]);
  const auto [offset, chunksize] =
      lcom.scatter2_u64(chunk_offsets, requested, 0);
  const std::vector<std::byte> blob =
      lcom.scatterv_bytes_flat(blobs_flat, blob_sizes, 0);
  ByteReader reader(blob);
  SION_ASSIGN_OR_RETURN(view.chunk_bytes, reader.get_u64_array());
  if (view.chunk_bytes.empty()) view.chunk_bytes.assign(1, 0);
  view.chunk_start0 = view.data_start + offset;
  view.chunksize = chunksize;

  SION_RETURN_IF_ERROR(open_handles(fs, lcom, gcom, place.path,
                                    spec.open_handle, /*writable=*/false,
                                    view.file, spec.what));
  return view;
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status write_chunk_usage(par::Comm& lcom, fs::File* file,
                         std::uint64_t data_start, std::uint64_t block_span,
                         std::span<const std::uint64_t> chunk_bytes) {
  // "the master collects the number of bytes from each task that was
  // effectively written and stores it in the metadata block" (paper 3.1).
  const auto all = lcom.gatherv_u64_flat(chunk_bytes, 0);
  if (lcom.rank() != 0 || file == nullptr) return Status::Ok();
  FileMeta2 meta2;
  meta2.bytes_written.resize(static_cast<std::size_t>(lcom.size()));
  for (int t = 0; t < lcom.size(); ++t) {
    const auto piece = all.of(t);
    meta2.bytes_written[static_cast<std::size_t>(t)].assign(piece.begin(),
                                                            piece.end());
  }
  return write_meta2_and_trailer(*file, data_start, block_span, meta2);
}

}  // namespace sion::core
