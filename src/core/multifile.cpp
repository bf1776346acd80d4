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

using Step = par::Comm::Step;

// Every task except the master (which created or parsed the file) opens
// its own handle when it asked for one, then the file's tasks vote: a
// failure anywhere, the master's or a task's own failed open, fails all.
// With `closing_barrier` the open's closing barrier over `gcom` joins the
// vote's rendezvous.
Status open_handles(fs::FileSystem& fs, par::Comm& gcom,
                    const FilePlacement& place, bool wanted, bool writable,
                    bool closing_barrier, std::unique_ptr<fs::File>& file,
                    const char* what) {
  Status st;
  if (wanted && place.lcom->rank() != 0) {
    auto opened =
        writable ? fs.open_rw(place.path) : fs.open_read(place.path);
    if (opened.ok()) {
      file = std::move(opened).value();
    } else {
      st = opened.status();
    }
  }
  static constexpr Step kSteps[] = {Step::kVote, Step::kSync};
  par::Comm::Exchange x;
  return gcom.exchange(*place.lcom, place.filenum, place.nfiles,
                       std::span(kSteps).first(closing_barrier ? 2 : 1), x,
                       st, what);
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
  // collective O(ntasks) total instead of O(ntasks) per task. Its status,
  // the file count and the map travel in one exchange.
  Status st;
  std::uint64_t words[2] = {0, 0};  // nfiles, this task's file
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
      words[0] = static_cast<std::uint64_t>(n);
      return Status::Ok();
    }();
  }
  static constexpr Step kSteps[] = {Step::kVote, Step::kBcast,
                                    Step::kScatter};
  par::Comm::Exchange x;
  x.words = words;
  x.scatter = file_of_rank;
  SION_RETURN_IF_ERROR(gcom.exchange(gcom, 0, 1, kSteps, x, st, what));
  return place_on_file(gcom, name, static_cast<int>(words[1]),
                       static_cast<int>(words[0]));
}

// ---------------------------------------------------------------------------
// open
// ---------------------------------------------------------------------------

namespace {

// The master's fstat(): the block size of the directory holding `path`.
__attribute__((noinline)) Status detect_block_size(fs::FileSystem& fs,
                                                   const std::string& path,
                                                   std::uint64_t& out) {
  SION_ASSIGN_OR_RETURN(out, fs.block_size(fs::parent(path)));
  return Status::Ok();
}

}  // namespace

Result<std::uint64_t> agree_block_size(fs::FileSystem& fs, par::Comm& comm,
                                       const std::string& path,
                                       std::uint64_t fsblksize,
                                       const char* what) {
  if (fsblksize != 0) return fsblksize;
  Status st;
  if (comm.rank() == 0) st = detect_block_size(fs, path, fsblksize);
  static constexpr Step kSteps[] = {Step::kVote, Step::kBcast};
  par::Comm::Exchange x;
  x.words = std::span(&fsblksize, 1);
  SION_RETURN_IF_ERROR(comm.exchange(comm, 0, 1, kSteps, x, st, what));
  return fsblksize;
}

Result<ChunkView> create_physical_file(fs::FileSystem& fs, par::Comm& gcom,
                                       const FilePlacement& place,
                                       const CreateSpec& spec) {
  par::Comm& lcom = *place.lcom;
  const int lsize = lcom.size();
  const bool master = lcom.rank() == 0;

  // One exchange: the block size (detected by the master unless given),
  // then every task's chunk size and, unless they are consecutive, its
  // global rank, gathered to the master.
  Status st;
  std::uint64_t words[4] = {spec.fsblksize, spec.chunksize,
                            static_cast<std::uint64_t>(gcom.rank()), 0};
  if (spec.fsblksize == 0 && master) {
    st = detect_block_size(fs, place.path, words[0]);
  }
  // The steps, and their words, without the block size when it is given
  // and without the global ranks when they are consecutive.
  static constexpr Step kGatherSteps[] = {Step::kVote, Step::kBcast,
                                          Step::kGather, Step::kGather};
  const bool detect = spec.fsblksize == 0;
  const std::size_t from = detect ? 0 : 2;
  const std::size_t to = spec.first_global_rank ? 3 : 4;
  // Master: the chunk sizes and global ranks, then the words to scatter.
  std::vector<std::uint64_t> gathered;
  par::Comm::Exchange x;
  x.words = std::span(words).subspan(detect ? 0 : 1, to - (detect ? 1 : 2));
  x.gathered = &gathered;
  SION_RETURN_IF_ERROR(gcom.exchange(
      lcom, place.filenum, place.nfiles,
      std::span(kGatherSteps).subspan(from, to - from), x, st, spec.what));
  const std::uint64_t block = words[0];

  // Chunks pack at `spec.granule` only when it is a power of two dividing
  // the block; then group padding keeps collectors off each other's blocks.
  ChunkView view;
  view.fsblksize = spec.granule != 0 && spec.granule < block &&
                           is_power_of_two(spec.granule) &&
                           block % spec.granule == 0
                       ? spec.granule
                       : block;
  view.flags = spec.flags;
  const std::uint64_t pad_block =
      spec.pad_group != 0 && view.fsblksize < block ? block : 0;
  st = spec.task_status;
  if (st.ok() && (spec.flags & kFlagChunkFrames) != 0 && view.fsblksize != 0 &&
      round_up(spec.chunksize, view.fsblksize) <= kChunkFrameSize) {
    st = InvalidArgument("chunk too small for recovery frame");
  }
  if (st.ok() && (!is_power_of_two(view.fsblksize) ||
                  (pad_block != 0 && !is_power_of_two(pad_block)))) {
    st = InvalidArgument("file-system block size must be a power of two");
  }
  if (master && st.ok()) {
    st = [&]() __attribute__((noinline)) -> Status {
      FileHeader header;
      header.flags = spec.flags;
      header.fsblksize = view.fsblksize;
      header.ntasks = static_cast<std::uint32_t>(lsize);
      header.nfiles = static_cast<std::uint32_t>(place.nfiles);
      header.filenum = static_cast<std::uint32_t>(place.filenum);
      const auto n = static_cast<std::size_t>(lsize);
      const auto half = gathered.begin() + static_cast<std::ptrdiff_t>(n);
      header.chunksizes_req.assign(gathered.begin(), half);
      if (spec.first_global_rank) {
        header.global_ranks.resize(n);
        std::iota(header.global_ranks.begin(), header.global_ranks.end(),
                  *spec.first_global_rank);
      } else {
        header.global_ranks.assign(half, gathered.end());
      }
      if (pad_block != 0) {
        // The serialized size depends only on the task count, so the
        // unpadded header already has the final metablock-1 size.
        pad_group_ends(header.chunksizes_req, view.fsblksize,
                       round_up(header.serialize().size(), view.fsblksize),
                       pad_block, spec.pad_group);
      }
      SION_ASSIGN_OR_RETURN(CreatedFile created,
                            create_with_metablock1(fs, place.path, header));
      view.file = std::move(created.file);
      view.data_start = created.layout.data_start();
      view.block_span = created.layout.block_span();
      // The gathered words make room for the scatter: offsets, then the
      // (padded) requested sizes.
      gathered.resize(2 * n);
      for (int t = 0; t < lsize; ++t) {
        gathered[static_cast<std::size_t>(t)] =
            created.layout.chunk_offset_in_block(t);
      }
      std::copy(header.chunksizes_req.begin(), header.chunksizes_req.end(),
                gathered.begin() + static_cast<std::ptrdiff_t>(n));
      return Status::Ok();
    }();
  }

  // One exchange: the create's vote, then everyone learns where its chunks
  // live; no further communication is needed for any later chunk (paper
  // 3.1).
  static constexpr Step kLayoutSteps[] = {Step::kVote, Step::kBcast,
                                          Step::kBcast, Step::kScatter,
                                          Step::kScatter};
  words[0] = view.data_start;
  words[1] = view.block_span;
  words[2] = 0;
  words[3] = spec.chunksize;
  x = par::Comm::Exchange{};
  x.words = std::span(words).first(spec.scatter_chunksizes ? 4 : 3);
  x.scatter = gathered;
  SION_RETURN_IF_ERROR(gcom.exchange(
      lcom, place.filenum, place.nfiles,
      std::span(kLayoutSteps).first(spec.scatter_chunksizes ? 5 : 4), x, st,
      spec.what));
  view.data_start = words[0];
  view.block_span = words[1];
  view.chunk_start0 = view.data_start + words[2];
  view.chunksize = words[3];
  view.chunk_bytes.assign(1, 0);

  // Non-masters open the (hot) physical file: the cheap path that makes
  // SIONlib creation orders of magnitude faster than task-local files.
  SION_RETURN_IF_ERROR(open_handles(fs, gcom, place, spec.open_handle,
                                    /*writable=*/true, spec.closing_barrier,
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
  std::vector<std::uint64_t> to_scatter;  // offsets, then requested sizes
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
      to_scatter.resize(2 * std::size_t{header.ntasks});
      std::copy(header.chunksizes_req.begin(), header.chunksizes_req.end(),
                to_scatter.begin() + header.ntasks);
      blob_sizes.resize(header.ntasks);
      // One flat buffer for every task's bytes-written array, sliced by the
      // scatter below — not one heap blob per task.
      ByteWriter w;
      for (std::uint32_t t = 0; t < header.ntasks; ++t) {
        to_scatter[t] = layout.chunk_offset_in_block(static_cast<int>(t));
        const std::size_t at = w.size();
        w.put_u64_array(meta2.bytes_written[t]);
        blob_sizes[t] = w.size() - at;
      }
      blobs_flat = w.take();
      view.file = std::move(file);
      return Status::Ok();
    }();
  }

  // One exchange: the vote, the geometry (the flags travel only to readers
  // that allow any), each task's offset and requested size, and its
  // bytes-written array.
  const bool flags = spec.allowed_flags != 0;
  static constexpr Step kWithFlags[] = {
      Step::kVote,    Step::kBcast,   Step::kBcast,   Step::kBcast,
      Step::kBcast,   Step::kScatter, Step::kScatter, Step::kScatterv};
  static constexpr Step kNoFlags[] = {Step::kVote,    Step::kBcast,
                                      Step::kBcast,   Step::kBcast,
                                      Step::kScatter, Step::kScatter,
                                      Step::kScatterv};
  // Without flags, words[3] receives the offset and words[4] the size.
  std::uint64_t words[6] = {view.fsblksize, view.data_start, view.block_span,
                            flags ? view.flags : 0u, 0, 0};
  par::Comm::Exchange x;
  x.words = std::span(words).first(flags ? 6 : 5);
  x.scatter = to_scatter;
  x.pieces = blobs_flat;
  x.piece_sizes = blob_sizes;
  SION_RETURN_IF_ERROR(gcom.exchange(
      lcom, place.filenum, place.nfiles,
      flags ? std::span<const Step>(kWithFlags) : std::span<const Step>(kNoFlags),
      x, st, spec.what));
  view.fsblksize = words[0];
  view.data_start = words[1];
  view.block_span = words[2];
  view.flags = flags ? static_cast<std::uint8_t>(words[3]) : 0;
  const std::uint64_t offset = flags ? words[4] : words[3];
  view.chunksize = flags ? words[5] : words[4];
  // The piece is a view into the master's buffer, which outlives the next
  // exchange (open_handles); parse it before that.
  ByteReader reader(x.piece);
  SION_ASSIGN_OR_RETURN(view.chunk_bytes, reader.get_u64_array());
  if (view.chunk_bytes.empty()) view.chunk_bytes.assign(1, 0);
  view.chunk_start0 = view.data_start + offset;

  SION_RETURN_IF_ERROR(open_handles(fs, gcom, place, spec.open_handle,
                                    /*writable=*/false, spec.closing_barrier,
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

Status agree_over_files(par::Comm& gcom, const FilePlacement& place,
                        const Status& mine, const char* what) {
  static constexpr Step kSteps[] = {Step::kVote};
  par::Comm::Exchange x;
  return gcom.exchange(*place.lcom, place.filenum, place.nfiles, kSteps, x,
                       mine, what);
}

}  // namespace sion::core
