#include "core/serial_file.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/multifile.h"
#include "fs/path.h"

namespace sion::core {

// ---------------------------------------------------------------------------
// open for writing
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_write(
    fs::FileSystem& fs, const SerialWriteSpec& spec) {
  const int nranks = static_cast<int>(spec.chunksizes.size());
  if (nranks == 0) return InvalidArgument("chunksizes must not be empty");
  SION_ASSIGN_OR_RETURN(
      const FileMap map,
      FileMap::make(spec.mapping, nranks, spec.nfiles,
                    spec.custom_file_of_rank));

  std::uint64_t fsblksize = spec.fsblksize;
  if (fsblksize == 0) {
    SION_ASSIGN_OR_RETURN(fsblksize,
                          fs.block_size(fs::parent(spec.filename)));
  }
  if (!is_power_of_two(fsblksize)) {
    return InvalidArgument("file-system block size must be a power of two");
  }

  auto out = std::unique_ptr<SionSerialFile>(new SionSerialFile());
  out->writable_ = true;
  out->locations_.nranks = nranks;
  out->locations_.nfiles = map.nfiles();
  out->locations_.fsblksize = fsblksize;
  out->locations_.chunk_frames = spec.chunk_frames;
  out->locations_.chunksizes = spec.chunksizes;
  out->locations_.bytes_written.assign(
      static_cast<std::size_t>(nranks), std::vector<std::uint64_t>{0});
  out->locations_.file_of_rank.resize(static_cast<std::size_t>(nranks));
  out->local_index_.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    out->locations_.file_of_rank[static_cast<std::size_t>(r)] = map.file_of(r);
    out->local_index_[static_cast<std::size_t>(r)] = map.local_index(r);
  }

  for (int f = 0; f < map.nfiles(); ++f) {
    FileHeader header;
    header.flags = spec.chunk_frames ? kFlagChunkFrames : 0;
    header.fsblksize = fsblksize;
    header.ntasks = static_cast<std::uint32_t>(map.tasks_in_file(f));
    header.nfiles = static_cast<std::uint32_t>(map.nfiles());
    header.filenum = static_cast<std::uint32_t>(f);
    for (int r = 0; r < nranks; ++r) {
      if (map.file_of(r) == f) {
        header.global_ranks.push_back(static_cast<std::uint64_t>(r));
        header.chunksizes_req.push_back(
            spec.chunksizes[static_cast<std::size_t>(r)]);
      }
    }
    const std::string path =
        physical_file_name(spec.filename, f, map.nfiles());
    SION_ASSIGN_OR_RETURN(CreatedFile created,
                          create_with_metablock1(fs, path, header));
    out->locations_.physical_paths.push_back(path);
    out->physical_.push_back(PhysicalFile{
        std::move(created.file), std::move(header), std::move(created.layout)});
  }

  out->cursor_ = out->cursor_of(0);
  for (int r = 0; r < nranks; ++r) {
    SION_RETURN_IF_ERROR(out->frame(r, 0, /*fresh=*/true));
  }
  return out;
}

// ---------------------------------------------------------------------------
// open for reading
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_existing(
    fs::FileSystem& fs, const std::string& name, int pinned_rank) {
  auto out = std::unique_ptr<SionSerialFile>(new SionSerialFile());
  out->writable_ = false;
  out->pinned_rank_ = pinned_rank;

  SION_ASSIGN_OR_RETURN(FirstPhysicalFile first, discover_multifile(fs, name));
  const int nfiles = static_cast<int>(first.header.nfiles);
  out->locations_.nfiles = nfiles;
  out->locations_.fsblksize = first.header.fsblksize;
  out->locations_.chunk_frames =
      (first.header.flags & kFlagChunkFrames) != 0;

  // First pass: parse every physical file's metadata and find the total
  // number of logical files.
  std::uint64_t nranks = 0;
  std::vector<FileHeader> headers;
  std::vector<std::unique_ptr<fs::File>> files;
  std::vector<FileMeta2> meta2s;
  for (int f = 0; f < nfiles; ++f) {
    std::unique_ptr<fs::File> file;
    FileHeader header;
    if (f == 0) {
      file = std::move(first.file);
      header = std::move(first.header);
    } else {
      SION_ASSIGN_OR_RETURN(file,
                            fs.open_read(physical_file_name(name, f, nfiles)));
      SION_ASSIGN_OR_RETURN(header, read_header(*file));
    }
    SION_ASSIGN_OR_RETURN(FileMeta2 meta2, read_meta2(*file, header));
    for (const std::uint64_t r : header.global_ranks) {
      nranks = std::max(nranks, r + 1);
    }
    headers.push_back(std::move(header));
    files.push_back(std::move(file));
    meta2s.push_back(std::move(meta2));
  }

  out->locations_.nranks = static_cast<int>(nranks);
  out->locations_.chunksizes.assign(nranks, 0);
  out->locations_.bytes_written.assign(nranks, {});
  out->locations_.file_of_rank.assign(nranks, -1);
  out->local_index_.assign(nranks, -1);

  for (int f = 0; f < nfiles; ++f) {
    FileHeader& header = headers[static_cast<std::size_t>(f)];
    SION_ASSIGN_OR_RETURN(FileLayout layout, header_layout(header));
    for (std::uint32_t slot = 0; slot < header.ntasks; ++slot) {
      const std::uint64_t r = header.global_ranks[slot];
      if (out->locations_.file_of_rank[r] != -1) {
        return Corrupt(strformat("rank %llu appears in two physical files",
                                 static_cast<unsigned long long>(r)));
      }
      out->locations_.file_of_rank[r] = f;
      out->local_index_[r] = static_cast<int>(slot);
      out->locations_.chunksizes[r] = header.chunksizes_req[slot];
      out->locations_.bytes_written[r] =
          meta2s[static_cast<std::size_t>(f)].bytes_written[slot];
      if (out->locations_.bytes_written[r].empty()) {
        out->locations_.bytes_written[r].assign(1, 0);
      }
    }
    out->locations_.physical_paths.push_back(
        physical_file_name(name, f, nfiles));
    out->physical_.push_back(
        PhysicalFile{std::move(files[static_cast<std::size_t>(f)]),
                     std::move(header), std::move(layout)});
  }
  for (std::uint64_t r = 0; r < nranks; ++r) {
    if (out->locations_.file_of_rank[r] == -1) {
      return Corrupt(strformat("rank %llu missing from the multifile set",
                               static_cast<unsigned long long>(r)));
    }
  }

  if (pinned_rank >= 0) {
    if (pinned_rank >= static_cast<int>(nranks)) {
      return InvalidArgument(
          strformat("rank %d out of range [0, %d)", pinned_rank,
                    static_cast<int>(nranks)));
    }
    out->rank_ = pinned_rank;
  }
  out->cursor_ = out->cursor_of(out->rank_);
  return out;
}

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_read(
    fs::FileSystem& fs, const std::string& name) {
  return open_existing(fs, name, /*pinned_rank=*/-1);
}

Result<std::unique_ptr<SionSerialFile>> SionSerialFile::open_rank(
    fs::FileSystem& fs, const std::string& name, int rank) {
  if (rank < 0) return InvalidArgument("rank must be non-negative");
  return open_existing(fs, name, rank);
}

SionSerialFile::~SionSerialFile() {
  if (!closed_ && writable_) {
    SION_LOG_WARN << "serial SION file destroyed without close; "
                     "metablock 2 was not written";
  }
}

// ---------------------------------------------------------------------------
// geometry helpers
// ---------------------------------------------------------------------------

ChunkCursor SionSerialFile::cursor_of(int rank) const {
  const auto r = static_cast<std::size_t>(rank);
  return physical_[static_cast<std::size_t>(locations_.file_of_rank[r])]
      .layout.cursor(local_index_[r],
                     locations_.chunk_frames ? kChunkFrameSize : 0);
}

fs::File& SionSerialFile::file_of(int rank) const {
  return *physical_[static_cast<std::size_t>(
                        locations_.file_of_rank[static_cast<std::size_t>(rank)])]
              .file;
}

Status SionSerialFile::check_rank(int rank) const {
  if (rank < 0 || rank >= locations_.nranks) {
    return InvalidArgument(strformat("rank %d out of range", rank));
  }
  if (pinned_rank_ >= 0 && rank != pinned_rank_) {
    return InvalidArgument(
        strformat("task-local view is pinned to rank %d", pinned_rank_));
  }
  return Status::Ok();
}

Status SionSerialFile::frame(int rank, std::uint64_t block, bool fresh) {
  if (!locations_.chunk_frames) return Status::Ok();
  const auto r = static_cast<std::size_t>(rank);
  return put_chunk_frame(
      file_of(rank), cursor_of(rank),
      ChunkFrame{static_cast<std::uint32_t>(rank),
                 static_cast<std::uint32_t>(local_index_[r]), block,
                 locations_.bytes_written[r][block]},
      fresh);
}

// ---------------------------------------------------------------------------
// navigation
// ---------------------------------------------------------------------------

Status SionSerialFile::seek(int rank, std::uint64_t block, std::uint64_t pos) {
  SION_RETURN_IF_ERROR(check_rank(rank));
  ChunkCursor cursor = cursor_of(rank);
  auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank)];
  if (writable_) {
    if (pos > cursor.capacity) {
      return OutOfRange("seek position beyond chunk capacity");
    }
    for (std::uint64_t b = chunks.size(); b <= block; ++b) {
      chunks.push_back(0);
      SION_RETURN_IF_ERROR(frame(rank, b, /*fresh=*/true));
    }
  } else {
    if (block >= chunks.size()) return OutOfRange("seek beyond last chunk");
    if (pos > chunks[block]) {
      return OutOfRange("seek position beyond data in chunk");
    }
  }
  cursor.block = block;
  cursor.pos = pos;
  rank_ = rank;
  cursor_ = cursor;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

Status SionSerialFile::check_writable() const {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  return Status::Ok();
}

Status SionSerialFile::ensure_free_space(std::uint64_t nbytes) {
  SION_RETURN_IF_ERROR(check_writable());
  return cursor_.reserve(
      nbytes, locations_.bytes_written[static_cast<std::size_t>(rank_)],
      [this](std::uint64_t b, bool fresh) { return frame(rank_, b, fresh); });
}

Result<std::uint64_t> SionSerialFile::write_raw(fs::DataView data) {
  SION_RETURN_IF_ERROR(check_writable());
  if (data.size() > cursor_.room()) {
    return OutOfRange("write does not fit; call ensure_free_space");
  }
  return write(data);
}

Result<std::uint64_t> SionSerialFile::write(fs::DataView data) {
  SION_RETURN_IF_ERROR(check_writable());
  fs::File& file = file_of(rank_);
  SION_RETURN_IF_ERROR(cursor_.write(
      data.size(), locations_.bytes_written[static_cast<std::size_t>(rank_)],
      [&](std::uint64_t offset, std::uint64_t done, std::uint64_t take) {
        return file.pwrite(data.subview(done, take), offset).status();
      },
      [this](std::uint64_t b, bool fresh) { return frame(rank_, b, fresh); }));
  return data.size();
}

// ---------------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------------

bool SionSerialFile::eof() const {
  return cursor_.remaining(
             locations_.bytes_written[static_cast<std::size_t>(rank_)]) == 0;
}

std::uint64_t SionSerialFile::bytes_avail_in_chunk() const {
  return cursor_.avail(
      locations_.bytes_written[static_cast<std::size_t>(rank_)]);
}

Result<std::uint64_t> SionSerialFile::read_raw(std::span<std::byte> out) {
  return read(out.first(static_cast<std::size_t>(
      std::min<std::uint64_t>(out.size(), bytes_avail_in_chunk()))));
}

Result<std::uint64_t> SionSerialFile::read(std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
  fs::File& file = file_of(rank_);
  return cursor_.read(
      out.size(), locations_.bytes_written[static_cast<std::size_t>(rank_)],
      [&](std::uint64_t offset, std::uint64_t done, std::uint64_t take) {
        return read_recorded(file, out.subspan(done, take), offset);
      });
}

// ---------------------------------------------------------------------------
// positioned logical-stream access
// ---------------------------------------------------------------------------

std::uint64_t SionSerialFile::logical_bytes(int rank) const {
  if (rank < 0 || rank >= locations_.nranks) return 0;
  return bytes_from(locations_.bytes_written[static_cast<std::size_t>(rank)]);
}

Result<std::uint64_t> SionSerialFile::read_at(int rank, std::uint64_t offset,
                                              std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
  if (closed_) return FailedPrecondition("file already closed");
  SION_RETURN_IF_ERROR(check_rank(rank));
  const auto& chunks = locations_.bytes_written[static_cast<std::size_t>(rank)];
  fs::File& file = file_of(rank);
  ChunkCursor cursor = cursor_of(rank);
  SION_ASSIGN_OR_RETURN(const std::uint64_t skipped,
                        cursor.read(offset, chunks, no_io));
  (void)skipped;
  return cursor.read(
      out.size(), chunks,
      [&](std::uint64_t at, std::uint64_t done, std::uint64_t take) {
        return read_recorded(file, out.subspan(done, take), at);
      });
}

Result<std::vector<std::byte>> SionSerialFile::read_logical(int rank) {
  const std::uint64_t total = logical_bytes(rank);
  std::vector<std::byte> out(static_cast<std::size_t>(total));
  SION_ASSIGN_OR_RETURN(const std::uint64_t got, read_at(rank, 0, out));
  if (got != total) {
    return Corrupt(strformat("logical stream of rank %d delivered %llu of "
                             "%llu recorded bytes",
                             rank, static_cast<unsigned long long>(got),
                             static_cast<unsigned long long>(total)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status SionSerialFile::close() {
  if (closed_) return FailedPrecondition("file already closed");
  if (writable_) {
    for (auto& pf : physical_) {
      FileMeta2 meta2;
      for (std::uint32_t slot = 0; slot < pf.header.ntasks; ++slot) {
        const std::uint64_t r = pf.header.global_ranks[slot];
        meta2.bytes_written.push_back(locations_.bytes_written[r]);
        for (std::uint64_t b = 0; b < locations_.bytes_written[r].size();
             ++b) {
          SION_RETURN_IF_ERROR(frame(static_cast<int>(r), b, false));
        }
      }
      SION_RETURN_IF_ERROR(write_meta2_and_trailer(
          *pf.file, pf.layout.data_start(), pf.layout.block_span(), meta2));
    }
  }
  for (auto& pf : physical_) pf.file.reset();
  closed_ = true;
  return Status::Ok();
}

}  // namespace sion::core
