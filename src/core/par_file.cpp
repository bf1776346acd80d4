#include "core/par_file.h"

#include <algorithm>

#include "common/log.h"

namespace sion::core {

namespace {

// Shared wording for the open and close agreements: a failure on the
// file-local master or on another physical file must surface on every task
// (see par::Comm::exchange).
constexpr char kOpenFailed[] =
    "collective SION open/close failed on the file-local master or on "
    "another physical file";

}  // namespace

// Both open directions end here, with the task's placement and its view
// from the shared protocol.
SionParFile::SionParFile(par::Comm& gcom, FilePlacement place, ChunkView view,
                         bool writable)
    : gcom_(&gcom),
      place_(std::move(place)),
      view_(std::move(view)),
      writable_(writable),
      frames_((view_.flags & kFlagChunkFrames) != 0),
      cursor_(view_.cursor(frames_ ? kChunkFrameSize : 0)) {}

// ---------------------------------------------------------------------------
// open for writing
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionParFile>> SionParFile::open_write(
    fs::FileSystem& fs, par::Comm& gcom, const ParOpenSpec& spec) {
  SION_ASSIGN_OR_RETURN(
      const FileMap map,
      FileMap::make(spec.mapping, gcom.size(), spec.nfiles,
                    spec.custom_file_of_rank));
  FilePlacement place = place_on_file(gcom, spec.filename,
                                      map.file_of(gcom.rank()), map.nfiles());
  CreateSpec create;
  create.flags = spec.chunk_frames ? kFlagChunkFrames : 0;
  create.fsblksize = spec.fsblksize;
  create.chunksize = spec.chunksize;
  create.what = kOpenFailed;
  // Without frames the open's closing agreement is a barrier, which joins
  // the create's last rendezvous.
  create.closing_barrier = !spec.chunk_frames;
  // A check of this task's own spec: the other tasks are already inside the
  // collective open, so a failure here must join its agreement rather than
  // return early.
  if (spec.chunksize == 0) {
    create.task_status = InvalidArgument("chunksize must be positive");
  }
  SION_ASSIGN_OR_RETURN(ChunkView view,
                        create_physical_file(fs, gcom, place, create));
  auto out = std::unique_ptr<SionParFile>(
      new SionParFile(gcom, std::move(place), std::move(view), true));
  if (!out->frames_) return out;

  // The agreement doubles as the closing barrier: a failed first-frame
  // write (e.g. quota exceeded) on any task must fail the open everywhere.
  const Status st = out->frame(0, /*fresh=*/true);
  const std::uint64_t frame_failed =
      gcom.allreduce_u64(st.ok() ? 0 : 1, par::ReduceOp::kMax);
  if (frame_failed != 0) {
    if (!st.ok()) return st;
    return IoError("collective SION open failed on another task");
  }
  return out;
}

// ---------------------------------------------------------------------------
// open for reading
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SionParFile>> SionParFile::open_read(
    fs::FileSystem& fs, par::Comm& gcom, const std::string& name) {
  SION_ASSIGN_OR_RETURN(FilePlacement place,
                        place_in_multifile(fs, gcom, name, kOpenFailed));
  OpenReadSpec open;
  open.allowed_flags = kFlagChunkFrames;
  open.closing_barrier = true;
  open.what = kOpenFailed;
  SION_ASSIGN_OR_RETURN(ChunkView view,
                        open_physical_file(fs, gcom, place, open));
  return std::unique_ptr<SionParFile>(
      new SionParFile(gcom, std::move(place), std::move(view), false));
}

SionParFile::~SionParFile() {
  if (!closed_ && writable_) {
    SION_LOG_WARN << "SION file " << place_.path
                  << " destroyed without collective close; metablock 2 was "
                     "not written (sionrepair can reconstruct it if chunk "
                     "frames are enabled)";
  }
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

Status SionParFile::frame(std::uint64_t block, bool fresh) {
  if (!frames_) return Status::Ok();
  return put_chunk_frame(
      *view_.file, cursor_,
      ChunkFrame{static_cast<std::uint32_t>(gcom_->rank()),
                 static_cast<std::uint32_t>(place_.lcom->rank()), block,
                 view_.chunk_bytes[block]},
      fresh);
}

Status SionParFile::check_writable() const {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  return Status::Ok();
}

Status SionParFile::ensure_free_space(std::uint64_t nbytes) {
  SION_RETURN_IF_ERROR(check_writable());
  return cursor_.reserve(nbytes, view_.chunk_bytes,
                         [this](std::uint64_t b, bool fresh) {
                           return frame(b, fresh);
                         });
}

Result<std::uint64_t> SionParFile::write_raw(fs::DataView data) {
  SION_RETURN_IF_ERROR(check_writable());
  if (data.size() > cursor_.room()) {
    return OutOfRange(
        "write does not fit in the current chunk; call ensure_free_space");
  }
  return write(data);
}

// The recovery frame is kept current after every write: this is what makes
// a crash *between* writes recoverable (the paper's robustness plan), at
// the cost of one small extra write per extent (measured in bench_ablation).
Result<std::uint64_t> SionParFile::write(fs::DataView data) {
  SION_RETURN_IF_ERROR(check_writable());
  SION_RETURN_IF_ERROR(cursor_.write(
      data.size(), view_.chunk_bytes,
      [&](std::uint64_t offset, std::uint64_t done, std::uint64_t take) {
        return view_.file->pwrite(data.subview(done, take), offset).status();
      },
      [this](std::uint64_t b, bool fresh) { return frame(b, fresh); }));
  return data.size();
}

// ---------------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------------

bool SionParFile::eof() const { return bytes_remaining_total() == 0; }

std::uint64_t SionParFile::bytes_avail_in_chunk() const {
  return cursor_.avail(view_.chunk_bytes);
}

Result<std::uint64_t> SionParFile::read_raw(std::span<std::byte> out) {
  return read(out.first(static_cast<std::size_t>(
      std::min<std::uint64_t>(out.size(), bytes_avail_in_chunk()))));
}

Result<std::uint64_t> SionParFile::read(std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
  return cursor_.read(
      out.size(), view_.chunk_bytes,
      [&](std::uint64_t offset, std::uint64_t done, std::uint64_t take) {
        return read_recorded(*view_.file, out.subspan(done, take), offset);
      });
}

Status SionParFile::read_skip(std::uint64_t nbytes) {
  if (writable_) return FailedPrecondition("file opened for writing");
  return cursor_
      .read(nbytes, view_.chunk_bytes,
            [&](std::uint64_t offset, std::uint64_t, std::uint64_t take) {
              return view_.file->pread_discard(take, offset);
            })
      .status();
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status SionParFile::close() {
  if (closed_) return FailedPrecondition("file already closed");
  par::Comm& lcom = *place_.lcom;
  if (writable_) {
    SION_RETURN_IF_ERROR(frame(cursor_.block, /*fresh=*/false));
    const Status st =
        write_chunk_usage(lcom, view_.file.get(), view_.data_start,
                          view_.block_span, view_.chunk_bytes);
    SION_RETURN_IF_ERROR(agree_over_files(*gcom_, place_, st, kOpenFailed));
  }
  view_.file.reset();
  closed_ = true;
  gcom_->barrier();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// totals
// ---------------------------------------------------------------------------

std::uint64_t SionParFile::bytes_written_total() const {
  return bytes_from(view_.chunk_bytes);
}

std::uint64_t SionParFile::bytes_remaining_total() const {
  return cursor_.remaining(view_.chunk_bytes);
}

}  // namespace sion::core
