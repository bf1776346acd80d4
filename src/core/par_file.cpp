#include "core/par_file.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "common/units.h"

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
      capacity_(view_.aligned_chunksize() -
                (frames_ ? kChunkFrameSize : 0)) {}

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
  const Status st = out->write_frame(0);
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
// recovery frames
// ---------------------------------------------------------------------------

ChunkFrame SionParFile::frame(std::uint64_t block) const {
  return ChunkFrame{static_cast<std::uint32_t>(gcom_->rank()),
                    static_cast<std::uint32_t>(place_.lcom->rank()), block,
                    view_.chunk_bytes[block]};
}

Status SionParFile::write_frame(std::uint64_t block) {
  return write_chunk_frame(*view_.file,
                           chunk_file_offset(block) - kChunkFrameSize,
                           frame(block));
}

Status SionParFile::patch_frame(std::uint64_t block) {
  return patch_chunk_frame(*view_.file,
                           chunk_file_offset(block) - kChunkFrameSize,
                           frame(block));
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

Status SionParFile::advance_chunk_write() {
  if (frames_) SION_RETURN_IF_ERROR(patch_frame(block_));
  ++block_;
  pos_ = 0;
  view_.chunk_bytes.push_back(0);
  if (frames_) SION_RETURN_IF_ERROR(write_frame(block_));
  return Status::Ok();
}

Status SionParFile::ensure_free_space(std::uint64_t nbytes) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  if (nbytes > capacity_) {
    return InvalidArgument(
        strformat("request of %llu bytes exceeds the chunk capacity of %llu; "
                  "use write() instead",
                  static_cast<unsigned long long>(nbytes),
                  static_cast<unsigned long long>(capacity_)));
  }
  if (pos_ + nbytes > capacity_) {
    SION_RETURN_IF_ERROR(advance_chunk_write());
  }
  return Status::Ok();
}

Result<std::uint64_t> SionParFile::write_raw(fs::DataView data) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  if (data.size() > capacity_ - pos_) {
    return OutOfRange(
        "write does not fit in the current chunk; call ensure_free_space");
  }
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t n,
      view_.file->pwrite(data, chunk_file_offset(block_) + pos_));
  pos_ += n;
  view_.chunk_bytes[block_] += n;
  // Keep the recovery frame current after every write: this is what makes a
  // crash *between* writes recoverable (the paper's robustness plan), at the
  // cost of one small extra write per call (measured in bench_ablation).
  if (frames_) SION_RETURN_IF_ERROR(patch_frame(block_));
  return n;
}

Result<std::uint64_t> SionParFile::write(fs::DataView data) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  std::uint64_t done = 0;
  while (done < data.size()) {
    if (pos_ == capacity_) SION_RETURN_IF_ERROR(advance_chunk_write());
    SION_ASSIGN_OR_RETURN(
        const std::uint64_t n,
        write_raw(data.subview(done, std::min(capacity_ - pos_,
                                              data.size() - done))));
    done += n;
  }
  return done;
}

// ---------------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------------

bool SionParFile::eof() const { return bytes_remaining_total() == 0; }

std::uint64_t SionParFile::bytes_avail_in_chunk() const {
  if (block_ >= view_.chunk_bytes.size()) return 0;
  return view_.chunk_bytes[block_] - pos_;
}

Result<std::uint64_t> SionParFile::read_raw(std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
  const std::uint64_t avail = bytes_avail_in_chunk();
  const std::uint64_t want = std::min<std::uint64_t>(out.size(), avail);
  if (want == 0) return static_cast<std::uint64_t>(0);
  SION_ASSIGN_OR_RETURN(
      const std::uint64_t n,
      view_.file->pread(out.subspan(0, want),
                        chunk_file_offset(block_) + pos_));
  pos_ += n;
  return n;
}

Result<std::uint64_t> SionParFile::read(std::span<std::byte> out) {
  if (writable_) return FailedPrecondition("file opened for writing");
  std::uint64_t done = 0;
  while (done < out.size() && !eof()) {
    if (bytes_avail_in_chunk() == 0) {
      ++block_;
      pos_ = 0;
      continue;
    }
    SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                          read_raw(out.subspan(done)));
    done += n;
  }
  return done;
}

Status SionParFile::read_skip(std::uint64_t nbytes) {
  if (writable_) return FailedPrecondition("file opened for writing");
  std::uint64_t done = 0;
  while (done < nbytes && !eof()) {
    const std::uint64_t avail = bytes_avail_in_chunk();
    if (avail == 0) {
      ++block_;
      pos_ = 0;
      continue;
    }
    const std::uint64_t take = std::min(nbytes - done, avail);
    SION_RETURN_IF_ERROR(
        view_.file->pread_discard(take, chunk_file_offset(block_) + pos_));
    pos_ += take;
    done += take;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status SionParFile::close() {
  if (closed_) return FailedPrecondition("file already closed");
  par::Comm& lcom = *place_.lcom;
  if (writable_) {
    if (frames_) SION_RETURN_IF_ERROR(patch_frame(block_));
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
  return bytes_from(view_.chunk_bytes, block_, pos_);
}

}  // namespace sion::core
