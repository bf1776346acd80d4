#include "ext/collective.h"

#include <algorithm>
#include <array>

#include "common/codec.h"
#include "common/log.h"
#include "common/strings.h"
#include "core/multifile.h"
#include "par/engine.h"

namespace sion::ext {

namespace {

// Ship-protocol tags (member <-> collector, within one group).
constexpr int kTokenTag = 0xC01;  // flow control: "my buffer is free"
constexpr int kHdrTag = 0xC02;    // wave descriptor
constexpr int kDataTag = 0xC03;   // wave payload

// Wave descriptor: fill payloads ship as a descriptor only (their link cost
// is charged on the sender's clock), so terabyte-scale synthetic benchmark
// payloads never materialise in host memory.
struct WaveHeader {
  std::uint64_t len = 0;
  bool is_fill = false;
  std::byte fill{0};
};

constexpr std::size_t kWaveHeaderSize = 10;

// Headers are tiny and iteration-scoped on the sender, so they ship as a
// copying send from this stack buffer (payloads ship as views instead).
std::array<std::byte, kWaveHeaderSize> encode_header(const WaveHeader& h) {
  std::array<std::byte, kWaveHeaderSize> buf{};
  detail::store_le(buf.data(), h.len);
  buf[8] = std::byte{h.is_fill ? std::uint8_t{1} : std::uint8_t{0}};
  buf[9] = h.fill;
  return buf;
}

Result<WaveHeader> decode_header(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  WaveHeader h;
  SION_ASSIGN_OR_RETURN(h.len, r.get_u64());
  SION_ASSIGN_OR_RETURN(const std::uint8_t fill_flag, r.get_u8());
  h.is_fill = fill_flag != 0;
  SION_ASSIGN_OR_RETURN(const std::uint8_t fill, r.get_u8());
  h.fill = static_cast<std::byte>(fill);
  return h;
}

// Shared wording for the agreements (see par/comm.h): a failure on the
// collector, on another physical file, or on another group rank must
// surface on every task.
constexpr char kAggregationFailed[] =
    "collective aggregation failed on another rank";

// Collective agreement at the end of a data op: protocol messages always
// complete (with dummy payloads on error); the outcome is agreed here.
Status agree(par::Comm& comm, const Status& mine) {
  return par::agree_status(comm, mine, kAggregationFailed);
}

// Collector-side write coalescer: segments are appended in file order and
// merged into maximal contiguous ranges; flush() issues one pwrite per
// merged range — the "large, chunk-aligned writes on the members' behalf".
//
// Real-byte segments are NOT copied: they stay as spans into the shipping
// members' buffers (alive until the collective write returns, per the Comm
// view contract) and reach the file system as one gather DataView per
// range. Fills stay O(1). The flush threshold counts staged real bytes, so
// the flush points — and therefore the simulated pwrite sequence — are
// identical to the old copying aggregator's.
class WriteAggregator {
 public:
  WriteAggregator(fs::File& file, std::uint64_t cap)
      : file_(&file), cap_(std::max<std::uint64_t>(1, cap)) {}

  Status add(std::uint64_t offset, fs::DataView data) {
    if (data.size() == 0) return Status::Ok();
    Range* last = ranges_.empty() ? nullptr : &ranges_.back();
    const bool mergeable =
        last != nullptr && last->offset + last->len == offset &&
        last->is_fill == data.is_fill() &&
        (!data.is_fill() || last->fill == data.fill_byte());
    if (data.is_fill()) {
      if (mergeable) {
        last->len += data.size();
      } else {
        ranges_.push_back(
            Range{offset, data.size(), true, data.fill_byte(), segs_.size(), 0});
      }
      return Status::Ok();
    }
    if (mergeable) {
      segs_.push_back(data);
      last->len += data.size();
      ++last->seg_count;
    } else {
      ranges_.push_back(Range{offset, data.size(), false, std::byte{0},
                              segs_.size(), 1});
      segs_.push_back(data);
    }
    staged_ += data.size();
    if (staged_ >= cap_) return flush();
    return Status::Ok();
  }

  Status flush() {
    for (const Range& r : ranges_) {
      fs::DataView view = fs::DataView::fill(r.fill, r.len);
      if (!r.is_fill) {
        view = r.seg_count == 1
                   ? segs_[r.seg_begin]
                   : fs::DataView::gather(std::span<const fs::DataView>(
                         segs_.data() + r.seg_begin, r.seg_count));
      }
      SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                            file_->pwrite(view, r.offset));
      (void)n;
    }
    ranges_.clear();
    segs_.clear();
    staged_ = 0;
    return Status::Ok();
  }

 private:
  struct Range {
    std::uint64_t offset;
    std::uint64_t len;
    bool is_fill;
    std::byte fill;
    std::size_t seg_begin;  // into segs_ when !is_fill
    std::size_t seg_count;
  };

  fs::File* file_;
  std::uint64_t cap_;
  std::uint64_t staged_ = 0;          // real bytes staged since last flush
  std::vector<fs::DataView> segs_;    // zero-copy source segments
  std::vector<Range> ranges_;
};

}  // namespace

// ---------------------------------------------------------------------------
// open for writing
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Collective>> Collective::open_write(
    fs::FileSystem& fs, par::Comm& gcom, const core::ParOpenSpec& spec,
    const CollectiveConfig& config) {
  if (spec.chunk_frames) {
    return InvalidArgument(
        "recovery chunk frames are not supported in collective mode");
  }
  SION_ASSIGN_OR_RETURN(const core::FileMap map,
                        core::FileMap::make(spec.mapping, gcom.size(),
                                            spec.nfiles,
                                            spec.custom_file_of_rank));

  auto out = std::unique_ptr<Collective>(new Collective(
      gcom,
      core::place_on_file(gcom, spec.filename, map.file_of(gcom.rank()),
                          map.nfiles()),
      /*writable=*/true, config));

  // The layout is the ordinary SION geometry with fsblksize = the chunk
  // granule, so any reader reconstructs it from the header alone. Group
  // padding is computed against the real file-system block even when
  // chunks pack at a finer granule. Only collectors open the physical
  // file: this is where the aggregated path sheds the per-task
  // metadata/open pressure (SimFs accounts for it through cached opens and
  // the client_open_service token model).
  core::CreateSpec create;
  create.fsblksize = spec.fsblksize;
  create.granule = config.packing_granule;
  create.pad_group = out->group_->size();
  create.chunksize = spec.chunksize;
  create.scatter_chunksizes = true;
  create.open_handle = out->is_collector();
  create.what = kAggregationFailed;
  // A zero chunk size on some tasks only must fail every task, so it joins
  // the create's agreement instead of returning early.
  if (spec.chunksize == 0) {
    create.task_status = InvalidArgument("chunksize must be positive");
  }
  Result<core::ChunkView> view =
      core::create_physical_file(fs, gcom, out->place_, create);
  if (!view.ok()) {
    out->closed_ = true;  // nothing was created, so there is nothing to close
    return view.status();
  }
  out->adopt(std::move(view).value());
  gcom.barrier();
  return out;
}

// ---------------------------------------------------------------------------
// open for reading
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Collective>> Collective::open_read(
    fs::FileSystem& fs, par::Comm& gcom, const std::string& name,
    const CollectiveConfig& config) {
  // The global master (a collector by construction) discovers the set.
  SION_ASSIGN_OR_RETURN(
      core::FilePlacement place,
      core::place_in_multifile(fs, gcom, name, kAggregationFailed));
  auto out = std::unique_ptr<Collective>(new Collective(
      gcom, std::move(place), /*writable=*/false, config));

  // Members learn their view from the file master without touching the
  // file system.
  core::OpenReadSpec open;
  open.open_handle = out->is_collector();
  open.what = kAggregationFailed;
  SION_ASSIGN_OR_RETURN(core::ChunkView view,
                        core::open_physical_file(fs, gcom, out->place_, open));
  out->adopt(std::move(view));
  gcom.barrier();
  return out;
}

// Both open directions start here: the aggregation groups within the
// physical file are split off (rank 0 of each group is its collector).
Collective::Collective(par::Comm& gcom, core::FilePlacement place,
                       bool writable, const CollectiveConfig& config)
    : gcom_(&gcom),
      place_(std::move(place)),
      writable_(writable),
      buffer_bytes_(std::max<std::uint64_t>(1, config.buffer_bytes)) {
  group_ = place_.lcom->split_groups(config.group_size);
  SION_CHECK(group_ != nullptr) << "split_groups returned no communicator";
}

// Takes this rank's view from the shared open, then the collector learns
// its members' chunk geometry once (and, when reading, their chunk usage);
// every later chunk address is computed locally (paper 3.1, lifted to
// groups).
void Collective::adopt(core::ChunkView view) {
  view_ = std::move(view);
  self_ = view_.cursor();

  const auto starts = group_->gather_u64(self_.start0, 0);
  const auto caps = group_->gather_u64(self_.capacity, 0);
  auto usage = writable_ ? par::Comm::FlatGatherU64{}
                         : group_->gatherv_u64_flat(view_.chunk_bytes, 0);
  if (!is_collector()) return;
  members_.resize(starts.size());
  for (std::size_t m = 0; m < starts.size(); ++m) {
    members_[m].cursor =
        core::ChunkCursor{starts[m], view_.block_span, caps[m]};
    if (writable_) {
      members_[m].chunk_bytes.assign(1, 0);
    } else {
      const auto row = usage.of(static_cast<int>(m));
      members_[m].chunk_bytes.assign(row.begin(), row.end());
    }
  }
}

Collective::~Collective() {
  if (!closed_ && writable_) {
    SION_LOG_WARN << "collective SION file " << place_.path
                  << " destroyed without collective close; metablock 2 was "
                     "not written";
  }
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

Status Collective::write_as_collector(fs::DataView own,
                                      const std::vector<std::uint64_t>& sizes) {
  WriteAggregator agg(*view_.file, buffer_bytes_);
  Status st;
  for (int m = 0; m < group_->size(); ++m) {
    Member& member = members_[static_cast<std::size_t>(m)];
    std::uint64_t remaining = sizes[static_cast<std::size_t>(m)];
    std::uint64_t done = 0;
    while (remaining > 0) {
      const std::uint64_t wave = std::min(buffer_bytes_, remaining);
      fs::DataView piece = fs::DataView::fill(std::byte{0}, 0);
      if (m == 0) {
        piece = own.subview(done, wave);
      } else {
        // Token-paced ship: the member sends a wave only when the collector
        // is ready, so at most one wave per group is in flight. Both sides
        // compute wave sizes from the gathered totals, so a mismatch is a
        // protocol bug, not a recoverable I/O error. Payloads arrive as
        // views into the member's buffer — valid until that member's
        // write() returns, which the closing agreement sequences after the
        // final flush — so nothing is staged or copied on the way to the
        // coalescer.
        group_->send_bytes({}, m, kTokenTag);
        const std::vector<std::byte> hdr_bytes =
            group_->recv_bytes(m, kHdrTag);
        auto hdr = decode_header(hdr_bytes);
        SION_CHECK(hdr.ok() && hdr.value().len == wave)
            << "aggregation wave descriptor mismatch";
        if (hdr.value().is_fill) {
          piece = fs::DataView::fill(hdr.value().fill, wave);
        } else {
          const std::span<const std::byte> wave_view =
              group_->recv_view(m, kDataTag);
          SION_CHECK(wave_view.size() == wave)
              << "aggregation wave payload mismatch";
          piece = fs::DataView(wave_view);
        }
      }
      // Segment the wave at the member's chunk ends and feed the coalescer;
      // contiguous chunks of adjacent members merge into one large write
      // when the packing leaves no gaps. A failure is kept and the walk
      // goes on, so the cursor stays in step with the member's own.
      (void)member.cursor.write(
          wave, member.chunk_bytes,
          [&](std::uint64_t offset, std::uint64_t at, std::uint64_t take) {
            if (st.ok()) st = agg.add(offset, piece.subview(at, take));
            return Status::Ok();
          });
      remaining -= wave;
      done += wave;
    }
  }
  if (st.ok()) st = agg.flush();
  return st;
}

Status Collective::write_as_member(fs::DataView data) {
  std::uint64_t remaining = data.size();
  std::uint64_t done = 0;
  while (remaining > 0) {
    const std::uint64_t wave = std::min(buffer_bytes_, remaining);
    const fs::DataView piece = data.subview(done, wave);
    (void)group_->recv_bytes(0, kTokenTag);
    WaveHeader hdr;
    hdr.len = wave;
    hdr.is_fill = piece.is_fill();
    if (piece.is_fill()) {
      hdr.fill = piece.fill_byte();
      // The payload never materialises; charge its link time here so the
      // virtual clock sees the same gather cost as a real ship.
      par::this_task()->compute(group_->network().p2p_cost(wave));
      group_->send_bytes(encode_header(hdr), 0, kHdrTag);
    } else {
      group_->send_bytes(encode_header(hdr), 0, kHdrTag);
      group_->send_view(piece.bytes(), 0, kDataTag);
    }
    remaining -= wave;
    done += wave;
  }
  return Status::Ok();
}

Status Collective::write(fs::DataView data) {
  if (!writable_) return FailedPrecondition("file opened for reading");
  if (closed_) return FailedPrecondition("file already closed");
  const auto sizes = group_->gather_u64(data.size(), 0);
  Status st;
  if (is_collector()) {
    st = write_as_collector(data, sizes);
  } else {
    st = write_as_member(data);
  }
  // Every task counts its own bytes, which the collector wrote.
  (void)self_.write(data.size(), view_.chunk_bytes, core::no_io);
  return agree(*group_, st);
}

// ---------------------------------------------------------------------------
// read path
// ---------------------------------------------------------------------------

Status Collective::read_as_collector(std::span<std::byte> own_out, bool skip,
                                     const std::vector<std::uint64_t>& wants) {
  Status st;
  std::vector<std::byte> wave_buf;
  for (int m = 0; m < group_->size(); ++m) {
    Member& member = members_[static_cast<std::size_t>(m)];
    std::uint64_t deliver =
        std::min(wants[static_cast<std::size_t>(m)],
                 member.cursor.remaining(member.chunk_bytes));
    std::uint64_t out_pos = 0;
    while (deliver > 0) {
      const std::uint64_t wave = std::min(buffer_bytes_, deliver);
      if (m != 0) {
        (void)group_->recv_bytes(m, kTokenTag);
        // Only shipped waves stage in wave_buf; the collector's own data
        // reads straight into own_out.
        wave_buf.resize(static_cast<std::size_t>(skip ? 0 : wave));
      }
      (void)member.cursor.read(
          wave, member.chunk_bytes,
          [&](std::uint64_t offset, std::uint64_t got, std::uint64_t take) {
            if (!st.ok()) return Status::Ok();
            if (skip) {
              st = view_.file->pread_discard(take, offset);
            } else {
              st = core::read_recorded(
                  *view_.file,
                  m == 0 ? own_out.subspan(out_pos + got, take)
                         : std::span<std::byte>(wave_buf).subspan(got, take),
                  offset);
            }
            return Status::Ok();
          });
      if (m != 0) {
        if (skip) {
          // Timing-only restore: charge the scatter link time and hand the
          // member a completion descriptor instead of payload bytes.
          par::this_task()->compute(group_->network().p2p_cost(wave));
          WaveHeader hdr;
          hdr.len = wave;
          hdr.is_fill = true;
          group_->send_bytes(encode_header(hdr), m, kHdrTag);
        } else {
          group_->send_bytes(wave_buf, m, kDataTag);
        }
      }
      out_pos += wave;
      deliver -= wave;
    }
  }
  return st;
}

Status Collective::read_as_member(std::span<std::byte> out, bool skip,
                                  std::uint64_t want) {
  std::uint64_t deliver = std::min(want, bytes_remaining_total());
  std::uint64_t out_pos = 0;
  Status st;
  while (deliver > 0) {
    const std::uint64_t wave = std::min(buffer_bytes_, deliver);
    group_->send_bytes({}, 0, kTokenTag);
    if (skip) {
      const std::vector<std::byte> hdr_bytes = group_->recv_bytes(0, kHdrTag);
      auto hdr = decode_header(hdr_bytes);
      if (st.ok()) {
        if (!hdr.ok()) {
          st = hdr.status();
        } else if (hdr.value().len != wave) {
          st = Internal("scatter wave size mismatch");
        }
      }
    } else {
      const std::vector<std::byte> data = group_->recv_bytes(0, kDataTag);
      if (st.ok() && data.size() != wave) {
        st = Internal("scatter wave payload mismatch");
      }
      if (st.ok()) {
        std::copy(data.begin(), data.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(out_pos));
      }
    }
    out_pos += wave;
    deliver -= wave;
  }
  return st;
}

Result<std::uint64_t> Collective::read_impl(std::span<std::byte> out,
                                            bool skip, std::uint64_t want) {
  if (writable_) return FailedPrecondition("file opened for writing");
  if (closed_) return FailedPrecondition("file already closed");
  const auto wants = group_->gather_u64(want, 0);
  Status st;
  if (is_collector()) {
    st = read_as_collector(out, skip, wants);
  } else {
    st = read_as_member(out, skip, want);
  }
  // Every task moves its own cursor over what the collector delivered.
  const std::uint64_t deliver =
      self_.read(want, view_.chunk_bytes, core::no_io).value();
  SION_RETURN_IF_ERROR(agree(*group_, st));
  return deliver;
}

Result<std::uint64_t> Collective::read(std::span<std::byte> out) {
  return read_impl(out, /*skip=*/false, out.size());
}

Status Collective::read_skip(std::uint64_t nbytes) {
  SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                        read_impl({}, /*skip=*/true, nbytes));
  (void)n;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// close
// ---------------------------------------------------------------------------

Status Collective::close() {
  if (closed_) return FailedPrecondition("file already closed");
  if (writable_) {
    par::Comm& lcom = *place_.lcom;
    const Status st =
        core::write_chunk_usage(lcom, view_.file.get(), view_.data_start,
                                view_.block_span, view_.chunk_bytes);
    SION_RETURN_IF_ERROR(
        core::agree_over_files(*gcom_, place_, st, kAggregationFailed));
  }
  view_.file.reset();
  closed_ = true;
  gcom_->barrier();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// totals
// ---------------------------------------------------------------------------

std::uint64_t Collective::bytes_written_total() const {
  return core::bytes_from(view_.chunk_bytes);
}

std::uint64_t Collective::bytes_remaining_total() const {
  return self_.remaining(view_.chunk_bytes);
}

Status write_multifile(fs::FileSystem& fs, par::Comm& gcom,
                       const core::ParOpenSpec& spec,
                       const CollectiveConfig* aggregation,
                       fs::DataView payload) {
  if (aggregation != nullptr) {
    SION_ASSIGN_OR_RETURN(auto sion,
                          Collective::open_write(fs, gcom, spec, *aggregation));
    SION_RETURN_IF_ERROR(sion->write(payload));
    return sion->close();
  }
  SION_ASSIGN_OR_RETURN(auto sion,
                        core::SionParFile::open_write(fs, gcom, spec));
  SION_ASSIGN_OR_RETURN(const std::uint64_t n, sion->write(payload));
  (void)n;
  return sion->close();
}

}  // namespace sion::ext
