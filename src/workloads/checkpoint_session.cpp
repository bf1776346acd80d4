#include "workloads/checkpoint_session.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "baseline/single_file_seq.h"
#include "baseline/task_local.h"
#include "common/strings.h"
#include "core/api.h"
#include "fs/path.h"
#include "par/engine.h"
#include "par/host_pool.h"

namespace sion::workloads {

namespace {

// Chunk size for SION checkpoints: the whole payload fits one chunk, the
// paper's recommended "choosing the maximum generously enough".
std::uint64_t sion_chunksize(fs::DataView payload) {
  return std::max<std::uint64_t>(1, payload.size());
}

// The buddy subsystem owns the collective-vs-plain routing for all of its
// sets, so a set spec-level aggregation sub-spec folds into its config.
ext::BuddyConfig buddy_config_of(const CheckpointSpec& spec) {
  ext::BuddyConfig config = *spec.buddy_protection();
  if (spec.collective) config.collective = spec.collective;
  if (config.num_domains <= 0) config.num_domains = std::max(1, spec.nfiles);
  return config;
}

// Same folding for ECC protection: the session-level aggregation sub-spec
// routes the primary multifile through ext::Collective; parity encoding is
// unaffected (it reads back physical bytes).
ext::EccConfig ecc_config_of(const CheckpointSpec& spec) {
  ext::EccConfig config = *spec.ecc_protection();
  if (spec.collective) config.collective = spec.collective;
  if (config.data_domains <= 0) config.data_domains = std::max(1, spec.nfiles);
  return config;
}

// Materialise a DataView so it can be fed through the compressor. Fill and
// gather views are expanded; compression callers pay this host cost by
// opting in (virtual-scale benches that rely on fill virtualisation keep
// compression off).
std::vector<std::byte> flatten_view(fs::DataView v) {
  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(v.size()));
  const auto append = [&out](const fs::DataView& p) {
    if (p.is_fill()) {
      out.insert(out.end(), static_cast<std::size_t>(p.size()),
                 p.fill_byte());
    } else {
      out.insert(out.end(), p.bytes().begin(), p.bytes().end());
    }
  };
  if (v.is_gather()) {
    for (const fs::DataView& p : v.parts()) append(p);
  } else {
    append(v);
  }
  return out;
}

// The remap config the read side actually uses: spec.compression turns on
// transparent frame decoding for N->M and buddy restores.
ext::RemapConfig remap_config_of(const CheckpointSpec& spec) {
  ext::RemapConfig config = spec.remap_config;
  if (spec.compression.has_value()) config.transparent_decompress = true;
  return config;
}

// Runs `use` on multifile `name` opened for a same-task-count read, through
// ext::Collective when the spec aggregates and core::SionParFile otherwise
// (both offer the read surface `use` needs), then closes it.
template <typename Fn>
Status with_sion_reader(fs::FileSystem& fs, par::Comm& comm,
                        const CheckpointSpec& spec, const std::string& name,
                        Fn&& use) {
  if (spec.collective.has_value()) {
    SION_ASSIGN_OR_RETURN(
        auto sion, ext::Collective::open_read(fs, comm, name,
                                              *spec.collective));
    const Status st = use(*sion);
    SION_RETURN_IF_ERROR(sion->close());
    return st;
  }
  SION_ASSIGN_OR_RETURN(auto sion,
                        core::SionParFile::open_read(fs, comm, name));
  const Status st = use(*sion);
  SION_RETURN_IF_ERROR(sion->close());
  return st;
}

// The same-task-count compressed read path: frame boundaries do not respect
// chunk boundaries, so every task fetches its entire raw stream and decodes
// it tolerantly. The decode verdict is agreed collectively so a rank whose
// stream lost alignment (torn frame header) fails every task cleanly.
Status restore_sion_compressed(fs::FileSystem& fs, par::Comm& comm,
                               const CheckpointSpec& spec,
                               const std::string& name,
                               std::uint64_t expected_bytes,
                               std::span<std::byte> out,
                               ext::StreamLossReport* loss) {
  const bool discard = out.empty();
  std::vector<std::byte> rawbytes;
  Status st = with_sion_reader(fs, comm, spec, name, [&](auto& sion) {
    SION_ASSIGN_OR_RETURN(rawbytes, core::read_whole_stream(sion));
    return Status::Ok();
  });
  if (st.ok()) {
    ext::StreamLossReport mine;
    auto decoded = ext::decompress_stream(rawbytes, &mine);
    if (!decoded.ok()) {
      st = decoded.status();
    } else if (decoded.value().size() != expected_bytes) {
      st = Corrupt(strformat(
          "compressed checkpoint decoded %llu bytes where %llu were "
          "expected (unrecoverable frame-header loss shrinks the stream)",
          static_cast<unsigned long long>(decoded.value().size()),
          static_cast<unsigned long long>(expected_bytes)));
    } else {
      if (!discard && expected_bytes > 0) {
        std::memcpy(out.data(), decoded.value().data(),
                    static_cast<std::size_t>(expected_bytes));
      }
      if (loss != nullptr) loss->merge(mine);
    }
  }
  return par::agree_status(comm, st,
                           "compressed restore failed on another task");
}

}  // namespace

Result<std::unique_ptr<CheckpointSession>> CheckpointSession::open(
    fs::FileSystem& fs, par::Comm& comm, CheckpointSpec spec) {
  if (spec.path.empty()) {
    return InvalidArgument("checkpoint spec has no path");
  }
  if (spec.staging.has_value() && spec.strategy != IoStrategy::kSion) {
    return InvalidArgument(
        "checkpoint staging requires the SIONlib strategy");
  }
  if (spec.compression.has_value() && spec.strategy != IoStrategy::kSion) {
    return InvalidArgument(
        "checkpoint compression requires the SIONlib strategy");
  }
  SION_RETURN_IF_ERROR(validate_protection(spec, comm.size()));
  auto session = std::unique_ptr<CheckpointSession>(new CheckpointSession(
      fs, comm, std::move(spec)));
  const CheckpointSpec& s = session->spec_;
  if (s.staging.has_value()) {
    core::ParOpenSpec open;
    open.filename = s.path;
    open.nfiles = std::max(1, s.nfiles);
    open.fsblksize = s.fsblksize;
    std::optional<ext::BuddyConfig> buddy;
    std::optional<ext::EccConfig> ecc;
    if (const ext::BuddyConfig* b = s.buddy_protection(); b != nullptr) {
      buddy = buddy_config_of(s);
      open.nfiles = buddy->num_domains;  // one physical file per domain
    } else if (const ext::EccConfig* e = s.ecc_protection(); e != nullptr) {
      ecc = ecc_config_of(s);
      open.nfiles = ecc->data_domains;  // one physical file per data domain
    }
    SION_ASSIGN_OR_RETURN(
        session->staging_,
        ext::Staging::open(fs, comm, *s.staging, open, s.collective, buddy,
                           ecc));
  }
  return session;
}

std::string CheckpointSession::checkpoint_name(const CheckpointSpec& spec,
                                               std::uint64_t index) {
  if (index == 0) return spec.path;  // the legacy single-checkpoint name
  // Alternate over enough names that an in-flight drain never lands on the
  // newest durable checkpoint's files.
  const std::uint64_t keep =
      spec.staging.has_value()
          ? static_cast<std::uint64_t>(std::max(2, spec.staging->buffers))
          : 2;
  return spec.path + ".v" + std::to_string(1 + (index - 1) % keep);
}

Result<CheckpointSession::Ticket> CheckpointSession::write_async(
    fs::DataView payload) {
  if (closed_) return FailedPrecondition("checkpoint session is closed");
  const std::uint64_t index = records_.size();
  const par::TaskState* task = par::this_task();
  const double snapshot = task != nullptr ? task->now() : 0.0;
  const std::string name = checkpoint_name(spec_, index);

  // Compression happens here, upstream of every write route: the staging
  // absorb, the buddy replicas, and the collective aggregation all move the
  // already-encoded (smaller) stream as opaque bytes. It runs on the host
  // pool; where the route's first collective is the block-size agreement,
  // this task runs that agreement while the pool compresses (the other
  // tasks run meanwhile), and hands the agreed size down.
  std::uint64_t fsblksize = spec_.fsblksize;
  Result<std::vector<std::byte>> encoded = std::vector<std::byte>{};
  if (spec_.compression.has_value()) {
    std::vector<std::byte> flat;
    std::span<const std::byte> raw = payload.bytes();
    if (payload.is_fill() || payload.is_gather()) {
      flat = flatten_view(payload);
      raw = flat;
    }
    const ext::CompressionSpec& compression = *spec_.compression;
    par::HostJob compressing = par::HostJob::start(
        [&] { encoded = ext::compress_stream(raw, compression); });
    Result<std::uint64_t> agreed = fsblksize;
    if (agreement_first()) agreed = agree_block_size(name);
    compressing.wait();
    SION_RETURN_IF_ERROR(encoded.status());
    SION_ASSIGN_OR_RETURN(fsblksize, std::move(agreed));
    payload = fs::DataView(encoded.value());
  }

  if (staging_ != nullptr) {
    Result<double> finish = staging_->write(index, payload, name);
    if (!finish.ok()) {
      // Either an evicted earlier checkpoint failed to drain or this staged
      // write itself failed; nothing new was recorded.
      sync_records();
      return finish.status();
    }
    Record rec;
    rec.index = index;
    rec.name = name;
    rec.snapshot_vtime = snapshot;
    rec.complete_vtime = finish.value();
    rec.state = State::kInFlight;
    records_.push_back(std::move(rec));
    sync_records();
    SION_RETURN_IF_ERROR(update_manifest());
    return Ticket{index};
  }

  const Status st = write_now(name, payload, fsblksize);
  Record rec;
  rec.index = index;
  rec.name = name;
  rec.snapshot_vtime = snapshot;
  rec.complete_vtime = task != nullptr ? task->now() : 0.0;
  rec.state = st.ok() ? State::kComplete : State::kFailed;
  records_.push_back(std::move(rec));
  SION_RETURN_IF_ERROR(st);
  return Ticket{index};
}

Status CheckpointSession::wait(Ticket ticket) {
  if (ticket.index >= records_.size()) {
    return InvalidArgument(strformat(
        "wait for checkpoint %llu, but only %llu were written",
        static_cast<unsigned long long>(ticket.index),
        static_cast<unsigned long long>(records_.size())));
  }
  if (staging_ == nullptr) {
    if (records_[ticket.index].state == State::kFailed) {
      return IoError(strformat("checkpoint %llu ('%s') failed",
                               static_cast<unsigned long long>(ticket.index),
                               records_[ticket.index].name.c_str()));
    }
    return Status::Ok();
  }
  const Status st = staging_->wait(ticket.index);
  sync_records();
  const Status manifest = update_manifest();
  SION_RETURN_IF_ERROR(st);
  return manifest;
}

Status CheckpointSession::drain() {
  if (staging_ == nullptr) return Status::Ok();
  const Status st = staging_->drain_all();
  sync_records();
  const Status manifest = update_manifest();
  SION_RETURN_IF_ERROR(st);
  return manifest;
}

Status CheckpointSession::close() {
  if (closed_) return Status::Ok();
  const Status st = drain();
  closed_ = true;
  return st;
}

void CheckpointSession::sync_records() {
  if (staging_ == nullptr) return;
  const std::vector<ext::Staging::DrainInfo>& infos = staging_->history();
  const std::size_t n = std::min(infos.size(), records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    switch (infos[i].state) {
      case ext::Staging::SlotState::kInFlight:
        records_[i].state = State::kInFlight;
        break;
      case ext::Staging::SlotState::kDrained:
        records_[i].state = State::kComplete;
        break;
      case ext::Staging::SlotState::kFailed:
        records_[i].state = State::kFailed;
        break;
    }
  }
}

Status CheckpointSession::update_manifest() {
  const std::optional<std::uint64_t> latest = staging_->last_drained();
  if (!latest.has_value()) return Status::Ok();
  if (manifest_written_ && manifest_value_ == *latest) return Status::Ok();
  Status st = Status::Ok();
  if (comm_->rank() == 0) {
    // Drain-agent bookkeeping, not application I/O: charges nothing.
    fs::UnchargedIo uncharged(*fs_);
    Result<std::unique_ptr<fs::File>> file =
        fs_->create(spec_.path + ".manifest");
    if (!file.ok()) {
      st = file.status();
    } else {
      const std::string text = std::to_string(*latest) + "\n";
      const Result<std::uint64_t> n = file.value()->pwrite(
          fs::DataView(std::as_bytes(std::span<const char>(text))), 0);
      if (!n.ok()) st = n.status();
    }
  }
  SION_RETURN_IF_ERROR(par::share_status(*comm_, st, 0,
                                         "checkpoint manifest"));
  manifest_written_ = true;
  manifest_value_ = *latest;
  return Status::Ok();
}

bool CheckpointSession::agreement_first() const {
  if (staging_ != nullptr || spec_.strategy != IoStrategy::kSion) return false;
  if (spec_.ecc_protection() != nullptr) return true;
  if (spec_.buddy_protection() == nullptr) return false;
  const ext::BuddyConfig config = buddy_config_of(spec_);
  return config.replicas == 1 || config.collective.has_value();
}

Result<std::uint64_t> CheckpointSession::agree_block_size(
    const std::string& name) {
  // open() ran validate_protection, which makes every check Ecc::write and
  // Buddy::write do before their agreement, so running it first here
  // changes nothing but where it is called from.
  core::ParOpenSpec open;
  open.filename = name;
  open.fsblksize = spec_.fsblksize;
  if (spec_.ecc_protection() != nullptr) {
    return ext::Ecc::agree_block_size(*fs_, *comm_, open);
  }
  return ext::Buddy::agree_block_size(*fs_, *comm_, open);
}

Status CheckpointSession::write_now(const std::string& name,
                                    fs::DataView payload,
                                    std::uint64_t fsblksize) {
  const CheckpointSpec& spec = spec_;
  switch (spec.strategy) {
    case IoStrategy::kSion: {
      core::ParOpenSpec open;
      open.filename = name;
      open.chunksize = sion_chunksize(payload);
      open.nfiles = spec.nfiles;
      open.fsblksize = fsblksize;
      if (spec.buddy_protection() != nullptr) {
        return ext::Buddy::write(*fs_, *comm_, open, buddy_config_of(spec),
                                 payload);
      }
      if (spec.ecc_protection() != nullptr) {
        return ext::Ecc::write(*fs_, *comm_, open, ecc_config_of(spec),
                               payload);
      }
      return ext::write_multifile(
          *fs_, *comm_, open,
          spec.collective ? &*spec.collective : nullptr, payload);
    }
    case IoStrategy::kSingleFileSeq: {
      baseline::SingleFileSeqOptions options;
      options.staging_bytes = spec.seq_staging_bytes;
      return baseline::write_single_file_seq(*fs_, *comm_, name, payload,
                                             options);
    }
    case IoStrategy::kTaskLocal: {
      SION_ASSIGN_OR_RETURN(
          auto file,
          baseline::TaskLocalFile::create(*fs_, fs::parent(name),
                                          fs::basename(name), comm_->rank()));
      SION_ASSIGN_OR_RETURN(const std::uint64_t n, file.write(payload));
      (void)n;
      comm_->barrier();
      return Status::Ok();
    }
  }
  return InvalidArgument("unknown checkpoint strategy");
}

Status CheckpointSession::restore(fs::FileSystem& fs, par::Comm& comm,
                                  const CheckpointSpec& spec,
                                  std::uint64_t index,
                                  std::uint64_t expected_bytes,
                                  std::span<std::byte> out) {
  const std::string name = checkpoint_name(spec, index);
  const bool discard = out.empty();
  if (!discard && out.size() < expected_bytes) {
    return InvalidArgument("output buffer too small for checkpoint");
  }
  switch (spec.strategy) {
    case IoStrategy::kSion: {
      if (spec.restart_ntasks != 0 && comm.size() != spec.restart_ntasks) {
        return InvalidArgument(strformat(
            "restart_ntasks is %d but the restart runs %d tasks",
            spec.restart_ntasks, comm.size()));
      }
      // Restarts run at any task count; 0 skips the writer-divisibility
      // checks while still rejecting impossible geometries early.
      SION_RETURN_IF_ERROR(validate_protection(spec, 0));
      ext::StreamLossReport local_loss;
      if (spec.ecc_protection() != nullptr) {
        // Probe once; lost files are either healed first or decoded on the
        // fly during the remap reads (EccConfig::restore_mode). Each task
        // receives its `expected_bytes` slice of the concatenated global
        // stream (with M == N that slice is exactly the task's own stream).
        SION_ASSIGN_OR_RETURN(
            const ext::RemapStats stats,
            ext::Ecc::restore(fs, comm, name, ecc_config_of(spec),
                              discard ? std::span<std::byte>{}
                                      : out.subspan(0, expected_bytes),
                              expected_bytes, remap_config_of(spec)));
        local_loss.merge(stats.loss);
      } else if (spec.buddy_protection() != nullptr) {
        // Probe-and-heal first, then the remap restore; each task receives
        // its `expected_bytes` slice of the concatenated global stream
        // (with M == N that slice is exactly the task's own stream).
        SION_ASSIGN_OR_RETURN(
            const ext::RemapStats stats,
            ext::Buddy::restore(fs, comm, name, buddy_config_of(spec),
                                discard ? std::span<std::byte>{}
                                        : out.subspan(0, expected_bytes),
                                expected_bytes, remap_config_of(spec)));
        local_loss.merge(stats.loss);
      } else if (spec.restart_ntasks != 0) {
        SION_ASSIGN_OR_RETURN(auto remap,
                              ext::Remap::open(fs, comm, name,
                                               remap_config_of(spec)));
        SION_ASSIGN_OR_RETURN(
            const ext::RemapStats stats,
            remap->restore(discard ? std::span<std::byte>{}
                                   : out.subspan(0, expected_bytes),
                           expected_bytes));
        local_loss.merge(stats.loss);
        SION_RETURN_IF_ERROR(remap->close());
      } else if (spec.compression.has_value()) {
        SION_RETURN_IF_ERROR(restore_sion_compressed(
            fs, comm, spec, name, expected_bytes,
            discard ? std::span<std::byte>{} : out.subspan(0, expected_bytes),
            &local_loss));
      } else {
        SION_RETURN_IF_ERROR(
            with_sion_reader(fs, comm, spec, name, [&](auto& sion) {
              if (sion.bytes_remaining_total() != expected_bytes) {
                return Corrupt("checkpoint size does not match expectation");
              }
              if (discard) return sion.read_skip(expected_bytes);
              SION_ASSIGN_OR_RETURN(
                  const std::uint64_t n,
                  sion.read(out.subspan(0, expected_bytes)));
              if (n != expected_bytes) return Corrupt("short checkpoint read");
              return Status::Ok();
            }));
      }
      if (spec.compression.has_value() &&
          spec.compression->loss_report != nullptr) {
        // Surface the restart's global loss on every task: the allreduced
        // sums are deterministic and identical everywhere, and run only
        // when every rank got here (the paths above agree on failure).
        ext::StreamLossReport global;
        global.frames_decoded =
            comm.allreduce_u64(local_loss.frames_decoded, par::ReduceOp::kSum);
        global.frames_skipped =
            comm.allreduce_u64(local_loss.frames_skipped, par::ReduceOp::kSum);
        global.bytes_zero_filled = comm.allreduce_u64(
            local_loss.bytes_zero_filled, par::ReduceOp::kSum);
        global.bytes_discarded = comm.allreduce_u64(
            local_loss.bytes_discarded, par::ReduceOp::kSum);
        spec.compression->loss_report->merge(global);
      }
      return Status::Ok();
    }
    case IoStrategy::kSingleFileSeq: {
      baseline::SingleFileSeqOptions options;
      options.staging_bytes = spec.seq_staging_bytes;
      return baseline::read_single_file_seq(
          fs, comm, name, expected_bytes,
          discard ? std::span<std::byte>{} : out.subspan(0, expected_bytes),
          options);
    }
    case IoStrategy::kTaskLocal: {
      SION_ASSIGN_OR_RETURN(
          auto file, baseline::TaskLocalFile::open_existing(
                         fs, fs::parent(name), fs::basename(name),
                         comm.rank(), /*writable=*/false));
      if (discard) {
        SION_RETURN_IF_ERROR(file.read_skip(expected_bytes));
      } else {
        SION_ASSIGN_OR_RETURN(const std::uint64_t n,
                              file.read(out.subspan(0, expected_bytes)));
        if (n != expected_bytes) return Corrupt("short checkpoint read");
      }
      comm.barrier();
      return Status::Ok();
    }
  }
  return InvalidArgument("unknown checkpoint strategy");
}

Result<std::uint64_t> CheckpointSession::restore_latest(
    fs::FileSystem& fs, par::Comm& comm, const CheckpointSpec& spec,
    std::uint64_t expected_bytes, std::span<std::byte> out) {
  const std::string manifest = spec.path + ".manifest";
  std::uint64_t latest_plus1 = 0;  // 0 = no manifest, fall back to index 0
  Status st = Status::Ok();
  if (comm.rank() == 0 && fs.exists(manifest)) {
    Result<std::unique_ptr<fs::File>> file = fs.open_read(manifest);
    if (!file.ok()) {
      st = file.status();
    } else {
      std::array<std::byte, 32> buffer{};
      const Result<std::uint64_t> n =
          file.value()->pread(std::span<std::byte>(buffer), 0);
      if (!n.ok()) {
        st = n.status();
      } else {
        std::uint64_t value = 0;
        bool any = false;
        for (std::uint64_t i = 0; i < n.value(); ++i) {
          const char c = static_cast<char>(buffer[i]);
          if (c < '0' || c > '9') break;
          value = value * 10 + static_cast<std::uint64_t>(c - '0');
          any = true;
        }
        if (!any) {
          st = Corrupt(strformat("manifest '%s' is unparsable",
                                 manifest.c_str()));
        } else {
          latest_plus1 = value + 1;
        }
      }
    }
  }
  SION_RETURN_IF_ERROR(par::share_status(comm, st, 0, "checkpoint manifest"));
  latest_plus1 = comm.bcast_u64(latest_plus1, 0);
  const std::uint64_t index = latest_plus1 == 0 ? 0 : latest_plus1 - 1;
  SION_RETURN_IF_ERROR(restore(fs, comm, spec, index, expected_bytes, out));
  return index;
}

}  // namespace sion::workloads
