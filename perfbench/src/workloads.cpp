#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <utility>

#include "common/rng.h"
#include "common/units.h"
#include "core/par_file.h"
#include "ext/compress.h"
#include "ext/gf256.h"
#include "fs/sim/machine.h"
#include "stats.h"
#include "workloads/checkpoint.h"
#include "workloads/tracer.h"

namespace perfbench {

using sion::kKiB;
using sion::kMiB;
using sion::core::ParOpenSpec;
using sion::core::SionParFile;
using sion::fs::DataView;
using sion::par::Comm;

void Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(what);
}

namespace {

// Run `call` inside a span of `kind`.
template <typename F>
auto traced(Spans* spans, Kind kind, F&& call) {
  Span span(spans, kind);
  return call();
}

// Per-task sizes drawn from `rng` around `mean` (within +-`spread`) whose
// total is exactly n * mean for every seed: sizes come in +-d pairs that are
// then shuffled, so seeds change which task is large, not how much work a
// step does. `n` must be even.
std::vector<std::uint64_t> paired_sizes(int n, std::uint64_t mean,
                                        std::uint64_t spread, sion::Rng& rng) {
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i + 1 < sizes.size(); i += 2) {
    const std::uint64_t d = rng.next_below(spread + 1);
    sizes[i] = mean + d;
    sizes[i + 1] = mean - d;
  }
  for (std::size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.next_below(i)]);
  }
  return sizes;
}

std::vector<std::uint64_t> prefix_offsets(const std::vector<std::uint64_t>& sizes) {
  std::vector<std::uint64_t> off(sizes.size() + 1, 0);
  for (std::size_t i = 0; i < sizes.size(); ++i) off[i + 1] = off[i] + sizes[i];
  return off;
}

std::size_t idx(int rank) { return static_cast<std::size_t>(rank); }

}  // namespace

// ---- Instance ---------------------------------------------------------------

void Instance::attach(sion::fs::FileSystem& backend,
                      const sion::par::NetworkModel& network) {
  if (spans_ != nullptr) {
    recorder_ = std::make_unique<RecorderFs>(backend, spans_);
    fs_ = recorder_.get();
  } else {
    fs_ = &backend;
  }
  sion::par::EngineConfig config;  // shards stay at the default
  config.network = network;
  engine_ = std::make_unique<sion::par::Engine>(config);
}

double Instance::run_pass(int ntasks, bool write, Tally& tally,
                          double& virt_s) {
  tasks_run_ += static_cast<std::uint64_t>(ntasks);
  const double epoch0 = engine_->epoch();
  const std::int64_t t0 = Spans::now_ns();
  {
    Span span(spans_, Kind::kParRun);
    engine_->run(ntasks, [&](Comm& world) {
      if (write) {
        write_task(world, tally);
      } else {
        read_task(world, tally);
      }
    });
  }
  const std::int64_t t1 = Spans::now_ns();
  virt_s = engine_->epoch() - epoch0;
  return static_cast<double>(t1 - t0) * 1e-9;
}

StepResult Instance::step(Tally& tally) {
  before_step();
  StepResult r;
  double virt_write = 0.0;
  double virt_read = 0.0;
  const std::int64_t t0 = Spans::now_ns();
  if (spans_ != nullptr) spans_->begin_window();
  // Every pass models a fresh job: no client state carries over.
  if (sim_) sim_->drop_caches();
  r.write_s = run_pass(write_tasks(), true, tally, virt_write);
  if (sim_) {
    r.alloc_after_write = sim_->allocated_bytes();
    sim_->drop_caches();
  }
  r.read_s = run_pass(read_tasks(), false, tally, virt_read);
  r.virt_s = virt_write + virt_read;
  if (spans_ != nullptr) spans_->end_window();
  r.step_s = static_cast<double>(Spans::now_ns() - t0) * 1e-9;
  after_step(tally);

  char buf[512];
  int n = std::snprintf(buf, sizeof buf, "%a %a", virt_write, virt_read);
  if (sim_) {
    const sion::fs::SimFs::Counters& c = sim_->counters();
    std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                  " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64,
                  c.creates, c.opens, c.cached_opens, c.client_token_opens,
                  c.writes, c.reads, c.bytes_written, c.bytes_read,
                  c.lock_transfers, c.read_revokes, c.cache_hit_bytes,
                  r.alloc_after_write);
  }
  r.virt = buf;
  return r;
}

// ---- open_close -------------------------------------------------------------

namespace {

constexpr int kOcTasks = 16 * 1024;
constexpr int kOcFiles = 32;
constexpr std::uint64_t kOcWrite = 64 * kKiB;

class OpenClose final : public Workload {
 public:
  explicit OpenClose(std::uint64_t seed) {
    sion::Rng rng(seed);
    chunksizes_ = paired_sizes(kOcTasks, 96 * kKiB, 32 * kKiB, rng);
    fill_ = static_cast<std::byte>(rng.next_below(256));
  }

  int tasks() const override { return kOcTasks; }
  std::uint64_t write_bytes() const override { return kOcTasks * kOcWrite; }
  std::uint64_t read_bytes() const override { return kOcTasks * kOcWrite; }
  std::unique_ptr<Instance> build(Spans* spans) override;

  std::vector<std::uint64_t> chunksizes_;
  std::byte fill_{0};
};

class OpenCloseInstance final : public Instance {
 public:
  OpenCloseInstance(const OpenClose& w, Spans* spans) : Instance(spans), w_(w) {
    sim_ = std::make_unique<sion::fs::SimFs>(sion::fs::JugeneConfig());
    attach(*sim_, sim_->config().network);
  }

 protected:
  int write_tasks() const override { return kOcTasks; }
  int read_tasks() const override { return kOcTasks; }

  void write_task(Comm& world, Tally& tally) override {
    ParOpenSpec spec;
    spec.filename = "open_close.sion";
    spec.nfiles = kOcFiles;
    spec.chunksize = w_.chunksizes_[idx(world.rank())];
    auto opened = traced(spans(), Kind::kCoreOpen, [&] {
      return SionParFile::open_write(fs(), world, spec);
    });
    tally.status(opened.status(), "open_write");
    if (!opened.ok()) return;
    SionParFile& f = *opened.value();
    auto wrote = traced(spans(), Kind::kCoreWrite, [&] {
      return f.write(DataView::fill(w_.fill_, kOcWrite));
    });
    tally.check(wrote.ok() && wrote.value() == kOcWrite, "write 64 KiB fill");
    tally.check(f.bytes_written_total() == kOcWrite, "bytes_written_total");
    tally.status(traced(spans(), Kind::kCoreClose, [&] { return f.close(); }),
                 "close (write)");
  }

  void read_task(Comm& world, Tally& tally) override {
    auto opened = traced(spans(), Kind::kCoreOpen, [&] {
      return SionParFile::open_read(fs(), world, "open_close.sion");
    });
    tally.status(opened.status(), "open_read");
    if (!opened.ok()) return;
    SionParFile& f = *opened.value();
    tally.check(f.bytes_remaining_total() == kOcWrite, "bytes_remaining_total");
    tally.status(traced(spans(), Kind::kCoreRead,
                        [&] { return f.read_skip(kOcWrite); }),
                 "read_skip");
    tally.check(f.eof(), "eof after read_skip");
    tally.status(traced(spans(), Kind::kCoreClose, [&] { return f.close(); }),
                 "close (read)");
  }

 private:
  const OpenClose& w_;
};

std::unique_ptr<Instance> OpenClose::build(Spans* spans) {
  return std::make_unique<OpenCloseInstance>(*this, spans);
}

// ---- checkpoint_restart -----------------------------------------------------

constexpr int kCkWriters = 256;
constexpr int kCkReaders = 64;
constexpr int kCkFiles = 16;
constexpr std::uint64_t kCkEvents = 20000;  // mean events per writer
constexpr int kProbeRanks = 64;
constexpr int kProbeReps = 3;

class CheckpointRestart final : public Workload {
 public:
  explicit CheckpointRestart(std::uint64_t seed) : seed_(seed) {
    sion::Rng rng(seed);
    const std::vector<std::uint64_t> events =
        paired_sizes(kCkWriters, kCkEvents, kCkEvents / 5, rng);
    std::vector<std::uint64_t> sizes(events.size());
    for (std::size_t r = 0; r < events.size(); ++r) {
      sizes[r] = events[r] * sion::workloads::kTraceEventBytes;
    }
    offsets_ = prefix_offsets(sizes);
    payload_.resize(offsets_.back());
    for (int r = 0; r < kCkWriters; ++r) {
      const std::vector<std::byte> bytes = sion::workloads::trace_serialize(
          sion::workloads::trace_generate(r, events[idx(r)], seed));
      std::memcpy(payload_.data() + offsets_[idx(r)], bytes.data(),
                  bytes.size());
    }

    spec_.path = "ckpt";
    spec_.strategy = sion::workloads::IoStrategy::kSion;
    spec_.nfiles = kCkFiles;
    spec_.compression = sion::ext::CompressionSpec{};
    sion::ext::EccConfig ecc;
    ecc.data_domains = kCkFiles;
    ecc.parity_domains = 2;
    spec_.protection = ecc;
    sion::ext::CollectiveConfig aggregation;
    aggregation.group_size = 16;
    spec_.collective = aggregation;
    restore_spec_ = spec_;
    restore_spec_.restart_ntasks = kCkReaders;
  }

  int tasks() const override { return kCkWriters; }
  std::uint64_t write_bytes() const override { return payload_.size(); }
  std::uint64_t read_bytes() const override { return payload_.size(); }
  std::unique_ptr<Instance> build(Spans* spans) override;
  KernelProbe probe_kernels(Tally& tally) override;

  [[nodiscard]] std::span<const std::byte> writer_payload(int r) const {
    return std::span<const std::byte>(payload_).subspan(
        offsets_[idx(r)], offsets_[idx(r) + 1] - offsets_[idx(r)]);
  }
  // Reader r restores its contiguous slice of the concatenated stream.
  [[nodiscard]] std::uint64_t reader_begin(int r) const {
    return payload_.size() * static_cast<std::uint64_t>(r) / kCkReaders;
  }

  std::uint64_t seed_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::byte> payload_;
  sion::workloads::CheckpointSpec spec_;
  sion::workloads::CheckpointSpec restore_spec_;
};

class CheckpointInstance final : public Instance {
 public:
  CheckpointInstance(const CheckpointRestart& w, Spans* spans)
      : Instance(spans), w_(w), readback_(w.payload_.size()) {
    sim_ = std::make_unique<sion::fs::SimFs>(sion::fs::JugeneConfig());
    attach(*sim_, sim_->config().network);
  }

 protected:
  int write_tasks() const override { return kCkWriters; }
  int read_tasks() const override { return kCkReaders; }

  void before_step() override {
    std::fill(readback_.begin(), readback_.end(), std::byte{0});
  }

  void write_task(Comm& world, Tally& tally) override {
    if (recorder() != nullptr) {
      tally.status(RecorderFs::admit(w_.spec_), "recorder admits the spec");
    }
    tally.status(traced(spans(), Kind::kWorkloadsWrite,
                        [&] {
                          return sion::workloads::write_checkpoint(
                              fs(), world, w_.spec_,
                              DataView(w_.writer_payload(world.rank())));
                        }),
                 "write_checkpoint");
  }

  void read_task(Comm& world, Tally& tally) override {
    const std::uint64_t b = w_.reader_begin(world.rank());
    const std::uint64_t e = w_.reader_begin(world.rank() + 1);
    const std::span<std::byte> out =
        std::span<std::byte>(readback_).subspan(b, e - b);
    tally.status(traced(spans(), Kind::kWorkloadsRestore,
                        [&] {
                          return sion::workloads::read_checkpoint(
                              fs(), world, w_.restore_spec_, e - b, out);
                        }),
                 "read_checkpoint");
  }

  void after_step(Tally& tally) override {
    for (int r = 0; r < kCkReaders; ++r) {
      const std::uint64_t b = w_.reader_begin(r);
      const std::uint64_t e = w_.reader_begin(r + 1);
      tally.check(std::memcmp(readback_.data() + b, w_.payload_.data() + b,
                              e - b) == 0,
                  "restored bytes of reader " + std::to_string(r));
    }
  }

 private:
  const CheckpointRestart& w_;
  std::vector<std::byte> readback_;
};

std::unique_ptr<Instance> CheckpointRestart::build(Spans* spans) {
  return std::make_unique<CheckpointInstance>(*this, spans);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

KernelProbe CheckpointRestart::probe_kernels(Tally& tally) {
  std::uint64_t raw = 0;
  std::uint64_t longest = 0;
  for (int r = 0; r < kProbeRanks; ++r) {
    raw += writer_payload(r).size();
    longest = std::max<std::uint64_t>(longest, writer_payload(r).size());
  }
  const double mb = static_cast<double>(raw) / 1e6;
  sion::Rng rng(seed_ ^ 0x6766ULL);
  const auto coeff = static_cast<std::uint8_t>(1 + rng.next_below(255));
  const sion::ext::GfMulTable table(coeff);

  std::vector<double> comp_rate;
  std::vector<double> decomp_rate;
  std::vector<double> gf_rate;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    std::vector<std::vector<std::byte>> encoded;
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kProbeRanks; ++r) {
      auto c = sion::ext::compress_stream(writer_payload(r));
      tally.status(c.status(), "compress_stream");
      encoded.push_back(c.ok() ? std::move(c).value() : std::vector<std::byte>{});
    }
    comp_rate.push_back(mb / seconds_since(t0));

    std::vector<std::vector<std::byte>> decoded;
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kProbeRanks; ++r) {
      auto d = sion::ext::decompress_stream(encoded[idx(r)]);
      tally.status(d.status(), "decompress_stream");
      decoded.push_back(d.ok() ? std::move(d).value() : std::vector<std::byte>{});
    }
    decomp_rate.push_back(mb / seconds_since(t0));
    for (int r = 0; r < kProbeRanks; ++r) {
      const std::span<const std::byte> want = writer_payload(r);
      tally.check(decoded[idx(r)].size() == want.size() &&
                      std::equal(want.begin(), want.end(),
                                 decoded[idx(r)].begin()),
                  "decompress_stream round trip");
    }

    std::vector<std::byte> parity(longest, std::byte{0});
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kProbeRanks; ++r) table.mul_add(parity, writer_payload(r));
    gf_rate.push_back(mb / seconds_since(t0));
    // Scalar reference over the head of the parity buffer.
    bool same = true;
    for (std::size_t i = 0; i < 4096 && i < parity.size(); ++i) {
      std::uint8_t want = 0;
      for (int r = 0; r < kProbeRanks; ++r) {
        const std::span<const std::byte> p = writer_payload(r);
        if (i < p.size()) {
          want ^= sion::ext::gf_mul(coeff, static_cast<std::uint8_t>(p[i]));
        }
      }
      same = same && static_cast<std::uint8_t>(parity[i]) == want;
    }
    tally.check(same, "GfMulTable::mul_add matches gf_mul");
  }
  return KernelProbe{median(comp_rate), median(decomp_rate), median(gf_rate)};
}

// ---- posix_roundtrip --------------------------------------------------------

constexpr int kPxTasks = 64;
constexpr int kPxFiles = 4;
constexpr std::uint64_t kPxChunk = 1 * kMiB;

class PosixRoundtrip final : public Workload {
 public:
  PosixRoundtrip(std::uint64_t seed, std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {
    sion::Rng rng(seed);
    offsets_ = prefix_offsets(paired_sizes(kPxTasks, 4 * kMiB, kMiB, rng));
    payload_.resize(offsets_.back());
    rng.fill_bytes(payload_);
  }

  int tasks() const override { return kPxTasks; }
  std::uint64_t write_bytes() const override { return payload_.size(); }
  std::uint64_t read_bytes() const override { return payload_.size(); }
  std::unique_ptr<Instance> build(Spans* spans) override;

  [[nodiscard]] std::uint64_t size_of(int r) const {
    return offsets_[idx(r) + 1] - offsets_[idx(r)];
  }

  std::string scratch_dir_;
  int built_ = 0;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::byte> payload_;
};

class PosixInstance final : public Instance {
 public:
  PosixInstance(const PosixRoundtrip& w, Spans* spans, std::string dir)
      : Instance(spans), w_(w), dir_(std::move(dir)),
        readback_(w.payload_.size()) {
    std::filesystem::create_directories(dir_);
    attach(posix_, sion::par::NetworkModel{});
  }
  ~PosixInstance() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 protected:
  int write_tasks() const override { return kPxTasks; }
  int read_tasks() const override { return kPxTasks; }

  void before_step() override {
    std::fill(readback_.begin(), readback_.end(), std::byte{0});
  }

  void write_task(Comm& world, Tally& tally) override {
    const int r = world.rank();
    ParOpenSpec spec;
    spec.filename = name();
    spec.nfiles = kPxFiles;
    spec.chunksize = kPxChunk;
    auto opened = traced(spans(), Kind::kCoreOpen, [&] {
      return SionParFile::open_write(fs(), world, spec);
    });
    tally.status(opened.status(), "open_write");
    if (!opened.ok()) return;
    SionParFile& f = *opened.value();
    const std::span<const std::byte> mine =
        std::span<const std::byte>(w_.payload_)
            .subspan(w_.offsets_[idx(r)], w_.size_of(r));
    auto wrote = traced(spans(), Kind::kCoreWrite,
                        [&] { return f.write(DataView(mine)); });
    tally.check(wrote.ok() && wrote.value() == mine.size(), "write payload");
    tally.status(traced(spans(), Kind::kCoreClose, [&] { return f.close(); }),
                 "close (write)");
  }

  void read_task(Comm& world, Tally& tally) override {
    const int r = world.rank();
    auto opened = traced(spans(), Kind::kCoreOpen, [&] {
      return SionParFile::open_read(fs(), world, name());
    });
    tally.status(opened.status(), "open_read");
    if (!opened.ok()) return;
    SionParFile& f = *opened.value();
    tally.check(f.bytes_remaining_total() == w_.size_of(r),
                "bytes_remaining_total");
    const std::span<std::byte> out = std::span<std::byte>(readback_).subspan(
        w_.offsets_[idx(r)], w_.size_of(r));
    auto got = traced(spans(), Kind::kCoreRead, [&] { return f.read(out); });
    tally.check(got.ok() && got.value() == out.size(), "read payload");
    tally.status(traced(spans(), Kind::kCoreClose, [&] { return f.close(); }),
                 "close (read)");
  }

  void after_step(Tally& tally) override {
    for (int r = 0; r < kPxTasks; ++r) {
      const std::uint64_t b = w_.offsets_[idx(r)];
      tally.check(std::memcmp(readback_.data() + b, w_.payload_.data() + b,
                              w_.size_of(r)) == 0,
                  "read-back bytes of task " + std::to_string(r));
    }
    // Each step is a fresh job on an empty directory.
    auto listed = posix_.list_dir(dir_);
    tally.status(listed.status(), "list scratch dir");
    if (!listed.ok()) return;
    for (const std::string& entry : listed.value()) {
      tally.status(posix_.remove(dir_ + "/" + entry), "remove " + entry);
    }
  }

 private:
  [[nodiscard]] std::string name() const { return dir_ + "/roundtrip.sion"; }

  const PosixRoundtrip& w_;
  std::string dir_;
  sion::fs::PosixFs posix_;
  std::vector<std::byte> readback_;
};

std::unique_ptr<Instance> PosixRoundtrip::build(Spans* spans) {
  const std::string dir = scratch_dir_ + "/posix-" + std::to_string(getpid()) +
                          "-" + std::to_string(built_++);
  return std::make_unique<PosixInstance>(*this, spans, dir);
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
  if (name == "open_close") return std::make_unique<OpenClose>(seed);
  if (name == "checkpoint_restart") {
    return std::make_unique<CheckpointRestart>(seed);
  }
  if (name == "posix_roundtrip") {
    return std::make_unique<PosixRoundtrip>(seed, scratch_dir);
  }
  return nullptr;
}

}  // namespace perfbench
