// Tests of the benchmark's own code: the recorder is transparent, the
// self-time attribution partitions the traced wall time, and the tail
// helper picks the right percentile. Run through
// `python3 perfbench/run.py --selftest` or `ctest` in the build directory.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/par_file.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "recorder_fs.h"
#include "spans.h"
#include "stats.h"
#include "workloads/checkpoint.h"
#include "workloads/tracer.h"

namespace {

using namespace perfbench;  // NOLINT(google-build-using-namespace)

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

// ---- recorder transparency -------------------------------------------------

struct Outcome {
  double epoch = 0.0;
  sion::fs::SimFs::Counters counters;
  std::uint64_t allocated = 0;
  FsCounters recorded;
  bool all_ok = true;
};

// A small run over every path the workloads take: a SION round trip with
// read, read_skip (pread_discard) and close, then a compressed, ECC
// protected, collectively aggregated checkpoint restored N->M.
Outcome small_run(bool wrap) {
  sion::fs::SimFs sim(sion::fs::JugeneConfig());
  std::optional<RecorderFs> recorder;
  if (wrap) recorder.emplace(sim, nullptr);
  sion::fs::FileSystem& fs =
      wrap ? static_cast<sion::fs::FileSystem&>(*recorder) : sim;
  sion::par::EngineConfig config;
  config.network = sim.config().network;
  sion::par::Engine engine(config);
  Outcome out;
  const auto ok = [&](bool b) { out.all_ok = out.all_ok && b; };

  constexpr int kTasks = 8;
  constexpr std::uint64_t kBytes = 3000;
  engine.run(kTasks, [&](sion::par::Comm& world) {
    sion::core::ParOpenSpec spec;
    spec.filename = "t.sion";
    spec.nfiles = 2;
    spec.chunksize = 1024;
    auto w = sion::core::SionParFile::open_write(fs, world, spec);
    ok(w.ok());
    std::vector<std::byte> data(kBytes, std::byte{static_cast<unsigned char>(world.rank())});
    ok(w.value()->write(sion::fs::DataView(data)).ok());
    ok(w.value()->close().ok());
  });
  sim.drop_caches();
  engine.run(kTasks, [&](sion::par::Comm& world) {
    auto r = sion::core::SionParFile::open_read(fs, world, "t.sion");
    ok(r.ok());
    std::vector<std::byte> back(kBytes / 2);
    ok(r.value()->read(back).ok());
    ok(std::all_of(back.begin(), back.end(), [&](std::byte b) {
      return b == std::byte{static_cast<unsigned char>(world.rank())};
    }));
    ok(r.value()->read_skip(kBytes - back.size()).ok());
    ok(r.value()->close().ok());
  });

  std::vector<std::vector<std::byte>> payloads;
  for (int r = 0; r < kTasks; ++r) {
    payloads.push_back(sion::workloads::trace_serialize(
        sion::workloads::trace_generate(r, 500, 7)));
  }
  sion::workloads::CheckpointSpec ck;
  ck.path = "ck";
  ck.nfiles = 4;
  ck.compression = sion::ext::CompressionSpec{};
  sion::ext::EccConfig ecc;
  ecc.data_domains = 4;
  ecc.parity_domains = 2;
  ck.protection = ecc;
  sion::ext::CollectiveConfig aggregation;
  aggregation.group_size = 2;
  ck.collective = aggregation;
  ok(RecorderFs::admit(ck).ok());
  engine.run(kTasks, [&](sion::par::Comm& world) {
    ok(sion::workloads::write_checkpoint(
           fs, world, ck,
           sion::fs::DataView(payloads[static_cast<std::size_t>(world.rank())]))
           .ok());
  });
  sim.drop_caches();
  const std::uint64_t total = payloads.size() * payloads[0].size();
  ck.restart_ntasks = kTasks / 2;
  std::vector<std::byte> restored(total);
  engine.run(kTasks / 2, [&](sion::par::Comm& world) {
    const std::uint64_t b = total * static_cast<std::uint64_t>(world.rank()) / (kTasks / 2);
    const std::uint64_t e = total * static_cast<std::uint64_t>(world.rank() + 1) / (kTasks / 2);
    ok(sion::workloads::read_checkpoint(
           fs, world, ck, e - b, std::span<std::byte>(restored).subspan(b, e - b))
           .ok());
  });
  std::vector<std::byte> flat;
  for (const auto& p : payloads) flat.insert(flat.end(), p.begin(), p.end());
  ok(flat == restored);

  out.epoch = engine.epoch();
  out.counters = sim.counters();
  out.allocated = sim.allocated_bytes();
  if (wrap) out.recorded = recorder->counters();
  return out;
}

void test_recorder_transparent() {
  const Outcome plain = small_run(false);
  const Outcome wrapped = small_run(true);
  EXPECT(plain.all_ok);
  EXPECT(wrapped.all_ok);
  EXPECT(plain.epoch == wrapped.epoch);  // bit-identical virtual time
  const auto& a = plain.counters;
  const auto& b = wrapped.counters;
  EXPECT(a.creates == b.creates);
  EXPECT(a.opens == b.opens);
  EXPECT(a.cached_opens == b.cached_opens);
  EXPECT(a.client_token_opens == b.client_token_opens);
  EXPECT(a.writes == b.writes);
  EXPECT(a.reads == b.reads);
  EXPECT(a.bytes_written == b.bytes_written);
  EXPECT(a.bytes_read == b.bytes_read);
  EXPECT(a.lock_transfers == b.lock_transfers);
  EXPECT(a.read_revokes == b.read_revokes);
  EXPECT(a.cache_hit_bytes == b.cache_hit_bytes);
  EXPECT(plain.allocated == wrapped.allocated);
  // The recorder saw the traffic, parity separately from primary files.
  const FsCounters& r = wrapped.recorded;
  EXPECT(r.write_ops == b.writes);
  EXPECT(r.write_bytes == b.bytes_written);
  EXPECT(r.read_bytes == b.bytes_read);
  EXPECT(r.parity_write_bytes > 0);
  EXPECT(r.primary_write_bytes + r.parity_write_bytes == r.write_bytes);
  EXPECT(r.meta_ops > 0);
}

void test_recorder_refuses_staging() {
  sion::workloads::CheckpointSpec spec;
  EXPECT(RecorderFs::admit(spec).ok());
  spec.staging = sion::ext::StagingConfig{};
  EXPECT(!RecorderFs::admit(spec).ok());
}

void test_parity_paths() {
  EXPECT(is_parity_path("ckpt.p0"));
  EXPECT(is_parity_path("dir/ckpt.p12"));
  EXPECT(!is_parity_path("ckpt.p"));
  EXPECT(!is_parity_path("ckpt.000001"));
  EXPECT(!is_parity_path("ckpt.px1"));
  EXPECT(!is_parity_path("ckpt"));
}

// ---- self-time attribution -------------------------------------------------

std::int64_t self(const Spans& s, Kind k) {
  return s.self_ns()[static_cast<std::size_t>(k)];
}

// Two fibers (ranks 0 and 1) interleave inside one Engine::run span of the
// host thread (rank -1). Each interval goes to the innermost open span of
// the task that emitted the event that starts it.
void test_attribution_synthetic() {
  Spans s(2, {0, 1});
  s.begin_window(0);
  s.begin_at(Kind::kParRun, -1, 10);   // [0,10) harness
  s.begin_at(Kind::kCoreOpen, 0, 20);  // [10,20) par.run of rank -1
  s.begin_at(Kind::kFsMeta, 0, 25);    // [20,25) core.open of rank 0
  s.begin_at(Kind::kCoreOpen, 1, 30);  // [25,30) fs.meta of rank 0
  s.end_at(Kind::kFsMeta, 0, 45);      // [30,45) core.open of rank 1
  s.end_at(Kind::kCoreOpen, 1, 50);    // [45,50) core.open of rank 0
  s.end_at(Kind::kCoreOpen, 0, 60);    // [50,60) rank 1 idle -> par.run
  s.end_at(Kind::kParRun, -1, 90);     // [60,90) rank 0 idle -> par.run
  s.end_window(100);                   // [90,100) harness
  EXPECT(self(s, Kind::kHarness) == 20);
  EXPECT(self(s, Kind::kParRun) == 50);
  EXPECT(self(s, Kind::kCoreOpen) == 25);
  EXPECT(self(s, Kind::kFsMeta) == 5);
  const std::int64_t total =
      std::accumulate(s.self_ns().begin(), s.self_ns().end(), std::int64_t{0});
  EXPECT(total == 100);
  EXPECT(s.window_ns() == 100);
  EXPECT(s.inclusive_ns()[static_cast<std::size_t>(Kind::kParRun)] == 80);
  EXPECT(s.inclusive_ns()[static_cast<std::size_t>(Kind::kCoreOpen)] == 60);
  EXPECT(s.calls()[static_cast<std::size_t>(Kind::kCoreOpen)] == 2);
  EXPECT(s.raw().size() == 4);
}

// The same property on real fibers and clocks: spans around blocking
// collectives still partition the window exactly.
void test_attribution_engine() {
  constexpr int kTasks = 4;
  Spans s(kTasks, {0});
  sion::par::Engine engine;
  s.begin_window();
  {
    Span run(&s, Kind::kParRun);
    engine.run(kTasks, [&](sion::par::Comm& world) {
      for (int i = 0; i < 3; ++i) {
        Span outer(&s, Kind::kCoreOpen);
        world.barrier();
        Span inner(&s, Kind::kFsMeta);
        sion::par::this_task()->compute(1e-6 * (world.rank() + 1));
      }
    });
  }
  s.end_window();
  const std::int64_t total =
      std::accumulate(s.self_ns().begin(), s.self_ns().end(), std::int64_t{0});
  EXPECT(total == s.window_ns());
  EXPECT(s.window_ns() > 0);
  EXPECT(s.calls()[static_cast<std::size_t>(Kind::kCoreOpen)] == 3 * kTasks);
  EXPECT(s.calls()[static_cast<std::size_t>(Kind::kFsMeta)] == 3 * kTasks);
}

// ---- order statistics ------------------------------------------------------

void test_tail() {
  std::vector<double> ten(10);
  std::iota(ten.begin(), ten.end(), 1.0);
  EXPECT(!tail(ten).has_value());  // nothing has 10 samples beyond it

  std::vector<double> eleven(11);
  std::iota(eleven.begin(), eleven.end(), 1.0);
  const Tail t11 = tail(eleven).value();
  EXPECT(t11.value == 1.0);
  EXPECT(t11.beyond == 10);

  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  sion::Rng rng(3);
  for (std::size_t i = hundred.size(); i > 1; --i) {
    std::swap(hundred[i - 1], hundred[rng.next_below(i)]);
  }
  const Tail t100 = tail(hundred).value();
  EXPECT(t100.value == 90.0);  // 91..100 lie beyond it
  EXPECT(t100.percentile == 90.0);
  EXPECT(t100.beyond == 10);
  EXPECT(t100.samples == 100);

  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

}  // namespace

int main() {
  test_recorder_transparent();
  test_recorder_refuses_staging();
  test_parity_paths();
  test_attribution_synthetic();
  test_attribution_engine();
  test_tail();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all tests passed\n");
  return 0;
}
