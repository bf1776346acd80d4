// Golden pins for compressed checkpoints on the protected write routes
// (label: perf).
//
// golden_determinism_test pins compression only on the unprotected route,
// and ECC and buddy protection only without compression. Here every
// protected route carries a compressed stream through write_checkpoint and
// read_checkpoint, and each scenario pins, as one text record:
//   * the write and restore makespans (hexfloat) and the engine's
//     rendezvous count after each phase;
//   * every SimFs counter and the allocated bytes after each phase;
//   * the StreamLossReport a restore surfaces, and the CRC32C of the bytes
//     it delivered;
//   * the size and CRC32C of every file the scenario left behind.
// Restores run at the writers' task count and at a different one, and one
// scenario flips a byte inside one frame before its restore. A mismatch
// prints the observed record; only a deliberate model change may re-pin it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/compress.h"
#include "fs/path.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"
#include "workloads/tracer.h"

namespace sion {
namespace {

constexpr int kWriters = 16;

struct Case {
  std::string path;
  bool ecc = true;          // else buddy, replicas 3
  bool aggregate = false;   // ext::Collective on the write route
  std::vector<int> readers;
  bool flip = false;        // one flipped byte in one frame before restores
};

std::vector<std::byte> writer_payload(int rank) {
  return workloads::trace_serialize(workloads::trace_generate(
      rank, 700 + 53 * static_cast<std::uint64_t>(rank), /*seed=*/11));
}

workloads::CheckpointSpec spec_of(const Case& c) {
  workloads::CheckpointSpec spec;
  spec.path = c.path;
  spec.strategy = workloads::IoStrategy::kSion;
  spec.nfiles = 4;
  ext::CompressionSpec compression;
  compression.chunk_bytes = 4 * kKiB;
  spec.compression = compression;
  if (c.ecc) {
    ext::EccConfig ecc;
    ecc.data_domains = 4;
    ecc.parity_domains = 2;
    spec.protection = ecc;
  } else {
    ext::BuddyConfig buddy;
    buddy.replicas = 3;
    buddy.num_domains = 4;
    spec.protection = buddy;
  }
  if (c.aggregate) spec.collective = ext::CollectiveConfig{.group_size = 2};
  return spec;
}

std::string counters_line(const fs::SimFs& fs) {
  const fs::SimFs::Counters& k = fs.counters();
  return strformat(
      "  ops creates=%llu opens=%llu cached=%llu token=%llu writes=%llu "
      "reads=%llu\n"
      "  bytes out=%llu in=%llu locks=%llu revokes=%llu hits=%llu "
      "alloc=%llu\n",
      static_cast<unsigned long long>(k.creates),
      static_cast<unsigned long long>(k.opens),
      static_cast<unsigned long long>(k.cached_opens),
      static_cast<unsigned long long>(k.client_token_opens),
      static_cast<unsigned long long>(k.writes),
      static_cast<unsigned long long>(k.reads),
      static_cast<unsigned long long>(k.bytes_written),
      static_cast<unsigned long long>(k.bytes_read),
      static_cast<unsigned long long>(k.lock_transfers),
      static_cast<unsigned long long>(k.read_revokes),
      static_cast<unsigned long long>(k.cache_hit_bytes),
      static_cast<unsigned long long>(fs.allocated_bytes()));
}

std::vector<std::byte> file_bytes(fs::SimFs& fs, const std::string& name) {
  auto file = fs.open_read(name);
  EXPECT_TRUE(file.ok()) << file.status().to_string();
  if (!file.ok()) return {};
  auto st = file.value()->stat();
  EXPECT_TRUE(st.ok());
  std::vector<std::byte> bytes(st.ok() ? st.value().size : 0);
  auto got = file.value()->pread(bytes, 0);
  EXPECT_TRUE(got.ok() && got.value() == bytes.size());
  return bytes;
}

// Flips one byte inside the slz stream of data file 0's second frame.
void flip_one_frame_byte(fs::SimFs& fs, const std::string& path) {
  const std::string name = core::physical_file_name(path, 0, 4);
  std::vector<std::byte> bytes = file_bytes(fs, name);
  const auto first =
      std::search(bytes.begin(), bytes.end(), ext::kFrameSync.begin(),
                  ext::kFrameSync.end());
  ASSERT_NE(first, bytes.end());
  const auto second = std::search(first + 1, bytes.end(),
                                  ext::kFrameSync.begin(),
                                  ext::kFrameSync.end());
  ASSERT_NE(second, bytes.end());
  const auto at = static_cast<std::uint64_t>(second - bytes.begin()) +
                  ext::kFrameHeaderBytes + 5;
  const std::vector<std::byte> flipped{bytes[at] ^ std::byte{0x10}};
  auto file = fs.open_rw(name);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->pwrite(fs::DataView(flipped), at).ok());
}

std::string run_case(const Case& c) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine(par::EngineConfig{.stack_bytes = 64 * 1024,
                                       .network = fs::TestbedConfig().network});
  std::vector<std::byte> all;
  for (int r = 0; r < kWriters; ++r) {
    const std::vector<std::byte> p = writer_payload(r);
    all.insert(all.end(), p.begin(), p.end());
  }
  std::string record;
  const workloads::CheckpointSpec spec = spec_of(c);

  double t0 = engine.epoch();
  engine.run(kWriters, [&](par::Comm& world) {
    const std::vector<std::byte> payload = writer_payload(world.rank());
    const Status st = workloads::write_checkpoint(fs, world, spec,
                                                  fs::DataView(payload));
    ASSERT_TRUE(st.ok()) << st.to_string();
  });
  record += strformat("write %a rendezvous=%llu\n", engine.epoch() - t0,
                      static_cast<unsigned long long>(
                          engine.rendezvous_count()));
  record += counters_line(fs);

  if (c.flip) {
    fs::UnchargedIo uncharged(fs);
    flip_one_frame_byte(fs, c.path);
  }
  for (const int m : c.readers) {
    fs.drop_caches();
    std::vector<std::byte> restored(all.size());
    std::vector<ext::StreamLossReport> loss(static_cast<std::size_t>(m));
    t0 = engine.epoch();
    engine.run(m, [&](par::Comm& world) {
      const auto me = static_cast<std::uint64_t>(world.rank());
      const std::uint64_t lo = all.size() * me / static_cast<std::uint64_t>(m);
      const std::uint64_t hi =
          all.size() * (me + 1) / static_cast<std::uint64_t>(m);
      workloads::CheckpointSpec mine = spec;
      mine.restart_ntasks = m == kWriters ? 0 : m;
      mine.compression->loss_report = &loss[me];
      const std::span<std::byte> out =
          std::span<std::byte>(restored).subspan(lo, hi - lo);
      const Status st =
          workloads::read_checkpoint(fs, world, mine, hi - lo, out);
      ASSERT_TRUE(st.ok()) << st.to_string();
    });
    for (const ext::StreamLossReport& l : loss) {
      EXPECT_EQ(l.to_string(), loss.front().to_string());
    }
    if (!c.flip) {
      EXPECT_TRUE(restored == all) << "restore at " << m;
    }
    const ext::StreamLossReport& l = loss.front();
    record += strformat(
        "restore%d %a rendezvous=%llu\n"
        "  loss decoded=%llu skipped=%llu zeroed=%llu discarded=%llu "
        "crc=%08x\n",
        m, engine.epoch() - t0,
        static_cast<unsigned long long>(engine.rendezvous_count()),
        static_cast<unsigned long long>(l.frames_decoded),
        static_cast<unsigned long long>(l.frames_skipped),
        static_cast<unsigned long long>(l.bytes_zero_filled),
        static_cast<unsigned long long>(l.bytes_discarded),
        crc32c(restored));
    record += counters_line(fs);
  }

  fs::UnchargedIo uncharged(fs);
  auto names = fs.list_dir(fs::parent(c.path));
  EXPECT_TRUE(names.ok());
  if (names.ok()) {
    std::vector<std::string> sorted = names.value();
    std::sort(sorted.begin(), sorted.end());
    for (const std::string& name : sorted) {
      const std::vector<std::byte> bytes =
          file_bytes(fs, fs::join(fs::parent(c.path), name));
      record += strformat("file %s %zu %08x\n", name.c_str(), bytes.size(),
                          crc32c(bytes));
    }
  }
  return record;
}

TEST(CompressedProtectionGoldenTest, EccPlainTestbed) {
  const std::string golden =
      "write 0x1.6b96fdb81b1ccp-6 rendezvous=17\n"
      "  ops creates=6 opens=0 cached=26 token=0 writes=36 reads=8\n"
      "  bytes out=813401 in=1311024 locks=6 revokes=23 hits=0 alloc=813337\n"
      "restore16 0x1.02e93f32eb9dap-5 rendezvous=32\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=6 opens=6 cached=82 token=0 writes=36 reads=392\n"
      "  bytes out=813401 in=5414505 locks=6 revokes=23 hits=0 alloc=813337\n"
      "restore12 0x1.0b81dadd9d09cp-5 rendezvous=47\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=6 opens=12 cached=130 token=0 writes=36 reads=760\n"
      "  bytes out=813401 in=8993090 locks=6 revokes=23 hits=0 alloc=813337\n"
      "file zecc.ckpt.000000 327756 20646884\n"
      "file zecc.ckpt.000001 327756 3e9a27e9\n"
      "file zecc.ckpt.000002 327756 ad0d5ab4\n"
      "file zecc.ckpt.000003 327756 abe0d1ce\n"
      "file zecc.ckpt.p0 328276 bca9b6da\n"
      "file zecc.ckpt.p1 328276 89c61410\n";
  EXPECT_EQ(golden, run_case({.path = "zecc.ckpt", .readers = {16, 12}}));
}

TEST(CompressedProtectionGoldenTest, EccAggregatedTestbed) {
  const std::string golden =
      "write 0x1.4a4bfea1aa362p-6 rendezvous=54\n"
      "  ops creates=6 opens=0 cached=12 token=0 writes=34 reads=4\n"
      "  bytes out=420185 in=524592 locks=4 revokes=12 hits=0 alloc=420121\n"
      "restore16 0x1.371aab9bdd69fp-5 rendezvous=69\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=6 opens=6 cached=68 token=0 writes=34 reads=388\n"
      "  bytes out=420185 in=4628073 locks=4 revokes=12 hits=0 alloc=420121\n"
      "restore12 0x1.388887e830204p-5 rendezvous=84\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=6 opens=12 cached=116 token=0 writes=34 reads=756\n"
      "  bytes out=420185 in=8206658 locks=4 revokes=12 hits=0 alloc=420121\n"
      "file zecc_c.ckpt.000000 131148 af5167a7\n"
      "file zecc_c.ckpt.000001 131148 fb699170\n"
      "file zecc_c.ckpt.000002 131148 f7268398\n"
      "file zecc_c.ckpt.000003 131148 9b1b288a\n"
      "file zecc_c.ckpt.p0 131668 2946a8be\n"
      "file zecc_c.ckpt.p1 131668 4fe48abe\n";
  EXPECT_EQ(golden, run_case({.path = "zecc_c.ckpt",
                              .aggregate = true,
                              .readers = {16, 12}}));
}

TEST(CompressedProtectionGoldenTest, BuddyPlainTestbed) {
  const std::string golden =
      "write 0x1.f6f133a17c984p-7 rendezvous=31\n"
      "  ops creates=12 opens=0 cached=36 token=0 writes=84 reads=0\n"
      "  bytes out=473067 in=0 locks=0 revokes=0 hits=0 alloc=472875\n"
      "restore16 0x1.eb64fe498103ap-6 rendezvous=49\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=12 opens=4 cached=92 token=0 writes=84 reads=380\n"
      "  bytes out=473067 in=4095273 locks=0 revokes=0 hits=0 alloc=472875\n"
      "restore12 0x1.fc96359ee3dfcp-6 rendezvous=67\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=12 opens=8 cached=140 token=0 writes=84 reads=744\n"
      "  bytes out=473067 in=7665650 locks=0 revokes=0 hits=0 alloc=472875\n"
      "file zbuddy.ckpt.000000 327756 20646884\n"
      "file zbuddy.ckpt.000001 327756 3e9a27e9\n"
      "file zbuddy.ckpt.000002 327756 ad0d5ab4\n"
      "file zbuddy.ckpt.000003 327756 abe0d1ce\n"
      "file zbuddy.ckpt.b1.000000 327756 854c3094\n"
      "file zbuddy.ckpt.b1.000001 327756 c6a41a1d\n"
      "file zbuddy.ckpt.b1.000002 327756 1036c6b3\n"
      "file zbuddy.ckpt.b1.000003 327756 4bcd282d\n"
      "file zbuddy.ckpt.b2.000000 327756 6561c977\n"
      "file zbuddy.ckpt.b2.000001 327756 638c420d\n"
      "file zbuddy.ckpt.b2.000002 327756 e808fb47\n"
      "file zbuddy.ckpt.b2.000003 327756 f6f6b42a\n";
  EXPECT_EQ(golden, run_case({.path = "zbuddy.ckpt",
                              .ecc = false,
                              .readers = {16, 12}}));
}

TEST(CompressedProtectionGoldenTest, BuddyCollectiveTestbed) {
  const std::string golden =
      "write 0x1.007ce5c6d33f6p-6 rendezvous=143\n"
      "  ops creates=12 opens=0 cached=12 token=0 writes=84 reads=0\n"
      "  bytes out=473067 in=0 locks=0 revokes=0 hits=0 alloc=472875\n"
      "restore16 0x1.29e3eb8db24ebp-5 rendezvous=161\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=12 opens=4 cached=68 token=0 writes=84 reads=380\n"
      "  bytes out=473067 in=4095273 locks=0 revokes=0 hits=0 alloc=472875\n"
      "restore12 0x1.2b51c7da05062p-5 rendezvous=179\n"
      "  loss decoded=76 skipped=0 zeroed=0 discarded=0 crc=03fe22c3\n"
      "  ops creates=12 opens=8 cached=116 token=0 writes=84 reads=744\n"
      "  bytes out=473067 in=7665650 locks=0 revokes=0 hits=0 alloc=472875\n"
      "file zbuddy_c.ckpt.000000 131148 af5167a7\n"
      "file zbuddy_c.ckpt.000001 131148 fb699170\n"
      "file zbuddy_c.ckpt.000002 131148 f7268398\n"
      "file zbuddy_c.ckpt.000003 131148 9b1b288a\n"
      "file zbuddy_c.ckpt.b1.000000 131148 01f30ba9\n"
      "file zbuddy_c.ckpt.b1.000001 131148 25ad54e9\n"
      "file zbuddy_c.ckpt.b1.000002 131148 6181b253\n"
      "file zbuddy_c.ckpt.b1.000003 131148 7ddab0d6\n"
      "file zbuddy_c.ckpt.b2.000000 131148 e73293f5\n"
      "file zbuddy_c.ckpt.b2.000001 131148 8b0f38e7\n"
      "file zbuddy_c.ckpt.b2.000002 131148 bf4577ca\n"
      "file zbuddy_c.ckpt.b2.000003 131148 eb7d811d\n";
  EXPECT_EQ(golden, run_case({.path = "zbuddy_c.ckpt",
                              .ecc = false,
                              .aggregate = true,
                              .readers = {16, 12}}));
}

TEST(CompressedProtectionGoldenTest, EccFlippedFrameByteTestbed) {
  const std::string golden =
      "write 0x1.6b96fdb81b1ccp-6 rendezvous=17\n"
      "  ops creates=6 opens=0 cached=26 token=0 writes=36 reads=8\n"
      "  bytes out=813401 in=1311024 locks=6 revokes=23 hits=0 alloc=813337\n"
      "restore16 0x1.02e93f32eb9dap-5 rendezvous=32\n"
      "  loss decoded=75 skipped=1 zeroed=4096 discarded=0 crc=a91ab88a\n"
      "  ops creates=6 opens=6 cached=82 token=0 writes=37 reads=393\n"
      "  bytes out=813402 in=5742261 locks=6 revokes=23 hits=0 alloc=813337\n"
      "restore12 0x1.0b81dadd9d09cp-5 rendezvous=47\n"
      "  loss decoded=75 skipped=1 zeroed=4096 discarded=0 crc=a91ab88a\n"
      "  ops creates=6 opens=12 cached=130 token=0 writes=37 reads=761\n"
      "  bytes out=813402 in=9320846 locks=6 revokes=23 hits=0 alloc=813337\n"
      "file zecc_flip.ckpt.000000 327756 7a867afb\n"
      "file zecc_flip.ckpt.000001 327756 3e9a27e9\n"
      "file zecc_flip.ckpt.000002 327756 ad0d5ab4\n"
      "file zecc_flip.ckpt.000003 327756 abe0d1ce\n"
      "file zecc_flip.ckpt.p0 328276 bca9b6da\n"
      "file zecc_flip.ckpt.p1 328276 89c61410\n";
  EXPECT_EQ(golden, run_case({.path = "zecc_flip.ckpt",
                              .readers = {16, 12},
                              .flip = true}));
}

}  // namespace
}  // namespace sion
