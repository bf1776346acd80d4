// ext::Collective — write aggregation through collector ranks. The key
// contracts: byte-exact round trips (including across the plain per-task
// API, since the on-disk format is an ordinary SION multifile), collector-
// only file-system traffic, and dense chunk packing at the packing
// granule.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "core/multifile.h"
#include "ext/collective.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"

namespace sion::ext {
namespace {

// Distinct, position-dependent payload for each rank.
std::vector<std::byte> pattern(int rank, std::uint64_t n) {
  std::vector<std::byte> out(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((static_cast<std::uint64_t>(rank) * 131 +
                                     i * 7 + 13) &
                                    0xFF);
  }
  return out;
}

TEST(CollectiveTest, RoundTripPackedSmallChunks) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.packing_granule = 4 * kKiB;
  const int n = 16;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "coll.sion";
    // Different sizes per rank, none block-aligned.
    spec.chunksize = 100 + 17 * static_cast<std::uint64_t>(world.rank());
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const auto payload = pattern(world.rank(), spec.chunksize);
    ASSERT_TRUE(coll.value()->write(fs::DataView(payload)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    CollectiveConfig read_cfg = cfg;
    read_cfg.group_size = 8;  // regrouping on read is allowed
    auto coll = Collective::open_read(fs, world, "coll.sion", read_cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const std::uint64_t mine =
        100 + 17 * static_cast<std::uint64_t>(world.rank());
    EXPECT_EQ(coll.value()->bytes_remaining_total(), mine);
    std::vector<std::byte> back(mine);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), mine);
    EXPECT_EQ(back, pattern(world.rank(), mine));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, CollectiveWriteReadsBackPerRankThroughSionParFile) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 3;  // does not divide the task count
  const int n = 8;
  const std::uint64_t chunk = 3000;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "x.sion";
    spec.chunksize = chunk;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const auto payload = pattern(world.rank(), chunk);
    ASSERT_TRUE(coll.value()->write(fs::DataView(payload)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  // Plain per-task read: the aggregated file is an ordinary SION multifile.
  engine.run(n, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, "x.sion");
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    EXPECT_EQ(sion.value()->bytes_remaining_total(), chunk);
    std::vector<std::byte> back(chunk);
    auto got = sion.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), chunk);
    EXPECT_EQ(back, pattern(world.rank(), chunk));
    ASSERT_TRUE(sion.value()->close().ok());
  });
}

TEST(CollectiveTest, PlainWriteReadsBackThroughCollectiveScatter) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const int n = 6;
  const std::uint64_t chunk = 9000;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "y.sion";
    spec.chunksize = chunk;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    const auto payload = pattern(world.rank(), chunk);
    ASSERT_TRUE(sion.value()->write(fs::DataView(payload)).ok());
    ASSERT_TRUE(sion.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    CollectiveConfig cfg;
    cfg.group_size = 2;
    auto coll = Collective::open_read(fs, world, "y.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    std::vector<std::byte> back(chunk);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), chunk);
    EXPECT_EQ(back, pattern(world.rank(), chunk));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, MultiWaveMultiBlockPayloads) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.buffer_bytes = 4 * kKiB;  // force several waves per member
  const int n = 8;
  const std::uint64_t chunk = 8 * kKiB;
  const std::uint64_t payload_bytes = 40 * kKiB + 123;  // several blocks

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "big.sion";
    spec.chunksize = chunk;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    const auto payload = pattern(world.rank(), payload_bytes);
    ASSERT_TRUE(coll.value()->write(fs::DataView(payload)).ok());
    EXPECT_EQ(coll.value()->bytes_written_total(), payload_bytes);
    ASSERT_TRUE(coll.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "big.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->bytes_remaining_total(), payload_bytes);
    std::vector<std::byte> back(payload_bytes);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), payload_bytes);
    EXPECT_EQ(back, pattern(world.rank(), payload_bytes));
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, FillPayloadsRoundTripWithoutMaterialising) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.buffer_bytes = 64 * kKiB;  // several fill waves per member
  const int n = 8;
  const std::uint64_t chunk = 256 * kKiB;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "fill.sion";
    spec.chunksize = chunk;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{'z'}, chunk)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });
  // All payload bytes (plus metablocks) went through the file system and
  // landed as allocated extents (stored as O(1) fills, not real buffers).
  EXPECT_GE(fs.counters().bytes_written, static_cast<std::uint64_t>(n) * chunk);
  EXPECT_GE(fs.allocated_bytes(), static_cast<std::uint64_t>(n) * chunk);

  engine.run(n, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "fill.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    std::vector<std::byte> back(chunk);
    auto got = coll.value()->read(back);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), chunk);
    for (const std::byte b : back) ASSERT_EQ(b, std::byte{'z'});
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, OnlyCollectorsTouchTheFileSystem) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  const int n = 16;  // 4 collectors, one physical file

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "opens.sion";
    spec.chunksize = 4096;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->is_collector(), world.rank() % 4 == 0);
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{1}, 4096)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  // 1 create (master) + 3 opens by the other collectors + 1 block-size
  // stat; members never touch the namespace.
  EXPECT_EQ(fs.counters().creates, 1u);
  EXPECT_EQ(fs.counters().opens + fs.counters().cached_opens, 3u);
}

TEST(CollectiveTest, PackedAlignmentPacksChunksAtGranule) {
  fs::SimFs fs(fs::TestbedConfig());  // 64 KiB fs blocks
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.packing_granule = 4 * kKiB;
  const int n = 8;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "packed.sion";
    spec.chunksize = 100;  // tiny payloads
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{7}, 100)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  // Per-rank capacity is one 4 KiB granule, not one 64 KiB fs block —
  // except for the last rank of each group, whose chunk absorbs the pad to
  // the real block boundary.
  engine.run(n, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, "packed.sion");
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    EXPECT_EQ(sion.value()->fsblksize(), 4 * kKiB);
    if (world.rank() % 4 != 3) {
      EXPECT_EQ(sion.value()->chunk_capacity(), 4 * kKiB);
    } else {
      EXPECT_GE(sion.value()->chunk_capacity(), 4 * kKiB);
    }
    ASSERT_TRUE(sion.value()->close().ok());
  });
}

// The padding is computed against the final metablock-1 size. At 300 tasks
// the requested chunk sizes listed in metablock 1 push the data region past
// the first 4 KiB granule, so a size measured without them would leave
// every group end one granule short of a real block boundary.
TEST(CollectiveTest, PackedGroupsEndOnFsBlocksInAWideFile) {
  fs::SimFs fs(fs::TestbedConfig());  // 64 KiB fs blocks
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 4;
  cfg.packing_granule = 4 * kKiB;
  const int n = 300;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "wide.sion";
    spec.chunksize = 100 + 37 * static_cast<std::uint64_t>(world.rank());
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    ASSERT_TRUE(coll.value()->close().ok());
  });

  auto file = fs.open_read("wide.sion");
  ASSERT_TRUE(file.ok()) << file.status().to_string();
  auto header = core::read_header(*file.value());
  ASSERT_TRUE(header.ok()) << header.status().to_string();
  ASSERT_EQ(header.value().ntasks, static_cast<std::uint32_t>(n));
  auto layout = core::header_layout(header.value());
  ASSERT_TRUE(layout.ok()) << layout.status().to_string();
  EXPECT_EQ(layout.value().data_start(), 8 * kKiB);
  for (int t = 3; t < n; t += 4) {
    const std::uint64_t end =
        layout.value().chunk_start(t, 0) + layout.value().chunksize(t);
    EXPECT_EQ(end % (64 * kKiB), 0u) << "group ending at task " << t;
  }
}

TEST(CollectiveTest, MultipleFilesAndSkipRestore) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  CollectiveConfig cfg;
  cfg.group_size = 2;
  const int n = 8;
  const std::uint64_t chunk = 5000;

  engine.run(n, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "multi.sion";
    spec.chunksize = chunk;
    spec.nfiles = 2;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->nfiles(), 2);
    ASSERT_TRUE(
        coll.value()->write(fs::DataView::fill(std::byte{'m'}, chunk)).ok());
    ASSERT_TRUE(coll.value()->close().ok());
  });

  engine.run(n, [&](par::Comm& world) {
    auto coll = Collective::open_read(fs, world, "multi.sion", cfg);
    ASSERT_TRUE(coll.ok()) << coll.status().to_string();
    EXPECT_EQ(coll.value()->bytes_remaining_total(), chunk);
    ASSERT_TRUE(coll.value()->read_skip(chunk).ok());
    EXPECT_EQ(coll.value()->bytes_remaining_total(), 0u);
    ASSERT_TRUE(coll.value()->close().ok());
  });
}

TEST(CollectiveTest, CheckpointWorkloadCollectiveFlagRoundTrips) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  const int n = 12;

  workloads::CheckpointSpec spec;
  spec.path = "ckpt.sion";
  spec.strategy = workloads::IoStrategy::kSion;
  spec.collective = ext::CollectiveConfig{.group_size = 4};

  engine.run(n, [&](par::Comm& world) {
    const auto payload =
        pattern(world.rank(), 2048 + 100 * static_cast<std::uint64_t>(
                                               world.rank()));
    ASSERT_TRUE(workloads::write_checkpoint(fs, world, spec,
                                            fs::DataView(payload))
                    .ok());
  });
  fs.drop_caches();
  engine.run(n, [&](par::Comm& world) {
    const auto expect =
        pattern(world.rank(), 2048 + 100 * static_cast<std::uint64_t>(
                                               world.rank()));
    std::vector<std::byte> back(expect.size());
    ASSERT_TRUE(workloads::read_checkpoint(fs, world, spec, expect.size(),
                                           back)
                    .ok());
    EXPECT_EQ(back, expect);
  });
}

TEST(CollectiveTest, RejectsChunkFramesAndZeroChunksize) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    CollectiveConfig cfg;
    core::ParOpenSpec spec;
    spec.filename = "bad.sion";
    spec.chunksize = 1024;
    spec.chunk_frames = true;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    EXPECT_FALSE(coll.ok());
    (void)world;
  });
}

TEST(CollectiveTest, OneTaskWithNonPowerOfTwoBlockSizeFailsEveryTask) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    CollectiveConfig cfg;
    cfg.group_size = 2;
    core::ParOpenSpec spec;
    spec.filename = "oddblk.sion";
    spec.fsblksize = world.rank() == 1 ? 48 : 64;
    spec.chunksize = 1024;
    auto coll = Collective::open_write(fs, world, spec, cfg);
    ASSERT_FALSE(coll.ok()) << "rank " << world.rank();
    if (world.rank() == 1) {
      EXPECT_EQ(coll.status().code(), ErrorCode::kInvalidArgument);
    }
  });
}

TEST(CollectiveTest, OpenReadRejectsChunkFramedFile) {
  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  engine.run(4, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "framed.sion";
    spec.chunksize = 1024;
    spec.chunk_frames = true;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    ASSERT_TRUE(sion.value()->close().ok());
    auto coll = Collective::open_read(fs, world, "framed.sion", {});
    EXPECT_FALSE(coll.ok()) << "rank " << world.rank();
  });
}

TEST(CollectiveTest, SplitGroupsHelper) {
  par::Engine engine;
  engine.run(10, [&](par::Comm& world) {
    par::Comm* g = world.split_groups(4);
    ASSERT_NE(g, nullptr);
    const int expect_size = world.rank() < 8 ? 4 : 2;
    EXPECT_EQ(g->size(), expect_size);
    EXPECT_EQ(g->rank(), world.rank() % 4);
    par::Comm* whole = world.split_groups(0);
    ASSERT_NE(whole, nullptr);
    EXPECT_EQ(whole->size(), world.size());
  });
}

}  // namespace
}  // namespace sion::ext
