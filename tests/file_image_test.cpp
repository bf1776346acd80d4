// File-image goldens (label: perf): the bytes every SION writer leaves on
// disk, and the number of file-system operations it and its reader issue.
//
// The virtual-time goldens (golden_determinism_test) pin *when* things
// happen; this suite pins *what* is written. Each scenario writes a small
// multifile on SimFs through one writer, with writes that cross several
// chunk ends, then reads it back through the matching reader. For every
// physical file it records the size and the CRC32C of the whole image; for
// the write pass and the read pass it records the SimFs write and read op
// counts and a CRC32C of every data operation's kind, offset and length.
//
// A refactor of the chunk walk must leave all of these unchanged. When a
// test fails, the message prints the observed record to paste into the
// golden — only after deciding that the on-disk format was meant to change.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "core/multifile.h"
#include "ext/buddy.h"
#include "ext/collective.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion {
namespace {

// Distinct, position-dependent bytes for each rank and each call.
std::vector<std::byte> pattern(int rank, int call, std::uint64_t n) {
  std::vector<std::byte> out(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(
        (static_cast<std::uint64_t>(rank) * 131 +
         static_cast<std::uint64_t>(call) * 29 + i * 7 + 13) &
        0xFF);
  }
  return out;
}

// A SimFs front that logs every pwrite, pread and pread_discard (kind,
// offset, length) in issue order; the log's CRC32C pins the exact
// operation sequence, which the counts alone would not.
class TracingFs final : public fs::FileSystem {
 public:
  explicit TracingFs(fs::SimFs& inner) : inner_(inner) {}

  // "<what> ops <n> trace <crc32c>" since the last call; clears the log.
  std::string take(const char* what) {
    std::string out = strformat(
        "%s ops %zu trace %08x\n", what, log_.size() / kRecord,
        crc32c(std::span<const std::byte>(log_)));
    log_.clear();
    return out;
  }

  Result<std::unique_ptr<fs::File>> create(const std::string& path) override {
    return wrap(inner_.create(path));
  }
  Result<std::unique_ptr<fs::File>> open_read(
      const std::string& path) override {
    return wrap(inner_.open_read(path));
  }
  Result<std::unique_ptr<fs::File>> open_rw(const std::string& path) override {
    return wrap(inner_.open_rw(path));
  }
  Status mkdir(const std::string& path) override { return inner_.mkdir(path); }
  Status remove(const std::string& path) override {
    return inner_.remove(path);
  }
  Result<std::vector<std::string>> list_dir(const std::string& path) override {
    return inner_.list_dir(path);
  }
  Result<fs::FileStat> stat_path(const std::string& path) override {
    return inner_.stat_path(path);
  }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  Result<std::uint64_t> block_size(const std::string& path) override {
    return inner_.block_size(path);
  }

 private:
  static constexpr std::size_t kRecord = 17;

  class TracingFile final : public fs::File {
   public:
    TracingFile(std::unique_ptr<fs::File> inner, TracingFs& owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Result<std::uint64_t> pwrite(fs::DataView data,
                                 std::uint64_t offset) override {
      owner_.record('w', offset, data.size());
      return inner_->pwrite(data, offset);
    }
    Result<std::uint64_t> pread(std::span<std::byte> out,
                                std::uint64_t offset) override {
      owner_.record('r', offset, out.size());
      return inner_->pread(out, offset);
    }
    Status pread_discard(std::uint64_t len, std::uint64_t offset) override {
      owner_.record('d', offset, len);
      return inner_->pread_discard(len, offset);
    }
    Result<fs::FileStat> stat() override { return inner_->stat(); }
    Status truncate(std::uint64_t size) override {
      return inner_->truncate(size);
    }
    Status sync() override { return inner_->sync(); }

   private:
    std::unique_ptr<fs::File> inner_;
    TracingFs& owner_;
  };

  Result<std::unique_ptr<fs::File>> wrap(
      Result<std::unique_ptr<fs::File>> opened) {
    if (!opened.ok()) return opened.status();
    return std::unique_ptr<fs::File>(
        new TracingFile(std::move(opened).value(), *this));
  }

  void record(char kind, std::uint64_t offset, std::uint64_t len) {
    std::byte rec[kRecord];
    rec[0] = static_cast<std::byte>(kind);
    for (int i = 0; i < 8; ++i) {
      rec[1 + i] = static_cast<std::byte>((offset >> (8 * i)) & 0xFF);
      rec[9 + i] = static_cast<std::byte>((len >> (8 * i)) & 0xFF);
    }
    log_.insert(log_.end(), rec, rec + kRecord);
  }

  fs::SimFs& inner_;
  std::vector<std::byte> log_;
};

// "<path> <size> <crc32c>" per physical file of `name`.
std::string images(fs::SimFs& fs, const std::string& name, int nfiles) {
  std::string out;
  for (int f = 0; f < nfiles; ++f) {
    const std::string path = core::physical_file_name(name, f, nfiles);
    auto file = fs.open_read(path);
    EXPECT_TRUE(file.ok()) << path << ": " << file.status().to_string();
    if (!file.ok()) continue;
    const std::uint64_t size = fs.stat_path(path).value().size;
    std::vector<std::byte> bytes(static_cast<std::size_t>(size));
    const auto got = file.value()->pread(bytes, 0);
    EXPECT_TRUE(got.ok() && got.value() == size) << path;
    out += strformat("%s %llu %08x\n", path.c_str(),
                     static_cast<unsigned long long>(size), crc32c(bytes));
  }
  return out;
}

// The file system under test: SimFs behind the tracing front, plus the
// engine the parallel writers run on.
struct Rig {
  fs::SimFs sim{fs::TestbedConfig()};
  TracingFs fs{sim};
  par::Engine engine{par::EngineConfig{
      .stack_bytes = 64 * 1024, .network = fs::TestbedConfig().network}};

  // SimFs's op counts and the op trace since the last call; resets both.
  std::string ops(const char* what) {
    const auto& c = sim.counters();
    std::string out = strformat("%s writes %llu reads %llu\n", what,
                                static_cast<unsigned long long>(c.writes),
                                static_cast<unsigned long long>(c.reads));
    sim.reset_counters();
    return out + fs.take(what);
  }
};

class FileImageTest : public ::testing::Test {
 protected:
  Rig rig_;
};

// ---- core::SionParFile ------------------------------------------------------

// 8 tasks on 2 files; per-task chunk sizes that are not block multiples.
// Each task writes through write() (crossing chunk ends), through
// ensure_free_space + write_raw, and once more through write(); the reader
// mixes read(), read_raw(), read_skip() and a final read() of the rest.
std::string par_file_record(Rig& rig, bool frames, std::uint64_t fsblksize) {
  const std::string name = frames ? "par_frames.sion" : "par.sion";
  fs::FileSystem& fs = rig.fs;
  rig.engine.run(8, [&](par::Comm& world) {
    const int r = world.rank();
    core::ParOpenSpec spec;
    spec.filename = name;
    spec.nfiles = 2;
    spec.fsblksize = fsblksize;
    spec.chunk_frames = frames;
    spec.chunksize = 900 + 250 * static_cast<std::uint64_t>(r);
    auto sion = core::SionParFile::open_write(fs, world, spec);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    auto& f = *sion.value();
    const std::uint64_t cap = f.chunk_capacity();
    const auto a = pattern(r, 0, 2 * cap + 100 + 37 * static_cast<unsigned>(r));
    ASSERT_TRUE(f.write(fs::DataView(a)).ok());
    const auto b = pattern(r, 1, cap / 2 + 11);
    ASSERT_TRUE(f.ensure_free_space(b.size()).ok());
    ASSERT_TRUE(f.write_raw(fs::DataView(b)).ok());
    const auto c = pattern(r, 2, cap + 3);
    ASSERT_TRUE(f.write(fs::DataView(c)).ok());
    ASSERT_TRUE(f.close().ok());
  });
  std::string out = rig.ops("write");
  rig.engine.run(8, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, name);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    auto& f = *sion.value();
    std::vector<std::byte> buf(static_cast<std::size_t>(
        f.bytes_remaining_total()));
    std::span<std::byte> rest(buf);
    auto n = f.read(rest.first(f.chunk_capacity() + 5));
    ASSERT_TRUE(n.ok());
    rest = rest.subspan(n.value());
    const std::uint64_t avail = f.bytes_avail_in_chunk();
    n = f.read_raw(rest.first(avail));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(n.value(), avail);
    ASSERT_TRUE(f.read_skip(f.chunk_capacity() / 3 + 1).ok());
    n = f.read(rest);
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(f.eof());
    ASSERT_TRUE(f.close().ok());
  });
  out += rig.ops("read");
  return out + images(rig.sim, name, 2);
}

TEST_F(FileImageTest, SionParFileWithoutFrames) {
  constexpr char kGolden[] =
      "write writes 54 reads 0\n"
      "write ops 54 trace 85e6d902\n"
      "read writes 0 reads 54\n"
      "read ops 54 trace 0986931e\n"
      "par.sion.000000 1114284 80020180\n"
      "par.sion.000001 1114284 d1718f56\n";
  const std::string got = par_file_record(rig_, false, 0);
  EXPECT_EQ(got, kGolden) << "observed:\n" << got;
}

TEST_F(FileImageTest, SionParFileWithFrames) {
  constexpr char kGolden[] =
      "write writes 166 reads 0\n"
      "write ops 166 trace 9535a248\n"
      "read writes 0 reads 54\n"
      "read ops 54 trace 581b4a67\n"
      "par_frames.sion.000000 69804 2d34136b\n"
      "par_frames.sion.000001 69804 6a78ba38\n";
  const std::string got = par_file_record(rig_, true, 4 * kKiB);
  EXPECT_EQ(got, kGolden) << "observed:\n" << got;
}

// ---- core::SionSerialFile ---------------------------------------------------

// 5 logical files on 2 physical files. Rank 0 writes across chunk ends,
// seeks back into its first chunk and overwrites part of it (inside the
// written range, and past its end); rank 3 seeks two blocks ahead before
// writing. The reader walks every rank with read(), checks read_at(), and
// reads one rank through a task-local view.
std::string serial_record(Rig& rig, bool frames) {
  const std::string name = frames ? "serial_frames.sion" : "serial.sion";
  fs::FileSystem& fs = rig.fs;
  {
    core::SerialWriteSpec spec;
    spec.filename = name;
    spec.chunksizes = {700, 1500, 300, 2000, 512};
    spec.nfiles = 2;
    spec.fsblksize = 512;
    spec.chunk_frames = frames;
    auto sion = core::SionSerialFile::open_write(fs, spec).value();
    for (int r = 0; r < 5; ++r) {
      const std::uint64_t block = r == 3 ? 2 : 0;
      EXPECT_TRUE(sion->seek(r, block, 0).ok());
      const auto a = pattern(r, 0, 1700 + 300 * static_cast<unsigned>(r));
      EXPECT_TRUE(sion->write(fs::DataView(a)).ok());
      if (r == 1) {
        EXPECT_TRUE(sion->ensure_free_space(900).ok());
        EXPECT_TRUE(sion->write_raw(fs::DataView(pattern(r, 1, 900))).ok());
      }
    }
    // Overwrite inside rank 0's written first chunk, then run past its end
    // into the next chunks.
    EXPECT_TRUE(sion->seek(0, 0, 100).ok());
    EXPECT_TRUE(sion->write(fs::DataView(pattern(0, 2, 200))).ok());
    EXPECT_TRUE(sion->seek(0, 1, 300).ok());
    EXPECT_TRUE(sion->write(fs::DataView(pattern(0, 3, 1000))).ok());
    EXPECT_TRUE(sion->close().ok());
  }
  std::string out = rig.ops("write");
  {
    auto sion = core::SionSerialFile::open_read(fs, name).value();
    for (int r = 0; r < 5; ++r) {
      EXPECT_TRUE(sion->seek(r, 0, 0).ok());
      std::vector<std::byte> all(
          static_cast<std::size_t>(sion->logical_bytes(r)));
      auto n = sion->read(std::span(all).first(all.size() / 2));
      EXPECT_TRUE(n.ok());
      const std::uint64_t avail = sion->bytes_avail_in_chunk();
      auto raw = sion->read_raw(std::span(all).subspan(n.value(), avail));
      EXPECT_TRUE(raw.ok());
      auto rest = sion->read(std::span(all).subspan(n.value() + raw.value()));
      EXPECT_TRUE(rest.ok());
      EXPECT_TRUE(sion->eof());
      std::vector<std::byte> at(all.size() / 3 + 1);
      auto got = sion->read_at(r, all.size() / 3, at);
      EXPECT_TRUE(got.ok());
      EXPECT_TRUE(std::equal(at.begin(),
                             at.begin() + static_cast<std::ptrdiff_t>(
                                              got.value()),
                             all.begin() + static_cast<std::ptrdiff_t>(
                                               all.size() / 3)));
    }
    EXPECT_TRUE(sion->close().ok());
    auto one = core::SionSerialFile::open_rank(fs, name, 3).value();
    EXPECT_TRUE(one->read_logical(3).ok());
    EXPECT_TRUE(one->close().ok());
  }
  out += rig.ops("read");
  return out + images(rig.sim, name, 2);
}

TEST_F(FileImageTest, SionSerialFileWithoutFrames) {
  constexpr char kGolden[] =
      "write writes 27 reads 0\n"
      "write ops 27 trace 565571cd\n"
      "read writes 0 reads 43\n"
      "read ops 43 trace 64d9af2b\n"
      "serial.sion.000000 15988 e6880914\n"
      "serial.sion.000001 15980 43bf3815\n";
  const std::string got = serial_record(rig_, false);
  EXPECT_EQ(got, kGolden) << "observed:\n" << got;
}

TEST_F(FileImageTest, SionSerialFileWithFrames) {
  constexpr char kGolden[] =
      "write writes 111 reads 0\n"
      "write ops 111 trace e742bfd4\n"
      "read writes 0 reads 46\n"
      "read ops 46 trace 55da637e\n"
      "serial_frames.sion.000000 19068 cd952964\n"
      "serial_frames.sion.000001 18548 e57f6bbc\n";
  const std::string got = serial_record(rig_, true);
  EXPECT_EQ(got, kGolden) << "observed:\n" << got;
}

// ---- ext::Collective --------------------------------------------------------

// 12 tasks on 2 files in groups of 3; a small aggregation buffer so the
// waves split inside chunks. Two collective writes (real bytes, then a fill)
// cross several chunk ends; the reader mixes read() and read_skip().
std::string collective_record(Rig& rig, const std::string& name,
                              const ext::CollectiveConfig& config) {
  fs::FileSystem& fs = rig.fs;
  rig.engine.run(12, [&](par::Comm& world) {
    const int r = world.rank();
    core::ParOpenSpec spec;
    spec.filename = name;
    spec.nfiles = 2;
    spec.fsblksize = 4 * kKiB;
    spec.chunksize = 700 + 90 * static_cast<std::uint64_t>(r);
    auto sion = ext::Collective::open_write(fs, world, spec, config);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    auto& f = *sion.value();
    const std::uint64_t cap = f.chunk_capacity();
    const auto a = pattern(r, 0, 2 * cap + 50 + 13 * static_cast<unsigned>(r));
    ASSERT_TRUE(f.write(fs::DataView(a)).ok());
    ASSERT_TRUE(
        f.write(fs::DataView::fill(std::byte{0x5A}, cap + 7 * (r % 3))).ok());
    ASSERT_TRUE(f.close().ok());
  });
  std::string out = rig.ops("write");
  rig.engine.run(12, [&](par::Comm& world) {
    auto sion = ext::Collective::open_read(fs, world, name, config);
    ASSERT_TRUE(sion.ok()) << sion.status().to_string();
    auto& f = *sion.value();
    std::vector<std::byte> buf(static_cast<std::size_t>(
        f.chunk_capacity() + 40));
    ASSERT_TRUE(f.read(buf).ok());
    ASSERT_TRUE(f.read_skip(f.chunk_capacity() / 2).ok());
    std::vector<std::byte> rest(static_cast<std::size_t>(
        f.bytes_remaining_total()));
    ASSERT_TRUE(f.read(rest).ok());
    ASSERT_EQ(f.bytes_remaining_total(), 0u);
    ASSERT_TRUE(f.close().ok());
  });
  out += rig.ops("read");
  return out + images(rig.sim, name, 2);
}

TEST_F(FileImageTest, CollectivePackedAtFsBlock) {
  constexpr char kGolden[] =
      "write writes 162 reads 0\n"
      "write ops 162 trace 9dcf89f1\n"
      "read writes 0 reads 222\n"
      "read ops 222 trace 77049880\n"
      "coll_block.sion.000000 102652 27b8f3fb\n"
      "coll_block.sion.000001 102652 d359f552\n";
  ext::CollectiveConfig config;
  config.group_size = 3;
  config.buffer_bytes = 1000;
  config.packing_granule = 0;
  const std::string got =
      collective_record(rig_, "coll_block.sion", config);
  EXPECT_EQ(got, kGolden) << "observed:\n" << got;
}

TEST_F(FileImageTest, CollectivePackedAtGranule) {
  constexpr char kGolden[] =
      "write writes 112 reads 0\n"
      "write ops 112 trace e7a457fb\n"
      "read writes 0 reads 134\n"
      "read ops 134 trace edefc0b2\n"
      "coll_512.sion.000000 31484 87a59981\n"
      "coll_512.sion.000001 64252 90f89efb\n";
  ext::CollectiveConfig config;
  config.group_size = 3;
  config.buffer_bytes = 1000;
  config.packing_granule = 512;
  const std::string got =
      collective_record(rig_, "coll_512.sion", config);
  EXPECT_EQ(got, kGolden) << "observed:\n" << got;
}

// ---- ext::Buddy, plain mode -------------------------------------------------

// 8 tasks in 2 failure domains, 2 copies: the primary through SionParFile
// and the replica set through the mirror writer, each stream spanning
// several chunks.
TEST_F(FileImageTest, BuddyPlainMirror) {
  constexpr char kGolden[] =
      "write writes 58 reads 0\n"
      "write ops 58 trace 3042dee8\n"
      "buddy.sion.000000 53364 9396f120\n"
      "buddy.sion.000001 69788 c42ce580\n"
      "buddy.sion.b1.000000 69788 e82cf279\n"
      "buddy.sion.b1.000001 53364 28ca39bf\n";
  ext::BuddyConfig config;
  config.replicas = 2;
  config.num_domains = 2;
  rig_.engine.run(8, [&](par::Comm& world) {
    const int r = world.rank();
    core::ParOpenSpec spec;
    spec.filename = "buddy.sion";
    spec.fsblksize = 4 * kKiB;
    spec.chunksize = 1500 + 200 * static_cast<std::uint64_t>(r);
    const auto payload =
        pattern(r, 0, 3 * spec.chunksize + 900 * static_cast<unsigned>(r));
    ASSERT_TRUE(
        ext::Buddy::write(rig_.fs, world, spec, config, fs::DataView(payload))
            .ok());
  });
  std::string got = rig_.ops("write");
  got += images(rig_.sim, "buddy.sion", 2);
  got += images(rig_.sim, ext::Buddy::replica_name("buddy.sion", 1), 2);
  EXPECT_EQ(got, kGolden) << "observed:\n" << got;
}

}  // namespace
}  // namespace sion
