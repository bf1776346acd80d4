// Divergence battery (label: divergence): one task's failure inside a
// collective open or close must end as a non-ok Status on every task, never
// as an engine abort ("deadlock" CHECK) with the other tasks stuck in the
// next rendezvous.
//
// Every fused phase of the multifile protocol is hit once, on the first, a
// middle and the last of 4 physical files (16 tasks, 4 per file):
//   * the file master's block-size probe (before the gathers);
//   * the file master's create (before the layout exchange);
//   * one non-master's open of the physical file, for writing and for
//     reading (before the open vote);
//   * the file master's metablock-2 write at close (before the close vote).
// Each case runs through core::SionParFile and through ext::Collective. The
// task whose operation failed keeps its own error; the other tasks of its
// file get the master's code when the master failed, and every other task
// gets Internal.
//
// Tasks that disagree on an argument fail too: one task leaving the block
// size to detection, or passing another size, while the others pass one
// makes every task return InvalidArgument. Through ext::Buddy a task left
// to detection sends the tasks into collectives of different kinds, which
// the engine stops with a CHECK that names both.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/api.h"
#include "ext/buddy.h"
#include "ext/collective.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"

namespace sion {
namespace {

constexpr int kTasks = 16;
constexpr int kFiles = 4;
constexpr int kPerFile = kTasks / kFiles;
constexpr char kName[] = "div.sion";

// A SimFs front that fails one kind of operation for one task (by engine
// rank): the per-task faults a path-based FaultPlan cannot single out.
class OneTaskFaultFs final : public fs::FileSystem {
 public:
  enum class Op : std::uint8_t { kNone, kBlockSize, kOpenRw, kOpenRead };

  explicit OneTaskFaultFs(fs::SimFs& inner) : inner_(inner) {}

  void fail(Op op, int rank) {
    op_ = op;
    rank_ = rank;
  }

  Result<std::unique_ptr<fs::File>> create(const std::string& path) override {
    return inner_.create(path);
  }
  Result<std::unique_ptr<fs::File>> open_read(
      const std::string& path) override {
    if (fires(Op::kOpenRead)) return IoError("injected open_read failure");
    return inner_.open_read(path);
  }
  Result<std::unique_ptr<fs::File>> open_rw(const std::string& path) override {
    if (fires(Op::kOpenRw)) return IoError("injected open_rw failure");
    return inner_.open_rw(path);
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
    if (fires(Op::kBlockSize)) {
      return PermissionDenied("injected block-size probe failure");
    }
    return inner_.block_size(path);
  }
  void begin_uncharged_io() override { inner_.begin_uncharged_io(); }
  void end_uncharged_io() override { inner_.end_uncharged_io(); }

 private:
  bool fires(Op op) const {
    return op == op_ && par::this_task() != nullptr &&
           par::this_task()->rank() == rank_;
  }

  fs::SimFs& inner_;
  Op op_ = Op::kNone;
  int rank_ = -1;
};

// A parallel writer/reader under test: SionParFile or ext::Collective.
struct Api {
  const char* name;
  // Open for writing, write 4 KiB, then close (with `before_close` run by
  // every task after a barrier). Returns the first failure.
  std::function<Status(fs::FileSystem&, par::Comm&,
                       const std::function<void(par::Comm&)>&)>
      write;
  std::function<Status(fs::FileSystem&, par::Comm&)> read;
  int opening_non_master;  // lcom rank of a non-master that opens the file
};

core::ParOpenSpec write_spec() {
  core::ParOpenSpec spec;
  spec.filename = kName;
  spec.nfiles = kFiles;
  spec.chunksize = 4 * kKiB;
  return spec;
}

ext::CollectiveConfig collective_config() {
  ext::CollectiveConfig config;
  config.group_size = 2;  // lcom ranks 0 and 2 collect and open the file
  return config;
}

Status status_of(const Status& st) { return st; }
template <typename T>
Status status_of(const Result<T>& r) {
  return r.ok() ? Status::Ok() : r.status();
}

template <typename Handle>
Status write_then_close(Handle& handle, par::Comm& world,
                        const std::function<void(par::Comm&)>& before_close) {
  const Status st =
      status_of(handle->write(fs::DataView::fill(std::byte{7}, 4 * kKiB)));
  world.barrier();
  before_close(world);
  world.barrier();
  const Status closed = handle->close();
  return st.ok() ? closed : st;
}

std::vector<Api> apis() {
  return {
      Api{"SionParFile",
          [](fs::FileSystem& fs, par::Comm& world,
             const std::function<void(par::Comm&)>& before_close) {
            auto opened = core::SionParFile::open_write(fs, world, write_spec());
            if (!opened.ok()) return opened.status();
            return write_then_close(opened.value(), world, before_close);
          },
          [](fs::FileSystem& fs, par::Comm& world) {
            auto opened = core::SionParFile::open_read(fs, world, kName);
            if (!opened.ok()) return opened.status();
            return opened.value()->close();
          },
          1},
      Api{"Collective",
          [](fs::FileSystem& fs, par::Comm& world,
             const std::function<void(par::Comm&)>& before_close) {
            auto opened = ext::Collective::open_write(fs, world, write_spec(),
                                                      collective_config());
            if (!opened.ok()) return opened.status();
            return write_then_close(opened.value(), world, before_close);
          },
          [](fs::FileSystem& fs, par::Comm& world) {
            auto opened = ext::Collective::open_read(fs, world, kName,
                                                     collective_config());
            if (!opened.ok()) return opened.status();
            return opened.value()->close();
          },
          2},
  };
}

// Every task failed; `failing` kept `own`; the other tasks of `file` got
// `file_code` (kInternal when only a non-master failed), the rest Internal.
void expect_codes(const std::vector<Status>& got, int failing, ErrorCode own,
                  int file, ErrorCode file_code, const std::string& where) {
  for (int r = 0; r < kTasks; ++r) {
    const Status& st = got[static_cast<std::size_t>(r)];
    ASSERT_FALSE(st.ok()) << where << ": rank " << r << " succeeded";
    ErrorCode want = ErrorCode::kInternal;
    if (r == failing) {
      want = own;
    } else if (r / kPerFile == file) {
      want = file_code;
    }
    EXPECT_EQ(st.code(), want) << where << ": rank " << r << " got "
                               << st.to_string();
  }
}

class DivergenceTest : public ::testing::Test {
 protected:
  // Writes one healthy multifile, for the read cases.
  void write_healthy(const Api& api) {
    engine_.run(kTasks, [&](par::Comm& world) {
      ASSERT_TRUE(api.write(fs_, world, [](par::Comm&) {}).ok());
    });
  }

  std::vector<Status> run_write(
      const Api& api,
      const std::function<void(par::Comm&)>& before_close = [](par::Comm&) {
      }) {
    std::vector<Status> got(kTasks);
    engine_.run(kTasks, [&](par::Comm& world) {
      got[static_cast<std::size_t>(world.rank())] =
          api.write(faulty_, world, before_close);
    });
    faulty_.fail(OneTaskFaultFs::Op::kNone, -1);
    fs_.disarm_faults();
    return got;
  }

  std::vector<Status> run_read(const Api& api) {
    std::vector<Status> got(kTasks);
    engine_.run(kTasks, [&](par::Comm& world) {
      got[static_cast<std::size_t>(world.rank())] = api.read(faulty_, world);
    });
    faulty_.fail(OneTaskFaultFs::Op::kNone, -1);
    return got;
  }

  fs::SimFs fs_{fs::TestbedConfig()};
  OneTaskFaultFs faulty_{fs_};
  par::Engine engine_{par::EngineConfig{
      .stack_bytes = 64 * 1024, .network = fs::TestbedConfig().network}};
};

constexpr int kTargetFiles[] = {0, 1, kFiles - 1};

TEST_F(DivergenceTest, MasterBlockSizeProbeFails) {
  for (const Api& api : apis()) {
    for (const int file : kTargetFiles) {
      const int master = file * kPerFile;
      faulty_.fail(OneTaskFaultFs::Op::kBlockSize, master);
      expect_codes(run_write(api), master, ErrorCode::kPermissionDenied, file,
                   ErrorCode::kPermissionDenied,
                   std::string(api.name) + " probe on file " +
                       std::to_string(file));
    }
  }
}

TEST_F(DivergenceTest, MasterCreateFails) {
  for (const Api& api : apis()) {
    for (const int file : kTargetFiles) {
      fs_.arm_faults(fs::FaultPlan{}.open_error(
          core::physical_file_name(kName, file, kFiles)));
      const std::vector<Status> got = run_write(api);
      const ErrorCode code = got[static_cast<std::size_t>(file * kPerFile)].code();
      EXPECT_NE(code, ErrorCode::kInternal);
      expect_codes(got, file * kPerFile, code, file, code,
                   std::string(api.name) + " create of file " +
                       std::to_string(file));
    }
  }
}

TEST_F(DivergenceTest, NonMasterOpenForWritingFails) {
  for (const Api& api : apis()) {
    for (const int file : kTargetFiles) {
      const int task = file * kPerFile + api.opening_non_master;
      faulty_.fail(OneTaskFaultFs::Op::kOpenRw, task);
      expect_codes(run_write(api), task, ErrorCode::kIoError, file,
                   ErrorCode::kInternal,
                   std::string(api.name) + " open_rw on file " +
                       std::to_string(file));
    }
  }
}

TEST_F(DivergenceTest, NonMasterOpenForReadingFails) {
  for (const Api& api : apis()) {
    write_healthy(api);
    for (const int file : kTargetFiles) {
      const int task = file * kPerFile + api.opening_non_master;
      faulty_.fail(OneTaskFaultFs::Op::kOpenRead, task);
      expect_codes(run_read(api), task, ErrorCode::kIoError, file,
                   ErrorCode::kInternal,
                   std::string(api.name) + " open_read on file " +
                       std::to_string(file));
    }
  }
}

TEST_F(DivergenceTest, MasterMetablock2WriteFails) {
  for (const Api& api : apis()) {
    for (const int file : kTargetFiles) {
      const std::string path = core::physical_file_name(kName, file, kFiles);
      const std::vector<Status> got =
          run_write(api, [&](par::Comm& world) {
            if (world.rank() == 0) {
              fs_.arm_faults(fs::FaultPlan{}.write_error(path));
            }
          });
      const ErrorCode code = got[static_cast<std::size_t>(file * kPerFile)].code();
      EXPECT_NE(code, ErrorCode::kInternal);
      expect_codes(got, file * kPerFile, code, file, code,
                   std::string(api.name) + " metablock 2 of file " +
                       std::to_string(file));
    }
  }
}

// The task of rank `odd` passes `odd_size` as its block size; every other
// task passes 4 KiB.
std::uint64_t mixed_block_size(int rank, int odd, std::uint64_t odd_size) {
  return rank == odd ? odd_size : 4 * kKiB;
}

// Through SionParFile and ext::Collective, one task's block size differs
// from the others' (a file master, a non-master, and the last task): every
// task gets InvalidArgument, and no task warns about a file it never
// created.
void expect_mixed_block_sizes_fail(par::Engine& engine, fs::FileSystem& fs,
                                   std::uint64_t odd_size) {
  for (const int odd : {kPerFile, kPerFile + 1, kTasks - 1}) {
    for (const bool collective : {false, true}) {
      std::vector<Status> got(kTasks);
      ::testing::internal::CaptureStderr();
      engine.run(kTasks, [&](par::Comm& world) {
        core::ParOpenSpec spec = write_spec();
        spec.fsblksize = mixed_block_size(world.rank(), odd, odd_size);
        got[static_cast<std::size_t>(world.rank())] =
            collective ? status_of(ext::Collective::open_write(
                             fs, world, spec, collective_config()))
                       : status_of(core::SionParFile::open_write(fs, world,
                                                                 spec));
      });
      const std::string log = ::testing::internal::GetCapturedStderr();
      const char* api = collective ? "Collective" : "SionParFile";
      EXPECT_EQ(log.find("destroyed without collective close"),
                std::string::npos)
          << api << ", task " << odd << " logged:\n" << log;
      for (int r = 0; r < kTasks; ++r) {
        EXPECT_EQ(got[static_cast<std::size_t>(r)].code(),
                  ErrorCode::kInvalidArgument)
            << api << ", task " << odd << " passes " << odd_size << ", rank "
            << r << " got " << got[static_cast<std::size_t>(r)].to_string();
      }
    }
  }
}

TEST_F(DivergenceTest, OneTaskLeavesTheBlockSizeToDetection) {
  expect_mixed_block_sizes_fail(engine_, fs_, 0);
}

// Before the argument word of the create's exchange, the 8 KiB task kept
// its own size and wrote into its neighbour's chunk.
TEST_F(DivergenceTest, OneTaskPassesAnotherBlockSize) {
  expect_mixed_block_sizes_fail(engine_, fs_, 8 * kKiB);
}

TEST_F(DivergenceTest, BuddyWithOneTaskDetectingAbortsNamingBothCollectives) {
  // Only the detecting task enters the block-size exchange; the others go
  // on to split the communicator for the primary multifile.
  EXPECT_DEATH(
      {
        ext::BuddyConfig config;
        config.replicas = 2;
        engine_.run(kTasks, [&](par::Comm& world) {
          core::ParOpenSpec spec = write_spec();
          spec.fsblksize = mixed_block_size(world.rank(), 1, 0);
          (void)ext::Buddy::write(fs_, world, spec, config,
                                  fs::DataView::fill(std::byte{7}, kKiB));
        });
      },
      "collective kind mismatch .*(exchange.*split|split.*exchange)");
}

}  // namespace
}  // namespace sion
