// Quickstart: write and read back a SION multifile with 8 parallel tasks on
// the local file system.
//
//   $ ./quickstart [--ntasks=8] [--nfiles=2] [--dir=/tmp]
//
// This is the paper's Listing 1 + Listing 2 translated to the C++ API:
// collective open, per-task independent writes with ensure_free_space /
// write_raw (the fwrite-style path) and sion_fwrite-style write(), then a
// collective read back that verifies every byte.
#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/api.h"
#include "fs/posix_fs.h"
#include "par/comm.h"
#include "par/engine.h"

using namespace sion;  // NOLINT(google-build-using-namespace)

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"ntasks", "nfiles", "dir"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const int ntasks = static_cast<int>(opts.get_u64("ntasks", 8));
  const int nfiles = static_cast<int>(opts.get_u64("nfiles", 2));
  const std::string dir =
      opts.get_string("dir", std::filesystem::temp_directory_path().string());
  const std::string name = dir + "/quickstart.sion";

  fs::PosixFs pfs;
  par::Engine engine;
  bool all_ok = true;

  engine.run(ntasks, [&](par::Comm& world) {
    // ---- parallel write (collective open/close) -------------------------
    core::ParOpenSpec spec;
    spec.filename = name;
    spec.chunksize = 256 * kKiB;  // max bytes written in one piece
    spec.nfiles = nfiles;
    auto open = core::SionParFile::open_write(pfs, world, spec);
    if (!open.ok()) {
      std::fprintf(stderr, "open_write: %s\n",
                   open.status().to_string().c_str());
      all_ok = false;
      return;
    }
    auto& sion = *open.value();

    // Each task writes its own data into its logical task-local file.
    std::vector<std::byte> mine(100000 +
                                static_cast<std::size_t>(world.rank()) * 1000);
    Rng rng(static_cast<std::uint64_t>(world.rank()));
    rng.fill_bytes(mine);

    // fwrite-style: guarantee space, then write within the chunk...
    all_ok &= sion.ensure_free_space(4096).ok();
    all_ok &= sion.write_raw(fs::DataView(
        std::span<const std::byte>(mine.data(), 4096))).ok();
    // ...or sion_fwrite-style: any size, split at chunk boundaries.
    all_ok &= sion.write(fs::DataView(
        std::span<const std::byte>(mine.data() + 4096,
                                   mine.size() - 4096))).ok();
    all_ok &= sion.close().ok();

    // ---- parallel read back ----------------------------------------------
    auto ropen = core::SionParFile::open_read(pfs, world, name);
    if (!ropen.ok()) {
      std::fprintf(stderr, "open_read: %s\n",
                   ropen.status().to_string().c_str());
      all_ok = false;
      return;
    }
    std::vector<std::byte> back(mine.size());
    auto got = ropen.value()->read(back);
    const bool match = got.ok() && got.value() == mine.size() && back == mine;
    if (!match) all_ok = false;
    all_ok &= ropen.value()->close().ok();

    if (world.rank() == 0) {
      std::printf("wrote %d logical files into %d physical file(s): %s\n",
                  world.size(), nfiles, name.c_str());
    }
    std::printf("  task %3d: %zu bytes round-tripped %s\n", world.rank(),
                mine.size(), match ? "OK" : "MISMATCH");
  });

  // Clean up the demo files.
  for (int f = 0; f < nfiles; ++f) {
    std::filesystem::remove(core::physical_file_name(name, f, nfiles));
  }
  return all_ok ? 0 : 1;
}
