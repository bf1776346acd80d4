// Figure 4: "Bandwidth when using multiple physical files".
//
// (a) Jugene, 64 Ki tasks, 1 TB total, 1..128 physical files: bandwidth
//     rises from ~2.3 GB/s (one file, per-inode limit) and saturates near
//     the 6 GB/s system peak between 8 and 32 files.
// (b) Jaguar, 2 Ki tasks, 1 TB, 1..64 files, with default striping
//     (4 OSTs, 1 MiB) vs optimized striping (64 OSTs, 8 MiB): default rises
//     steadily to ~32 files; optimized is good from 2 files on and always
//     superior.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "core/api.h"

namespace {

using namespace sion;          // NOLINT(google-build-using-namespace)
using namespace sion::bench;   // NOLINT(google-build-using-namespace)

struct Point {
  double write_mbps;
  double read_mbps;
};

Point run_point(const fs::SimConfig& machine, int ntasks,
                std::uint64_t total_bytes, int nfiles,
                const char* stripe_mode) {
  fs::SimFs fs(machine);
  SION_CHECK(fs.mkdir("bench").ok());
  if (std::string(stripe_mode) == "optimized") {
    fs.set_dir_stripe("bench", 64, 8 * kMiB);
  }
  par::Engine engine(engine_config_for(machine));
  const std::uint64_t per_task = total_bytes / static_cast<std::uint64_t>(ntasks);

  // Bandwidth is measured barrier-to-barrier around the data phase only,
  // like the paper's experiments (file creation cost is Figure 3's topic).
  double t_write = 0;
  engine.run(ntasks, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "bench/multi.sion";
    spec.chunksize = per_task;
    spec.nfiles = nfiles;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    SION_CHECK(sion.ok()) << sion.status().to_string();
    world.barrier();
    const double t0 = par::this_task()->now();
    SION_CHECK(sion.value()->write(fs::DataView::fill(std::byte{'b'}, per_task)).ok());
    world.barrier();
    if (world.rank() == 0) t_write = par::this_task()->now() - t0;
    SION_CHECK(sion.value()->close().ok());
  });

  fs.drop_caches();  // measure the file system, not the client cache
  double t_read = 0;
  engine.run(ntasks, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, "bench/multi.sion");
    SION_CHECK(sion.ok()) << sion.status().to_string();
    world.barrier();
    const double t0 = par::this_task()->now();
    SION_CHECK(sion.value()->read_skip(per_task).ok());
    world.barrier();
    if (world.rank() == 0) t_read = par::this_task()->now() - t0;
    SION_CHECK(sion.value()->close().ok());
  });

  return Point{mbps(total_bytes, t_write), mbps(total_bytes, t_read)};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"scale", "json"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const double scale = opts.get_double("scale", 1.0);

  print_header("Figure 4: bandwidth vs number of physical files",
               "GPFS and Lustre both reward distributing a multifile over "
               "several physical files");

  Report report("fig4_physfiles", "Bandwidth vs number of physical files");
  report.set_param("scale", scale);

  {
    const int ntasks = std::max(1, checked_trunc<int>(65536 * scale));
    const std::uint64_t total =
        static_cast<std::uint64_t>(static_cast<double>(kTiB) * scale);
    std::printf("\n--- Figure 4(a) Jugene (64k tasks, 1 TB, peak 6000 MB/s) ---\n");
    std::printf("%8s %14s %14s\n", "#files", "write MB/s", "read MB/s");
    Table& table =
        report.table("jugene", {"nfiles", "write_mbps", "read_mbps"});
    for (int nfiles : {1, 2, 4, 8, 16, 32, 64, 128}) {
      if (nfiles > ntasks) break;  // a reduced --scale run caps the sweep
      const Point p =
          run_point(scaled_machine(fs::JugeneConfig(), scale), ntasks, total, nfiles, "default");
      std::printf("%8d %14.1f %14.1f\n", nfiles, p.write_mbps, p.read_mbps);
      table.row({nfiles, p.write_mbps, p.read_mbps});
    }
  }

  {
    const int ntasks = std::max(1, checked_trunc<int>(2048 * scale));
    const std::uint64_t total =
        static_cast<std::uint64_t>(static_cast<double>(kTiB) * scale);
    std::printf("\n--- Figure 4(b) Jaguar (2k tasks, 1 TB, peak 40000 MB/s) ---\n");
    std::printf("%8s %14s %14s %16s %16s\n", "#files", "write dflt", "read dflt",
                "write optimized", "read optimized");
    Table& table = report.table(
        "jaguar", {"nfiles", "write_default_mbps", "read_default_mbps",
                   "write_optimized_mbps", "read_optimized_mbps"});
    for (int nfiles : {1, 2, 4, 8, 16, 32, 64}) {
      if (nfiles > ntasks) break;  // a reduced --scale run caps the sweep
      const Point dflt =
          run_point(scaled_machine(fs::JaguarConfig(), scale), ntasks, total, nfiles, "default");
      const Point opt =
          run_point(scaled_machine(fs::JaguarConfig(), scale), ntasks, total, nfiles, "optimized");
      std::printf("%8d %14.1f %14.1f %16.1f %16.1f\n", nfiles, dflt.write_mbps,
                  dflt.read_mbps, opt.write_mbps, opt.read_mbps);
      table.row({nfiles, dflt.write_mbps, dflt.read_mbps, opt.write_mbps,
                 opt.read_mbps});
    }
  }
  return report.write_if_requested(opts);
}
