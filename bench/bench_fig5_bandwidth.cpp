// Figure 5: "Bandwidth of SIONlib I/O with 32 underlying physical files in
// comparison to parallel I/O to physical task-local files".
//
// (a) Jugene, 1k..64k tasks, 1 TB multifile: both schemes saturate the
//     ~6 GB/s system from ~8k tasks, SIONlib marginally better.
// (b) Jaguar, 128..12k tasks, 2 TB: SION writes mostly ahead; reads climb
//     beyond the 40 GB/s file-system maximum at large task counts because
//     clients re-read freshly written data from their caches.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "core/api.h"

namespace {

using namespace sion;          // NOLINT(google-build-using-namespace)
using namespace sion::bench;   // NOLINT(google-build-using-namespace)

struct Point {
  double sion_write;
  double sion_read;
  double tl_write;
  double tl_read;
};

Point run_point(const fs::SimConfig& machine, int ntasks,
                std::uint64_t total_bytes) {
  const std::uint64_t per_task =
      total_bytes / static_cast<std::uint64_t>(ntasks);
  Point p{};
  // Bandwidth phases measured barrier-to-barrier (file creation/open cost
  // is Figure 3's topic, not Figure 5's).
  {
    fs::SimFs fs(machine);
    par::Engine engine(engine_config_for(machine));
    engine.run(ntasks, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = "bw.sion";
      spec.chunksize = per_task;
      spec.nfiles = std::min(32, ntasks);
      auto sion = core::SionParFile::open_write(fs, world, spec);
      SION_CHECK(sion.ok()) << sion.status().to_string();
      world.barrier();
      const double t0 = par::this_task()->now();
      SION_CHECK(sion.value()
                     ->write(fs::DataView::fill(std::byte{'s'}, per_task))
                     .ok());
      world.barrier();
      if (world.rank() == 0) p.sion_write = mbps(total_bytes, par::this_task()->now() - t0);
      SION_CHECK(sion.value()->close().ok());
    });
    // Reads happen right after writes within one job, like the paper's
    // experiment — on Jaguar the client caches are warm.
    engine.run(ntasks, [&](par::Comm& world) {
      auto sion = core::SionParFile::open_read(fs, world, "bw.sion");
      SION_CHECK(sion.ok()) << sion.status().to_string();
      world.barrier();
      const double t0 = par::this_task()->now();
      SION_CHECK(sion.value()->read_skip(per_task).ok());
      world.barrier();
      if (world.rank() == 0) p.sion_read = mbps(total_bytes, par::this_task()->now() - t0);
      SION_CHECK(sion.value()->close().ok());
    });
  }
  {
    fs::SimFs fs(machine);
    par::Engine engine(engine_config_for(machine));
    engine.run(ntasks, [&](par::Comm& world) {
      auto file = fs.create(strformat("tl.%06d", world.rank()));
      SION_CHECK(file.ok()) << file.status().to_string();
      world.barrier();
      const double t0 = par::this_task()->now();
      SION_CHECK(file.value()
                     ->pwrite(fs::DataView::fill(std::byte{'t'}, per_task), 0)
                     .ok());
      world.barrier();
      if (world.rank() == 0) p.tl_write = mbps(total_bytes, par::this_task()->now() - t0);
    });
    engine.run(ntasks, [&](par::Comm& world) {
      auto file = fs.open_read(strformat("tl.%06d", world.rank()));
      SION_CHECK(file.ok()) << file.status().to_string();
      world.barrier();
      const double t0 = par::this_task()->now();
      SION_CHECK(file.value()->pread_discard(per_task, 0).ok());
      world.barrier();
      if (world.rank() == 0) p.tl_read = mbps(total_bytes, par::this_task()->now() - t0);
    });
  }
  return p;
}

void run_machine(const char* label, Table& table,
                 const fs::SimConfig& machine,
                 const std::vector<int>& task_counts,
                 std::uint64_t total_bytes, double scale) {
  std::printf("\n--- %s ---\n", label);
  std::printf("%8s %12s %12s %16s %16s %10s\n", "#tasks", "SION write",
              "SION read", "task-local write", "task-local read", "wall(s)");
  for (int raw_n : task_counts) {
    const int n = std::max(1, checked_trunc<int>(raw_n * scale));
    const auto total = static_cast<std::uint64_t>(
        static_cast<double>(total_bytes) * scale);
    const WallTimer wall;
    const Point p = run_point(machine, n, total);
    const double wall_s = wall.seconds();
    std::printf("%8s %12.1f %12.1f %16.1f %16.1f %10.3f\n",
                human_tasks(raw_n).c_str(), p.sion_write, p.sion_read,
                p.tl_write, p.tl_read, wall_s);
    table.row({raw_n, p.sion_write, p.sion_read, p.tl_write, p.tl_read,
               wall_s});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"scale", "json"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const double scale = opts.get_double("scale", 1.0);

  print_header("Figure 5: SIONlib vs task-local file bandwidth",
               "logical file mapping costs no bandwidth; Jaguar reads "
               "exceed the 40 GB/s maximum due to client caching");

  Report report("fig5_bandwidth", "SIONlib vs task-local file bandwidth");
  report.set_param("scale", scale);
  const std::vector<std::string> columns = {
      "tasks", "sion_write_mbps", "sion_read_mbps", "tasklocal_write_mbps",
      "tasklocal_read_mbps", "wall_s"};
  run_machine("Figure 5(a) Jugene (1 TB, 32 files, peak 6000 MB/s)",
              report.table("jugene", columns),
              scaled_machine(fs::JugeneConfig(), scale), {1024, 2048, 4096, 8192, 16384, 32768, 65536},
              kTiB, scale);
  run_machine("Figure 5(b) Jaguar (2 TB, 32 files, peak 40000 MB/s)",
              report.table("jaguar", columns),
              scaled_machine(fs::JaguarConfig(), scale), {128, 256, 512, 1024, 2048, 4096, 8192, 12288},
              2 * kTiB, scale);
  return report.write_if_requested(opts);
}
