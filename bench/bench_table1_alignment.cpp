// Table 1: "Bandwidth to a SIONlib multifile with 16 underlying physical
// files on Jugene with and without block alignment".
//
// Paper: 32 Ki tasks, 256 GB, 16 files; configuring SIONlib with the true
// 2 MiB GPFS block size vs a wrong 16 KiB block size (chunks then share
// file-system blocks between tasks) degrades writes 2.53x (5381.8 ->
// 2125.8 MB/s) and reads 1.78x (4630.6 -> 2603.0 MB/s).
#include "bench_util.h"
#include "common/options.h"
#include "core/api.h"

namespace {

using namespace sion;          // NOLINT(google-build-using-namespace)
fs::SimConfig g_machine;          // NOLINT(google-build-using-namespace)
using namespace sion::bench;   // NOLINT(google-build-using-namespace)

struct Point {
  double write_mbps;
  double read_mbps;
};

Point run_point(int ntasks, std::uint64_t total_bytes,
                std::uint64_t configured_blksize) {
  const fs::SimConfig machine = g_machine;  // real fs block: 2 MiB
  fs::SimFs fs(machine);
  par::Engine engine(engine_config_for(machine));
  const std::uint64_t per_task =
      total_bytes / static_cast<std::uint64_t>(ntasks);

  const double t_write = timed_run(engine, ntasks, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "align.sion";
    spec.chunksize = per_task;
    spec.nfiles = 16;
    spec.fsblksize = configured_blksize;  // the knob Table 1 varies
    auto sion = core::SionParFile::open_write(fs, world, spec);
    SION_CHECK(sion.ok()) << sion.status().to_string();
    world.barrier();
    // Write in 2 MiB pieces, as a checkpointing application would.
    std::uint64_t done = 0;
    while (done < per_task) {
      const std::uint64_t piece = std::min<std::uint64_t>(2 * kMiB, per_task - done);
      SION_CHECK(sion.value()->write(fs::DataView::fill(std::byte{'a'}, piece)).ok());
      done += piece;
    }
    SION_CHECK(sion.value()->close().ok());
  });

  const double t_read = timed_run(engine, ntasks, [&](par::Comm& world) {
    auto sion = core::SionParFile::open_read(fs, world, "align.sion");
    SION_CHECK(sion.ok()) << sion.status().to_string();
    world.barrier();
    std::uint64_t done = 0;
    while (done < per_task) {
      const std::uint64_t piece = std::min<std::uint64_t>(2 * kMiB, per_task - done);
      SION_CHECK(sion.value()->read_skip(piece).ok());
      done += piece;
    }
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
  const int ntasks = std::max(16, checked_trunc<int>(32768 * scale));
  const std::uint64_t total = static_cast<std::uint64_t>(
      static_cast<double>(256) * static_cast<double>(kGiB) * scale);
  g_machine = scaled_machine(fs::JugeneConfig(), scale);

  print_header("Table 1: effect of file-system block alignment (Jugene)",
               "write 5381.8 -> 2125.8 MB/s (2.53x), read 4630.6 -> 2603.0 "
               "MB/s (1.78x) when chunks share 2 MiB GPFS blocks");

  // Constructed before the sweep so host.wall_seconds covers it.
  Report report("table1_alignment",
                "Effect of file-system block alignment on Jugene");
  report.set_param("scale", scale);
  report.set_param("ntasks", ntasks);

  const Point aligned = run_point(ntasks, total, 2 * kMiB);
  const Point unaligned = run_point(ntasks, total, 16 * kKiB);

  std::printf("%8s %10s %10s %12s %12s\n", "#tasks", "data", "blksize",
              "write MB/s", "read MB/s");
  std::printf("%8s %10s %10s %12.1f %12.1f\n", human_tasks(ntasks).c_str(),
              format_bytes(total).c_str(), "2 MiB", aligned.write_mbps,
              aligned.read_mbps);
  std::printf("%8s %10s %10s %12.1f %12.1f\n", human_tasks(ntasks).c_str(),
              format_bytes(total).c_str(), "16 KiB", unaligned.write_mbps,
              unaligned.read_mbps);
  std::printf("degradation: write %.2fx, read %.2fx (paper: 2.53x, 1.78x)\n",
              aligned.write_mbps / unaligned.write_mbps,
              aligned.read_mbps / unaligned.read_mbps);

  Table& table = report.table(
      "alignment", {"blksize", "write_mbps", "read_mbps"});
  table.row({"2 MiB", aligned.write_mbps, aligned.read_mbps});
  table.row({"16 KiB", unaligned.write_mbps, unaligned.read_mbps});
  return report.write_if_requested(opts);
}
