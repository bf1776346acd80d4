// Figure 6: "Times needed by MP2C for writing and reading restart files on
// 1000 cores of Jugene with and without using SIONlib".
//
// The original MP2C used the single-file-sequential scheme (one designated
// I/O task, alternating gather and write with a bounded staging buffer),
// which limited feasible problem sizes to ~10 M particles; with SIONlib
// (1000 logical files in ONE physical file) the same machine handled over a
// billion particles. Restart data is 52 bytes per particle. SIONlib writes
// at least one 2 MiB file-system block per task, so its advantage
// materialises for larger problem sizes (>= ~33 M particles), where it
// reaches 1-2 orders of magnitude.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "workloads/checkpoint.h"
#include "workloads/mp2c.h"

namespace {

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

struct Point {
  double write_s;
  double read_s;
};

Point run_point(IoStrategy strategy, int ntasks, std::uint64_t particles) {
  const fs::SimConfig machine = fs::JugeneConfig();
  fs::SimFs fs(machine);
  par::Engine engine(engine_config_for(machine));

  CheckpointSpec spec;
  spec.path = "restart.ckpt";
  spec.strategy = strategy;
  spec.nfiles = 1;  // "The 1000 task-local files were mapped onto a single
                    //  physical file."

  Point p{};
  p.write_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    const std::uint64_t bytes =
        mp2c_local_particles(particles, world.size(), world.rank()) *
        kParticleBytes;
    SION_CHECK(write_checkpoint(fs, world, spec,
                                fs::DataView::fill(std::byte{'p'}, bytes))
                   .ok());
  });
  fs.drop_caches();  // restart happens in a later job
  p.read_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    const std::uint64_t bytes =
        mp2c_local_particles(particles, world.size(), world.rank()) *
        kParticleBytes;
    SION_CHECK(read_checkpoint(fs, world, spec, bytes, {}).ok());
  });
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"scale", "ntasks", "max-mio", "json"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  // --scale shrinks the task count and problem sizes together, preserving
  // the per-task payload.
  const double scale = opts.get_double("scale", 1.0);
  const int ntasks = std::max(
      4, static_cast<int>(static_cast<double>(opts.get_u64("ntasks", 1000)) *
                          scale));
  const double max_mio = opts.get_double("max-mio", 1000.0);

  print_header("Figure 6: MP2C restart file I/O on 1000 Jugene cores",
               "single-file-sequential vs SIONlib; ~1-2 orders of magnitude "
               "improvement for >= 33 M particles");

  Report report("fig6_mp2c", "MP2C restart file I/O, sequential vs SIONlib");
  report.set_param("scale", scale);
  report.set_param("ntasks", ntasks);
  Table& table = report.table(
      "restart", {"mio_particles", "sion_write_s", "sion_read_s",
                  "seq_write_s", "seq_read_s"});

  std::printf("%12s %14s %14s %16s %16s\n", "Mio part.", "write SION(s)",
              "read SION(s)", "write seq(s)", "read seq(s)");
  const std::vector<double> mio_points = {1, 3.3, 10, 33, 100, 330, 1000};
  for (const double mio : mio_points) {
    if (mio > max_mio) break;
    const auto particles = static_cast<std::uint64_t>(mio * 1.0e6 * scale);
    const Point sion = run_point(IoStrategy::kSion, ntasks, particles);
    const Point seq = run_point(IoStrategy::kSingleFileSeq, ntasks, particles);
    std::printf("%12.1f %14.2f %14.2f %16.2f %16.2f\n", mio, sion.write_s,
                sion.read_s, seq.write_s, seq.read_s);
    table.row({mio, sion.write_s, sion.read_s, seq.write_s, seq.read_s});
  }
  return report.write_if_requested(opts);
}
