// Figure 3: "Performance of creating new and opening existing task-local
// files in parallel in the same directory" on Jugene (a) and Jaguar (b),
// compared with creating one SIONlib multifile.
//
// Paper endpoints: 64 Ki creates ~6 min and 64 Ki opens ~1 min on Jugene;
// 12 Ki creates ~5 min and ~20 s opens on Jaguar; SION create <3 s (Jugene)
// and <10 s (Jaguar).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "core/api.h"

namespace {

using namespace sion;          // NOLINT(google-build-using-namespace)
using namespace sion::bench;   // NOLINT(google-build-using-namespace)

void run_machine(const char* label, Table& table,
                 const fs::SimConfig& machine,
                 const std::vector<int>& task_counts, int sion_nfiles,
                 double scale) {
  std::printf("\n--- %s ---\n", label);
  std::printf("%8s %16s %20s %18s %10s\n", "#tasks", "create files(s)",
              "open existing(s)", "SION create(s)", "wall(s)");
  for (int raw_n : task_counts) {
    const int n = std::max(1, checked_trunc<int>(raw_n * scale));
    const WallTimer wall;
    fs::SimFs fs(machine);
    par::Engine engine(engine_config_for(machine));

    // (1) multiple-file-parallel: every task creates its own file.
    const double t_create = timed_run(engine, n, [&](par::Comm& world) {
      auto f = fs.create(strformat("data.%06d", world.rank()));
      SION_CHECK(f.ok()) << f.status().to_string();
    });

    // (2) fresh job later: open the files that already exist.
    fs.drop_caches();
    const double t_open = timed_run(engine, n, [&](par::Comm& world) {
      auto f = fs.open_rw(strformat("data.%06d", world.rank()));
      SION_CHECK(f.ok()) << f.status().to_string();
    });

    // (3) SIONlib: one collective create of a multifile.
    const double t_sion = timed_run(engine, n, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = "multi.sion";
      spec.chunksize = 64 * kKiB;
      spec.nfiles = sion_nfiles;
      auto sion = core::SionParFile::open_write(fs, world, spec);
      SION_CHECK(sion.ok()) << sion.status().to_string();
      SION_CHECK(sion.value()->close().ok());
    });

    const double wall_s = wall.seconds();
    std::printf("%8s %16.1f %20.1f %18.2f %10.3f\n", human_tasks(raw_n).c_str(),
                t_create / scale, t_open / scale, t_sion / scale, wall_s);
    table.row({raw_n, t_create / scale, t_open / scale, t_sion / scale,
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
  // --scale=0.25 runs a quarter of each task count and extrapolates
  // linearly (the metadata model is linear in task count); 1.0 reproduces
  // the full configurations.
  const double scale = opts.get_double("scale", 1.0);

  print_header("Figure 3: parallel creation/open of task-local files",
               "64Ki creates >5 min on Jugene, 12Ki creates ~5 min on "
               "Jaguar; opens ~8x/15x cheaper; SION create takes seconds");

  Report report("fig3_create",
                "Parallel creation/open of task-local files vs SION");
  report.set_param("scale", scale);
  const std::vector<std::string> columns = {"tasks", "create_files_s",
                                            "open_existing_s", "sion_create_s",
                                            "wall_s"};
  run_machine("Figure 3(a) Jugene (GPFS)", report.table("jugene", columns),
              fs::JugeneConfig(), {4096, 8192, 16384, 32768, 65536},
              /*sion_nfiles=*/1, scale);
  run_machine("Figure 3(b) Jaguar (Lustre)", report.table("jaguar", columns),
              fs::JaguarConfig(), {256, 1024, 2048, 4096, 8192, 12288},
              /*sion_nfiles=*/1, scale);
  return report.write_if_requested(opts);
}
