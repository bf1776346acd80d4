// Collective write aggregation (ext::Collective) vs the direct per-task
// path, on the Jugene machine model. The paper's section-6 roadmap names
// coalescing/collective I/O as the next step beyond per-task chunks: GPFS
// moves at least one 2 MiB file-system block per writing task, so small
// per-task checkpoints pay an enormous write amplification that collector
// ranks with packed chunks avoid. Aggregation must *win* for small chunks
// and *lose* once per-member payloads saturate the collector's own
// injection link — both ends of the tradeoff are swept here.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "workloads/checkpoint.h"

namespace {

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

// The machine model: Jugene plus the client-token open refinement, so the
// reduced metadata/open pressure of collector-only opens is visible.
fs::SimConfig machine_config(double scale) {
  fs::SimConfig machine = scaled_machine(fs::JugeneConfig(), scale);
  machine.client_open_service = 0.03e-3;  // first token fetch per client
  return machine;
}

struct Point {
  double write_s;
  double read_s;
};

// The core loop: one checkpoint written and restored by every task, either
// directly (each task writes its own chunk) or aggregated through
// collectors. tests/sim_timing_test.cpp asserts this loop is run-to-run
// deterministic in virtual time.
Point run_point(const fs::SimConfig& machine, int ntasks,
                std::uint64_t chunk_bytes, bool collective, int group_size) {
  fs::SimFs fs(machine);
  par::Engine engine(engine_config_for(machine));

  CheckpointSpec spec;
  spec.path = "coll.ckpt";
  spec.strategy = IoStrategy::kSion;
  if (collective) {
    ext::CollectiveConfig aggregation;
    aggregation.group_size = group_size;
    aggregation.packing_granule = 4 * kKiB;
    spec.collective = aggregation;
  }

  Point p{};
  p.write_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    SION_CHECK(write_checkpoint(
                   fs, world, spec,
                   fs::DataView::fill(std::byte{'c'}, chunk_bytes))
                   .ok());
  });
  fs.drop_caches();  // restart happens in a later job
  p.read_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    SION_CHECK(read_checkpoint(fs, world, spec, chunk_bytes, {}).ok());
  });
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"scale", "json"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const double scale = opts.get_double("scale", 1.0);
  const fs::SimConfig machine = machine_config(scale);

  print_header("Collective aggregation: checkpoint makespan vs direct I/O",
               "collectors with packed chunks beat per-task writes for "
               "small chunk sizes (GPFS full-block amplification), and "
               "lose once the collector's injection link saturates");

  Report report("collective", "Write aggregation vs direct per-task I/O");
  report.set_param("scale", scale);

  {
    const int ntasks = std::max(8, checked_trunc<int>(1024 * scale));
    const int group = 16;
    std::printf("\n--- chunk-size sweep (%s tasks, groups of %d) ---\n",
                human_tasks(ntasks).c_str(), group);
    std::printf("%10s %13s %13s %13s %13s %9s\n", "chunk", "direct wr(s)",
                "direct rd(s)", "coll wr(s)", "coll rd(s)", "speedup");
    Table& table = report.table(
        "chunk_sweep", {"chunk_bytes", "direct_write_s", "direct_read_s",
                        "collective_write_s", "collective_read_s",
                        "write_speedup"});
    for (const std::uint64_t chunk :
         {4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB, 4 * kMiB}) {
      const Point direct = run_point(machine, ntasks, chunk, false, group);
      const Point coll = run_point(machine, ntasks, chunk, true, group);
      const double speedup = direct.write_s / coll.write_s;
      std::printf("%10s %13.3f %13.3f %13.3f %13.3f %8.2fx\n",
                  format_bytes(chunk).c_str(), direct.write_s, direct.read_s,
                  coll.write_s, coll.read_s, speedup);
      table.row({chunk, direct.write_s, direct.read_s, coll.write_s,
                 coll.read_s, speedup});
    }
  }

  {
    const int ntasks = std::max(8, checked_trunc<int>(1024 * scale));
    const std::uint64_t chunk = 16 * kKiB;
    const Point direct = run_point(machine, ntasks, chunk, false, 1);
    std::printf("\n--- group-size sweep (%s tasks, 16 KiB chunks; direct "
                "write %.3f s) ---\n",
                human_tasks(ntasks).c_str(), direct.write_s);
    std::printf("%10s %13s %13s %9s\n", "group", "coll wr(s)", "coll rd(s)",
                "speedup");
    Table& table = report.table(
        "group_sweep", {"group_size", "collective_write_s",
                        "collective_read_s", "write_speedup"});
    for (const int group : {2, 4, 8, 16, 32, 64}) {
      if (group > ntasks) break;
      const Point coll = run_point(machine, ntasks, chunk, true, group);
      const double speedup = direct.write_s / coll.write_s;
      std::printf("%10d %13.3f %13.3f %8.2fx\n", group, coll.write_s,
                  coll.read_s, speedup);
      table.row({group, coll.write_s, coll.read_s, speedup});
    }
  }

  {
    const std::uint64_t chunk = 16 * kKiB;
    const int group = 16;
    std::printf("\n--- task-count sweep (16 KiB chunks, groups of %d) ---\n",
                group);
    std::printf("%10s %13s %13s %9s\n", "#tasks", "direct wr(s)",
                "coll wr(s)", "speedup");
    Table& table = report.table(
        "task_sweep",
        {"tasks", "direct_write_s", "collective_write_s", "write_speedup"});
    for (const int raw_n : {256, 512, 1024, 2048}) {
      const int n = std::max(8, checked_trunc<int>(raw_n * scale));
      const Point direct = run_point(machine, n, chunk, false, group);
      const Point coll = run_point(machine, n, chunk, true, group);
      const double speedup = direct.write_s / coll.write_s;
      std::printf("%10s %13.3f %13.3f %8.2fx\n", human_tasks(n).c_str(),
                  direct.write_s, coll.write_s, speedup);
      // Record the task count actually run, so a reduced --scale trajectory
      // never pairs full-scale labels with scaled timings.
      table.row({n, direct.write_s, coll.write_s, speedup});
    }
  }

  return report.write_if_requested(opts);
}
