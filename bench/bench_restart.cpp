// N->M restart cost (ext::Remap) on the Jugene machine model: a checkpoint
// written by N tasks is restored onto M tasks, so redistribution — disk
// reads by the stream readers plus the alltoall-shaped reshuffle over the
// network — becomes a measurable axis next to the plain same-scale restore.
// The paper's global-view metadata (sections 3.2.3/3.3) is what makes the
// N logical streams addressable from any M; this benchmark prices it.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "workloads/checkpoint.h"

namespace {

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

struct Point {
  double write_s;
  double restore_s;
};

// Write one checkpoint at `nwriters` (optionally through collective
// aggregation), then restore it at `nreaders` through the remap path.
// Every reader asks for its even share of the concatenated payload.
Point run_point(const fs::SimConfig& machine, int nwriters, int nreaders,
                std::uint64_t chunk_bytes, bool collective) {
  fs::SimFs fs(machine);
  par::Engine engine(engine_config_for(machine));

  CheckpointSpec spec;
  spec.path = "remap.ckpt";
  spec.strategy = IoStrategy::kSion;
  if (collective) {
    ext::CollectiveConfig aggregation;
    aggregation.group_size = 16;
    spec.collective = aggregation;
  }

  Point p{};
  p.write_s = timed_run(engine, nwriters, [&](par::Comm& world) {
    SION_CHECK(write_checkpoint(
                   fs, world, spec,
                   fs::DataView::fill(std::byte{'r'}, chunk_bytes))
                   .ok());
  });
  fs.drop_caches();  // restart happens in a later job

  const std::uint64_t total =
      chunk_bytes * static_cast<std::uint64_t>(nwriters);
  CheckpointSpec restart = spec;
  restart.restart_ntasks = nreaders;
  p.restore_s = timed_run(engine, nreaders, [&](par::Comm& world) {
    const std::uint64_t share =
        total * static_cast<std::uint64_t>(world.rank() + 1) /
            static_cast<std::uint64_t>(nreaders) -
        total * static_cast<std::uint64_t>(world.rank()) /
            static_cast<std::uint64_t>(nreaders);
    SION_CHECK(read_checkpoint(fs, world, restart, share, {}).ok());
  });
  return p;
}

int scaled(int n, double scale) {
  return std::max(1, checked_trunc<int>(n * scale));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"scale", "json"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const double scale = opts.get_double("scale", 1.0);
  const fs::SimConfig machine = scaled_machine(fs::JugeneConfig(), scale);

  print_header("N->M restart: redistribution cost of restarting at a "
               "different scale",
               "the multifile's global-view metadata makes every rank's "
               "stream addressable, so a checkpoint written at N restores "
               "at any M; the price is reading N streams with M tasks and "
               "reshuffling byte ranges over the network");

  Report report("restart", "N->M checkpoint restart via ext::Remap");
  report.set_param("scale", scale);

  {
    const int nwriters = scaled(1024, scale);
    const std::uint64_t chunk = 256 * kKiB;
    std::printf("\n--- restart-scale sweep (written at %s tasks, 256 KiB "
                "per task) ---\n",
                human_tasks(nwriters).c_str());
    std::printf("%10s %10s %13s %13s %13s\n", "written-at", "restart-at",
                "write(s)", "restore(s)", "restore MB/s");
    Table& table = report.table(
        "m_sweep", {"writers", "readers", "chunk_bytes", "write_s",
                    "restore_s", "restore_mbps"});
    for (const int raw_m : {1, 64, 256, 1024, 4096}) {
      const int nreaders = scaled(raw_m, raw_m == 1 ? 1.0 : scale);
      const Point p = run_point(machine, nwriters, nreaders, chunk, false);
      const double bw = mbps(
          chunk * static_cast<std::uint64_t>(nwriters), p.restore_s);
      std::printf("%10s %10s %13.3f %13.3f %13.1f\n",
                  human_tasks(nwriters).c_str(),
                  human_tasks(nreaders).c_str(), p.write_s, p.restore_s, bw);
      table.row({nwriters, nreaders, chunk, p.write_s, p.restore_s, bw});
    }
  }

  {
    const int nwriters = scaled(1024, scale);
    const int nreaders = scaled(256, scale);
    std::printf("\n--- chunk-size sweep (%s -> %s tasks) ---\n",
                human_tasks(nwriters).c_str(), human_tasks(nreaders).c_str());
    std::printf("%10s %13s %13s %13s\n", "chunk", "write(s)", "restore(s)",
                "restore MB/s");
    Table& table = report.table(
        "chunk_sweep",
        {"chunk_bytes", "write_s", "restore_s", "restore_mbps"});
    for (const std::uint64_t chunk :
         {16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB, 4 * kMiB}) {
      const Point p = run_point(machine, nwriters, nreaders, chunk, false);
      const double bw = mbps(
          chunk * static_cast<std::uint64_t>(nwriters), p.restore_s);
      std::printf("%10s %13.3f %13.3f %13.1f\n", format_bytes(chunk).c_str(),
                  p.write_s, p.restore_s, bw);
      table.row({chunk, p.write_s, p.restore_s, bw});
    }
  }

  {
    // Remap must not care how the file was written: the same N->M restore
    // over a plain multifile and a collectively written, packed one.
    const int nwriters = scaled(1024, scale);
    const int nreaders = scaled(96, scale);
    const std::uint64_t chunk = 64 * kKiB;
    std::printf("\n--- writer-mode sweep (%s -> %s tasks, 64 KiB per task) "
                "---\n",
                human_tasks(nwriters).c_str(), human_tasks(nreaders).c_str());
    std::printf("%12s %13s %13s\n", "writer", "write(s)", "restore(s)");
    Table& table = report.table(
        "writer_sweep", {"writer", "write_s", "restore_s"});
    for (const bool collective : {false, true}) {
      const Point p = run_point(machine, nwriters, nreaders, chunk,
                                collective);
      const char* label = collective ? "coll/packed" : "plain";
      std::printf("%12s %13.3f %13.3f\n", label, p.write_s, p.restore_s);
      table.row({label, p.write_s, p.restore_s});
    }
  }

  return report.write_if_requested(opts);
}
