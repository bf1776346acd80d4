// Buddy-redundancy cost/benefit on the Jugene machine model: what does
// writing r copies of every checkpoint cost, and what does a restart pay
// when failure domains are actually gone and the heal path reconstructs
// them from the surviving replicas? Sweeps replication degree, aggregation
// group size, domains lost, and degraded-bandwidth severity — the
// operating envelope of ext::Buddy (write overhead is bounded by ~r x, and
// restores stay possible, merely slower, through r-1 domain losses).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "core/metadata.h"
#include "ext/buddy.h"
#include "fs/sim/fault.h"
#include "workloads/checkpoint.h"

namespace {

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

struct Point {
  double write_s;
  double restore_s;
};

// Write one buddy checkpoint at `ntasks` over `domains` failure domains
// with `replicas` total copies, then lose the first `lose` domains (every
// file they own) and optionally brown-out the rest to `degrade` of healthy
// bandwidth, and restore at ntasks/4 tasks through the heal + remap path.
Point run_point(const fs::SimConfig& machine, int ntasks, int domains,
                int replicas, int group_size, std::uint64_t chunk_bytes,
                int lose, double degrade) {
  fs::SimFs fs(machine);
  par::Engine engine(engine_config_for(machine));

  CheckpointSpec spec;
  spec.path = "buddy.ckpt";
  spec.strategy = IoStrategy::kSion;
  ext::BuddyConfig buddy;
  buddy.replicas = replicas;
  buddy.num_domains = domains;
  spec.protection = buddy;
  if (group_size > 0) {
    ext::CollectiveConfig aggregation;
    aggregation.group_size = group_size;
    spec.collective = aggregation;
  }

  Point p{};
  p.write_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    SION_CHECK(write_checkpoint(fs, world, spec,
                                fs::DataView::fill(std::byte{'b'},
                                                   chunk_bytes))
                   .ok());
  });
  fs.drop_caches();  // the restart happens in a later job

  fs::FaultPlan plan;
  for (int d = 0; d < lose; ++d) {
    plan.lose(core::physical_file_name("buddy.ckpt", d, domains));
    for (int k = 1; k < replicas; ++k) {
      plan.lose(core::physical_file_name(
          ext::Buddy::replica_name("buddy.ckpt", k), d, domains));
    }
  }
  if (degrade < 1.0) plan.degrade("buddy.ckpt*", degrade);
  if (!plan.faults.empty()) fs.arm_faults(plan);

  const std::uint64_t total =
      chunk_bytes * static_cast<std::uint64_t>(ntasks);
  const int nreaders = std::max(1, ntasks / 4);
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

// Scaled task count snapped to a multiple of the domain count (buddy
// requires equal failure domains).
int scaled_tasks(int n, double scale, int domains) {
  const int raw = std::max(domains, checked_trunc<int>(n * scale));
  return std::max(domains, raw / domains * domains);
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

  print_header("buddy redundancy: replication cost and failure-domain "
               "recovery",
               "task-local checkpoints survive hardware loss only if the "
               "bytes exist elsewhere; mirroring every domain's chunks to a "
               "buddy domain bounds the write overhead near r x while an "
               "N->M restart stays possible through r-1 domain losses");

  Report report("buddy", "Buddy-redundancy checkpointing (ext::Buddy)");
  report.set_param("scale", scale);

  const int kDomains = 8;
  const std::uint64_t kChunk = 256 * kKiB;

  {
    const int ntasks = scaled_tasks(512, scale, kDomains);
    std::printf("\n--- replication sweep (%s tasks, %d domains, 256 KiB per "
                "task, collective x16) ---\n",
                human_tasks(ntasks).c_str(), kDomains);
    std::printf("%9s %13s %11s %13s\n", "replicas", "write(s)", "overhead",
                "restore(s)");
    Table& table = report.table(
        "replication_sweep",
        {"tasks", "replicas", "write_s", "overhead_x", "restore_s"});
    double base_write = 0.0;
    for (const int r : {1, 2, 3}) {
      const Point p = run_point(machine, ntasks, kDomains, r,
                                /*group_size=*/16, kChunk, /*lose=*/0, 1.0);
      if (r == 1) base_write = p.write_s;
      const double overhead = base_write > 0 ? p.write_s / base_write : 0.0;
      std::printf("%9d %13.3f %10.2fx %13.3f\n", r, p.write_s, overhead,
                  p.restore_s);
      table.row({ntasks, r, p.write_s, overhead, p.restore_s});
    }
  }

  {
    const int ntasks = scaled_tasks(512, scale, kDomains);
    std::printf("\n--- group-size sweep (r=2, one domain lost) ---\n");
    std::printf("%12s %13s %13s\n", "aggregation", "write(s)", "restore(s)");
    Table& table = report.table(
        "group_sweep", {"group_size", "write_s", "restore_s"});
    for (const int group : {0, 8, 32}) {
      const Point p = run_point(machine, ntasks, kDomains, /*replicas=*/2,
                                group, kChunk, /*lose=*/1, 1.0);
      const std::string label =
          group == 0 ? "plain" : strformat("collective x%d", group);
      std::printf("%12s %13.3f %13.3f\n", label.c_str(), p.write_s,
                  p.restore_s);
      table.row({group, p.write_s, p.restore_s});
    }
  }

  {
    const int ntasks = scaled_tasks(512, scale, kDomains);
    std::printf("\n--- failure sweep (r=3, collective x16): domains lost -> "
                "restore cost ---\n");
    std::printf("%12s %13s\n", "domains lost", "restore(s)");
    Table& table = report.table("loss_sweep", {"domains_lost", "restore_s"});
    for (const int lose : {0, 1, 2}) {
      const Point p = run_point(machine, ntasks, kDomains, /*replicas=*/3,
                                /*group_size=*/16, kChunk, lose, 1.0);
      std::printf("%12d %13.3f\n", lose, p.restore_s);
      table.row({lose, p.restore_s});
    }
  }

  {
    const int ntasks = scaled_tasks(512, scale, kDomains);
    std::printf("\n--- degraded-bandwidth sweep (r=2, one domain lost, "
                "surviving copies browned out) ---\n");
    std::printf("%10s %13s\n", "bandwidth", "restore(s)");
    Table& table = report.table(
        "degrade_sweep", {"bandwidth_factor", "restore_s"});
    for (const double factor : {1.0, 0.5, 0.25}) {
      const Point p = run_point(machine, ntasks, kDomains, /*replicas=*/2,
                                /*group_size=*/16, kChunk, /*lose=*/1,
                                factor);
      std::printf("%9.0f%% %13.3f\n", factor * 100.0, p.restore_s);
      table.row({factor, p.restore_s});
    }
  }

  return report.write_if_requested(opts);
}
