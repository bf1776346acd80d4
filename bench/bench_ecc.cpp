// Reed-Solomon parity cost/benefit on the Jugene machine model: the
// storage-overhead x rebuild-time x degraded-read frontier of ext::Ecc.
// Sweeps the (k, m) code geometry, domains lost, restart scale, and the
// restore mode (heal = rebuild on disk first; degraded = decode lost files
// inline during the restart's own reads), then meets ext::Buddy at equal
// loss tolerance: both survive two lost domains, but parity pays ~m/k
// extra bytes where replication pays (r-1)x. The overhead claims are
// SION_CHECK-gated against fs.allocated_bytes(), not printed on trust.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/strings.h"
#include "core/metadata.h"
#include "ext/buddy.h"
#include "ext/ecc.h"
#include "fs/sim/fault.h"
#include "workloads/checkpoint.h"

namespace {

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

struct Point {
  double write_s;
  double restore_s;
  std::uint64_t stored_bytes;  // fs.allocated_bytes() after the write
};

// Write one ECC checkpoint at `ntasks` over k data domains with m parity
// files (m == 0 writes the unprotected baseline), then lose the first
// `lose_data` data domains and `lose_parity` parity files and restore at
// `nreaders` tasks through the probe + heal-or-degraded-decode path.
Point run_ecc_point(const fs::SimConfig& machine, int ntasks, int nreaders,
                    int k, int m, bool heal_mode, int group_size,
                    std::uint64_t chunk_bytes, int lose_data,
                    int lose_parity) {
  fs::SimFs fs(machine);
  par::Engine engine(engine_config_for(machine));

  CheckpointSpec spec;
  spec.path = "ecc.ckpt";
  spec.strategy = IoStrategy::kSion;
  spec.nfiles = k;
  if (m > 0) {
    ext::EccConfig ecc;
    ecc.data_domains = k;
    ecc.parity_domains = m;
    // The stripe is also the zero-skip granule: the primary is sparse
    // (alignment holes between the preallocated chunk regions), and every
    // extent boundary that is not stripe-aligned materialises one extra
    // parity stripe. At smoke scales those boundary stripes are a visible
    // fraction of the payload, so the bench uses a fine stripe — byte
    // reconstruction is identical at any value.
    ecc.stripe_bytes = 16 * kKiB;
    ecc.restore_mode = heal_mode ? ext::EccConfig::Restore::kHeal
                                 : ext::EccConfig::Restore::kDegraded;
    spec.protection = ecc;
  }
  if (group_size > 0) {
    ext::CollectiveConfig aggregation;
    aggregation.group_size = group_size;
    spec.collective = aggregation;
  }

  Point p{};
  p.write_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    SION_CHECK(write_checkpoint(fs, world, spec,
                                fs::DataView::fill(std::byte{'e'},
                                                   chunk_bytes))
                   .ok());
  });
  p.stored_bytes = fs.allocated_bytes();
  fs.drop_caches();  // the restart happens in a later job

  fs::FaultPlan plan;
  for (int d = 0; d < lose_data; ++d) {
    plan.lose(core::physical_file_name("ecc.ckpt", d, k));
  }
  for (int j = 0; j < lose_parity; ++j) {
    plan.lose(ext::Ecc::parity_name("ecc.ckpt", j));
  }
  if (!plan.faults.empty()) fs.arm_faults(plan);

  const std::uint64_t total =
      chunk_bytes * static_cast<std::uint64_t>(ntasks);
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

// The replication counterpart for the equal-loss-tolerance table: r copies
// over `domains` failure domains, the first `lose` domains gone entirely.
Point run_buddy_point(const fs::SimConfig& machine, int ntasks, int nreaders,
                      int domains, int replicas, int group_size,
                      std::uint64_t chunk_bytes, int lose) {
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
  p.stored_bytes = fs.allocated_bytes();
  fs.drop_caches();

  fs::FaultPlan plan;
  for (int d = 0; d < lose; ++d) {
    plan.lose(core::physical_file_name("buddy.ckpt", d, domains));
    for (int r = 1; r < replicas; ++r) {
      plan.lose(core::physical_file_name(
          ext::Buddy::replica_name("buddy.ckpt", r), d, domains));
    }
  }
  if (!plan.faults.empty()) fs.arm_faults(plan);

  const std::uint64_t total =
      chunk_bytes * static_cast<std::uint64_t>(ntasks);
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

// Scaled task count snapped to a multiple of `align` (ECC and buddy both
// need the writers to divide evenly into their domains).
int scaled_tasks(int n, double scale, int align) {
  const int raw = std::max(align, checked_trunc<int>(n * scale));
  return std::max(align, raw / align * align);
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

  print_header("erasure-coded checkpoints: parity cost and degraded-read "
               "recovery",
               "replicating every chunk pays (r-1)x storage for r-1 "
               "tolerated losses; a (k, m) Reed-Solomon code over the "
               "failure domains tolerates any m losses for ~m/k overhead, "
               "and a restart can decode the lost files inline instead of "
               "paying a rebuild pass first");

  Report report("ecc", "Erasure-coded checkpointing (ext::Ecc)");
  report.set_param("scale", scale);

  const std::uint64_t kChunk = 256 * kKiB;
  const int kGroup = 16;
  const int ntasks = scaled_tasks(512, scale, 8);
  const int nreaders = std::max(1, ntasks / 4);

  // Unprotected baseline at each k we sweep: the overhead gate divides by
  // the bytes the same multifile stores with no parity attached.
  std::vector<std::uint64_t> base_stored(9, 0);
  std::vector<double> base_write(9, 0.0);
  for (const int k : {4, 8}) {
    const Point p = run_ecc_point(machine, ntasks, nreaders, k, /*m=*/0,
                                  false, kGroup, kChunk, 0, 0);
    base_stored[static_cast<std::size_t>(k)] = p.stored_bytes;
    base_write[static_cast<std::size_t>(k)] = p.write_s;
  }

  {
    std::printf("\n--- code sweep (%s tasks, 256 KiB per task, collective "
                "x%d): storage overhead is SION_CHECK-gated at m/k + 5%% "
                "---\n",
                human_tasks(ntasks).c_str(), kGroup);
    std::printf("%7s %13s %11s %11s %13s\n", "(k,m)", "write(s)", "overhead",
                "gate", "restore(s)");
    Table& table = report.table(
        "code_sweep",
        {"k", "m", "write_s", "storage_overhead", "overhead_gate",
         "restore_s"});
    for (const auto& [k, m] :
         std::vector<std::pair<int, int>>{{4, 1}, {4, 2}, {8, 2}, {8, 3}}) {
      const Point p = run_ecc_point(machine, ntasks, nreaders, k, m, false,
                                    kGroup, kChunk, 0, 0);
      const auto base =
          static_cast<double>(base_stored[static_cast<std::size_t>(k)]);
      const double overhead = static_cast<double>(p.stored_bytes) / base - 1.0;
      const double gate = static_cast<double>(m) / k + 0.05;
      SION_CHECK(overhead <= gate)
          << "ECC(" << k << "," << m << ") stores " << p.stored_bytes
          << " bytes over a " << base << "-byte baseline: overhead "
          << overhead << " exceeds m/k + 5% = " << gate;
      std::printf("  (%d,%d) %13.3f %10.1f%% %10.1f%% %13.3f\n", k, m,
                  p.write_s, overhead * 100.0, gate * 100.0, p.restore_s);
      table.row({k, m, p.write_s, overhead, gate, p.restore_s});
    }
  }

  {
    std::printf("\n--- rebuild vs degraded (k=4, m=2): what a restart pays "
                "per lost domain ---\n");
    std::printf("%12s %17s %17s\n", "domains lost", "degraded(s)",
                "heal+restore(s)");
    Table& table = report.table(
        "rebuild_vs_degraded",
        {"domains_lost", "degraded_restore_s", "heal_restore_s"});
    for (const int lose : {0, 1, 2}) {
      const Point degraded = run_ecc_point(machine, ntasks, nreaders, 4, 2,
                                           /*heal_mode=*/false, kGroup,
                                           kChunk, lose, 0);
      const Point heal = run_ecc_point(machine, ntasks, nreaders, 4, 2,
                                       /*heal_mode=*/true, kGroup, kChunk,
                                       lose, 0);
      std::printf("%12d %17.3f %17.3f\n", lose, degraded.restore_s,
                  heal.restore_s);
      table.row({lose, degraded.restore_s, heal.restore_s});
    }
  }

  {
    std::printf("\n--- degraded-read scale (k=4, m=2, one domain lost): "
                "restart width vs decode cost ---\n");
    std::printf("%9s %13s\n", "readers", "restore(s)");
    Table& table = report.table("degraded_scale", {"readers", "restore_s"});
    for (const int readers :
         {std::max(1, ntasks / 4), ntasks, 2 * ntasks}) {
      const Point p = run_ecc_point(machine, ntasks, readers, 4, 2,
                                    /*heal_mode=*/false, kGroup, kChunk,
                                    /*lose_data=*/1, 0);
      std::printf("%9s %13.3f\n", human_tasks(readers).c_str(), p.restore_s);
      table.row({readers, p.restore_s});
    }
  }

  {
    // Equal loss tolerance: ECC(4, 2) and Buddy r=3 both survive any two
    // lost failure domains. Parity must get there strictly cheaper in
    // stored bytes than replication's (r-1)x — that inequality is the
    // reason ext::Ecc exists, so it is a gate, not a printout.
    std::printf("\n--- equal loss tolerance (2 lost domains survived): "
                "parity vs replication ---\n");
    std::printf("%12s %13s %11s %13s\n", "scheme", "write(s)", "overhead",
                "restore(s)");
    Table& table = report.table(
        "vs_buddy",
        {"scheme", "tolerated_losses", "write_s", "storage_overhead",
         "restore_s"});
    const Point ecc = run_ecc_point(machine, ntasks, nreaders, 4, 2,
                                    /*heal_mode=*/false, kGroup, kChunk,
                                    /*lose_data=*/2, 0);
    const Point buddy = run_buddy_point(machine, ntasks, nreaders,
                                        /*domains=*/4, /*replicas=*/3,
                                        kGroup, kChunk, /*lose=*/2);
    const auto base =
        static_cast<double>(base_stored[static_cast<std::size_t>(4)]);
    const double ecc_overhead =
        static_cast<double>(ecc.stored_bytes) / base - 1.0;
    const double buddy_overhead =
        static_cast<double>(buddy.stored_bytes) / base - 1.0;
    SION_CHECK(ecc_overhead <= buddy_overhead)
        << "ECC(4,2) overhead " << ecc_overhead
        << " is not below replication r=3 overhead " << buddy_overhead
        << " at equal loss tolerance";
    std::printf("%12s %13.3f %10.1f%% %13.3f\n", "ecc(4,2)", ecc.write_s,
                ecc_overhead * 100.0, ecc.restore_s);
    std::printf("%12s %13.3f %10.1f%% %13.3f\n", "buddy r=3", buddy.write_s,
                buddy_overhead * 100.0, buddy.restore_s);
    table.row({"ecc(4,2)", 2, ecc.write_s, ecc_overhead, ecc.restore_s});
    table.row({"buddy r=3", 2, buddy.write_s, buddy_overhead,
               buddy.restore_s});
  }

  return report.write_if_requested(opts);
}
