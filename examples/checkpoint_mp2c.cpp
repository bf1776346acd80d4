// MP2C-style checkpoint/restart (paper section 5.1): a particle simulation
// writes restart files (52 bytes per particle) and reads them back, under
// any of the three I/O strategies:
//
//   $ ./checkpoint_mp2c --strategy=sion --particles=1m --ntasks=64
//   $ ./checkpoint_mp2c --strategy=seq ...      (the original MP2C scheme)
//   $ ./checkpoint_mp2c --strategy=tasklocal ...
//   $ ./checkpoint_mp2c --strategy=sion --collective --group-size=16
//   $ ./checkpoint_mp2c --strategy=sion --ntasks=64 --restart-ntasks=24
//   $ ./checkpoint_mp2c --strategy=sion --buddy --replicas=2 --domains=4
//         ... --kill-domains=1 --restart-ntasks=24   (one command line)
//
// --collective aggregates the SION strategy through ext::Collective: groups
// of --group-size ranks funnel their particles through one collector rank,
// which issues large packed writes (paper section 6, coalescing I/O).
//
// --restart-ntasks restores the checkpoint onto a *different* task count
// through ext::Remap (the resubmitted-at-another-scale scenario): each of
// the M restart tasks receives its contiguous particle range of the global
// array, redistributed from the N writer streams via the multifile's
// global-view metadata.
//
// --buddy replicates the checkpoint over --domains failure domains with
// --replicas total copies (ext::Buddy); --kill-domains=<n> then deletes
// every file the first n domains own before the restart, which must heal
// the loss from the surviving replicas and still verify bit for bit.
//
// --staging adds a node-local burst-buffer tier (--tasks-per-node,
// --drain-bw) and routes the SION checkpoint through it: the write lands on
// the fast tier and drains to the parallel file system in the background
// (ext::Staging behind workloads::CheckpointSession).
//
// Runs on the simulated Jugene file system, prints the virtual I/O times,
// and verifies the restored particles bit for bit.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/options.h"
#include "common/units.h"
#include "core/metadata.h"
#include "ext/buddy.h"
#include "fs/sim/fault.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "workloads/checkpoint.h"
#include "workloads/mp2c.h"

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

namespace {

// First particle of `rank`'s domain under mp2c's decomposition (total/ntasks
// each, remainder spread over low ranks).
std::uint64_t particle_offset(std::uint64_t total, int ntasks, int rank) {
  const std::uint64_t base = total / static_cast<std::uint64_t>(ntasks);
  const std::uint64_t rem = total % static_cast<std::uint64_t>(ntasks);
  return base * static_cast<std::uint64_t>(rank) +
         std::min<std::uint64_t>(static_cast<std::uint64_t>(rank), rem);
}

// The bytes restart task `rank` (of `nreaders`) must receive: its particle
// range of the global array, re-serialized from the overlapping *writer*
// domains — the ground truth a different-scale restart is checked against.
std::vector<std::byte> expected_slice(std::uint64_t particles, int nwriters,
                                      int nreaders, int rank) {
  const std::uint64_t lo = particle_offset(particles, nreaders, rank);
  const std::uint64_t hi = particle_offset(particles, nreaders, rank + 1);
  std::vector<std::byte> out;
  out.reserve((hi - lo) * kParticleBytes);
  for (int w = 0; w < nwriters; ++w) {
    const std::uint64_t wlo = particle_offset(particles, nwriters, w);
    const std::uint64_t whi = particle_offset(particles, nwriters, w + 1);
    if (whi <= lo || wlo >= hi) continue;
    const auto theirs = mp2c_generate(particles, nwriters, w, /*seed=*/2026);
    const auto bytes = mp2c_serialize(theirs);
    const std::uint64_t from = std::max(lo, wlo) - wlo;
    const std::uint64_t to = std::min(hi, whi) - wlo;
    out.insert(out.end(),
               bytes.begin() + static_cast<std::ptrdiff_t>(from *
                                                           kParticleBytes),
               bytes.begin() + static_cast<std::ptrdiff_t>(to *
                                                           kParticleBytes));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"ntasks", "restart-ntasks", "particles", "strategy", "collective", "group-size", "buddy", "replicas", "domains", "staging", "kill-domains", "tasks-per-node", "drain-bw"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const int ntasks = static_cast<int>(opts.get_u64("ntasks", 64));
  const int restart_ntasks =
      static_cast<int>(opts.get_u64("restart-ntasks", 0));
  const std::uint64_t particles = opts.get_u64("particles", 1000000);
  const std::string strategy_name = opts.get_string("strategy", "sion");

  CheckpointSpec spec;
  spec.path = "restart.ckpt";
  if (strategy_name == "sion") {
    spec.strategy = IoStrategy::kSion;
  } else if (strategy_name == "seq") {
    spec.strategy = IoStrategy::kSingleFileSeq;
  } else if (strategy_name == "tasklocal") {
    spec.strategy = IoStrategy::kTaskLocal;
  } else {
    std::fprintf(stderr, "unknown --strategy (sion|seq|tasklocal)\n");
    return 2;
  }
  const bool use_collective = opts.get_bool("collective");
  if (use_collective) {
    ext::CollectiveConfig aggregation;
    aggregation.group_size = static_cast<int>(opts.get_u64("group-size", 16));
    spec.collective = aggregation;
  }
  const bool use_buddy = opts.get_bool("buddy");
  const int replicas = static_cast<int>(opts.get_u64("replicas", 2));
  const int domains = static_cast<int>(opts.get_u64("domains", 4));
  if (use_buddy) {
    ext::BuddyConfig buddy;
    buddy.replicas = replicas;
    buddy.num_domains = domains;
    spec.protection = buddy;
  }
  const bool use_staging = opts.get_bool("staging");
  const int kill_domains = static_cast<int>(opts.get_u64("kill-domains", 0));
  if (restart_ntasks != 0 && spec.strategy != IoStrategy::kSion) {
    std::fprintf(stderr,
                 "--restart-ntasks needs --strategy=sion (only the multifile "
                 "keeps every rank's stream addressable)\n");
    return 2;
  }
  if ((use_buddy || kill_domains > 0) &&
      spec.strategy != IoStrategy::kSion) {
    std::fprintf(stderr, "--buddy needs --strategy=sion\n");
    return 2;
  }
  if (kill_domains > 0 && !use_buddy) {
    std::fprintf(stderr,
                 "--kill-domains without --buddy would lose data for good\n");
    return 2;
  }
  if (kill_domains > 0 && kill_domains >= replicas) {
    std::fprintf(stderr,
                 "--kill-domains=%d exceeds the survivable budget of "
                 "replicas-1 = %d lost domains\n",
                 kill_domains, replicas - 1);
    return 2;
  }
  if (use_staging && spec.strategy != IoStrategy::kSion) {
    std::fprintf(stderr, "--staging needs --strategy=sion\n");
    return 2;
  }

  fs::SimConfig machine = fs::JugeneConfig();
  if (use_staging) {
    machine.burst_buffer.tasks_per_node =
        static_cast<int>(opts.get_u64("tasks-per-node", 4));
    machine.burst_buffer.node_bandwidth = 4.0e9;
    machine.burst_buffer.drain_bandwidth = opts.get_double("drain-bw", 1.0e9);
  }
  fs::SimFs fs(machine);
  std::unique_ptr<fs::SimFs> burst_buffer;
  if (use_staging) {
    burst_buffer = std::make_unique<fs::SimFs>(
        fs::BurstBufferTierConfig(machine, ntasks));
    ext::StagingConfig staging;
    staging.fast_tier = burst_buffer.get();
    staging.machine = machine;
    spec.staging = staging;
  }
  par::EngineConfig config;
  config.network = fs.config().network;
  par::Engine engine(config);
  bool all_ok = true;

  const double t0 = engine.epoch();
  engine.run(ntasks, [&](par::Comm& world) {
    const auto mine = mp2c_generate(particles, world.size(), world.rank(),
                                    /*seed=*/2026);
    const auto payload = mp2c_serialize(mine);
    if (!write_checkpoint(fs, world, spec, fs::DataView(payload)).ok()) {
      all_ok = false;
    }
  });
  const double t_write = engine.epoch() - t0;

  fs.drop_caches();  // restart in a later job

  // The failure scenario: the first --kill-domains domains lose every file
  // they own (their primary file and their replica-set files); the restart
  // below must heal through ext::Buddy before restoring.
  if (kill_domains > 0) {
    fs::FaultPlan plan;
    for (int d = 0; d < kill_domains; ++d) {
      plan.lose(core::physical_file_name(spec.path, d, domains));
      for (int k = 1; k < replicas; ++k) {
        plan.lose(core::physical_file_name(
            ext::Buddy::replica_name(spec.path, k), d, domains));
      }
    }
    fs.arm_faults(plan);
    std::printf("killed %d of %d failure domains (%llu files lost)\n",
                kill_domains, domains,
                static_cast<unsigned long long>(
                    fs.fault_counters().files_lost));
  }

  // N->M restart: the resubmitted job runs at a different scale and each
  // task pulls its particle range out of the N writer streams. With no
  // --restart-ntasks the classic same-count read path restores each writer's
  // own stream.
  const int nreaders = restart_ntasks != 0 ? restart_ntasks : ntasks;
  CheckpointSpec read_spec = spec;
  read_spec.restart_ntasks = restart_ntasks;
  const double t1 = engine.epoch();
  engine.run(nreaders, [&](par::Comm& world) {
    const auto expect =
        restart_ntasks != 0
            ? expected_slice(particles, ntasks, nreaders, world.rank())
            : mp2c_serialize(mp2c_generate(particles, world.size(),
                                           world.rank(), /*seed=*/2026));
    std::vector<std::byte> back(expect.size());
    if (!read_checkpoint(fs, world, read_spec, expect.size(), back).ok() ||
        back != expect) {
      all_ok = false;
      return;
    }
    auto restored = mp2c_deserialize(back);
    if (!restored.ok() ||
        restored.value().size() != expect.size() / kParticleBytes) {
      all_ok = false;
    }
  });
  const double t_read = engine.epoch() - t1;

  std::printf("MP2C checkpoint: %llu particles (%s) over %d tasks via %s%s\n",
              static_cast<unsigned long long>(particles),
              format_bytes(particles * kParticleBytes).c_str(), ntasks,
              strategy_name.c_str(),
              use_collective ? " (collective aggregation)" : "");
  if (use_buddy) {
    std::printf("  buddy redundancy: %d copies over %d failure domains\n",
                replicas, domains);
  }
  if (use_staging) {
    std::printf("  staged through a node-local burst buffer "
                "(write includes the drain)\n");
  }
  if (restart_ntasks != 0) {
    std::printf("  write: %s   N->M restart onto %d tasks: %s   "
                "restart verified: %s\n",
                format_seconds(t_write).c_str(), nreaders,
                format_seconds(t_read).c_str(), all_ok ? "OK" : "FAILED");
  } else {
    std::printf("  write: %s   read: %s   restart verified: %s\n",
                format_seconds(t_write).c_str(),
                format_seconds(t_read).c_str(), all_ok ? "OK" : "FAILED");
  }
  return all_ok ? 0 : 1;
}
