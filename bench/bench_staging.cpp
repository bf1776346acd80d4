// Asynchronous burst-buffer staging under failures: is checkpointing through
// a node-local fast tier actually worth it, and at what checkpoint interval?
//
// Method. The discrete-event machine model measures the three costs that
// matter per configuration: the time write_async steals from compute (the
// fast-tier absorb, or the full parallel-tier write when synchronous), the
// snapshot-to-durable drain latency, and the price of a real recovery — a
// seeded FaultPlan loses the in-flight staged files mid-drain and the
// restart restores the last durable checkpoint through the session
// manifest. A long workload (hours of virtual compute) is then composed
// from those measured costs under a seeded exponential failure process:
// checkpoints every `interval`, double-buffer stalls and drain-link
// serialisation modelled, every failure rolling back to the newest durable
// snapshot and paying the measured restore. Swept against the Young/Daly
// optimum interval T_opt = sqrt(2 * delta * MTBF), across drain-link
// bandwidths, and with buddy protection fanned out by the drain.
//
// The acceptance claim of the staging subsystem is checked hard at the end:
// at its Young/Daly-optimal interval the staged run must beat the
// synchronous baseline's effective utilization — otherwise the background
// drain is not actually buying compute/drain overlap.
#include <cstdio>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ext/buddy.h"
#include "ext/staging.h"
#include "fs/sim/fault.h"
#include "workloads/checkpoint.h"
#include "workloads/checkpoint_session.h"

namespace {

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

constexpr int kDomains = 8;  // buddy failure domains (ntasks % 8 == 0)

struct Scenario {
  bool staged = false;
  bool buddy = false;
  double drain_bandwidth = 1.0e9;  // bytes/s per burst-buffer node
};

// The per-checkpoint costs the machine model measures for one scenario.
struct Costs {
  double block_s = 0.0;    // time write_async steals from the application
  double drain_s = 0.0;    // snapshot -> durable on the parallel tier
  double restore_s = 0.0;  // recovery after losing the in-flight checkpoint
};

fs::SimConfig staged_machine(double scale, double drain_bandwidth) {
  fs::SimConfig machine = scaled_machine(fs::JugeneConfig(), scale);
  machine.burst_buffer.tasks_per_node = 4;
  machine.burst_buffer.node_bandwidth = 8.0e9;
  machine.burst_buffer.drain_bandwidth = drain_bandwidth;
  return machine;
}

CheckpointSpec scenario_spec(const Scenario& s, const fs::SimConfig& machine,
                             fs::FileSystem* fast_tier) {
  CheckpointSpec spec;
  spec.path = "stage.ckpt";
  spec.strategy = IoStrategy::kSion;
  if (s.buddy) {
    ext::BuddyConfig buddy;
    buddy.replicas = 2;
    buddy.num_domains = kDomains;
    spec.protection = buddy;
  }
  if (s.staged) {
    ext::StagingConfig staging;
    staging.fast_tier = fast_tier;
    staging.machine = machine;
    spec.staging = staging;
  }
  return spec;
}

// Measure block/drain on a short checkpoint loop, then the restore price on
// a second file system where a seeded FaultPlan kills the in-flight staged
// files mid-drain (for the synchronous scenario the "recovery" is a plain
// restart read of the last checkpoint).
Costs measure_costs(const Scenario& s, int ntasks, std::uint64_t bytes,
                    double scale) {
  const fs::SimConfig machine = staged_machine(scale, s.drain_bandwidth);
  Costs costs;
  {
    fs::SimFs pfs(machine);
    std::unique_ptr<fs::SimFs> bb;
    if (s.staged) {
      bb = std::make_unique<fs::SimFs>(
          fs::BurstBufferTierConfig(machine, ntasks));
    }
    const CheckpointSpec spec = scenario_spec(s, machine, bb.get());
    par::Engine engine(engine_config_for(machine));
    engine.run(ntasks, [&](par::Comm& world) {
      auto session = CheckpointSession::open(pfs, world, spec);
      SION_CHECK(session.ok()) << session.status().to_string();
      double block_sum = 0.0;
      for (std::uint64_t k = 0; k < 2; ++k) {
        const double t0 = par::this_task()->now();
        SION_CHECK(session.value()
                       ->write_async(fs::DataView::fill(std::byte{'s'}, bytes))
                       .ok());
        block_sum += par::this_task()->now() - t0;
        // Long enough that the k=1 absorb never stalls on the k=0 drain:
        // the measured block is the pure cost write_async charges compute.
        par::this_task()->compute(2.0);
      }
      SION_CHECK(session.value()->close().ok());
      if (world.rank() == 0) {
        const auto& records = session.value()->history();
        costs.block_s = block_sum / 2.0;
        double drain_sum = 0.0;
        for (const auto& rec : records) {
          drain_sum += rec.complete_vtime - rec.snapshot_vtime;
        }
        costs.drain_s = drain_sum / static_cast<double>(records.size());
      }
    });
  }
  {
    fs::SimFs pfs(machine);
    std::unique_ptr<fs::SimFs> bb;
    if (s.staged) {
      bb = std::make_unique<fs::SimFs>(
          fs::BurstBufferTierConfig(machine, ntasks));
    }
    const CheckpointSpec spec = scenario_spec(s, machine, bb.get());
    par::Engine engine(engine_config_for(machine));
    engine.run(ntasks, [&](par::Comm& world) {
      auto session = CheckpointSession::open(pfs, world, spec);
      SION_CHECK(session.ok()) << session.status().to_string();
      const auto payload = fs::DataView::fill(std::byte{'s'}, bytes);
      auto first = session.value()->write_async(payload);
      SION_CHECK(first.ok());
      SION_CHECK(session.value()->wait(first.value()).ok());
      if (s.staged) {
        // The failure scenario: checkpoint 1 is absorbed but still
        // draining when its staged slot files vanish from the fast tier.
        SION_CHECK(session.value()->write_async(payload).ok());
        if (world.rank() == 0) {
          fs::FaultPlan plan;
          plan.seed = 0xBB;
          plan.lose("bb/*.slot1*");
          bb->arm_faults(plan);
        }
        world.barrier();
        SION_CHECK(!session.value()->drain().ok());
      }
      SION_CHECK(session.value()->close().ok());
    });
    pfs.drop_caches();  // the restart is a later job with cold clients
    costs.restore_s = timed_run(engine, ntasks, [&](par::Comm& world) {
      auto restored =
          CheckpointSession::restore_latest(pfs, world, spec, bytes, {});
      SION_CHECK(restored.ok()) << restored.status().to_string();
      SION_CHECK(restored.value() == 0);
    });
  }
  return costs;
}

// Long-workload composition under a seeded exponential failure process.
// Work accrues only while computing; every checkpoint steals `block_s`
// (plus a stall when both staging buffers are still in flight), drains
// serially on the background link, and becomes durable `drain_s` after its
// snapshot; a failure rolls back to the newest durable snapshot and pays
// `restore_s`. Failures arriving after the last work segment are out of
// scope (the job is done; only the final drain remains).
struct LongRun {
  double makespan_s = 0.0;
  double utilization = 0.0;
  int checkpoints = 0;
  int failures = 0;
  double work_lost_s = 0.0;
};

LongRun simulate_long_run(double work_s, double interval_s, const Costs& c,
                          double mtbf_s, std::uint64_t seed) {
  Rng rng(seed);
  auto draw_gap = [&] { return -mtbf_s * std::log(1.0 - rng.next_double()); };
  const double drain_tail = std::max(0.0, c.drain_s - c.block_s);

  LongRun out;
  double t = 0.0;
  double done = 0.0;          // work completed since the last rollback
  double durable_work = 0.0;  // work captured by the newest durable ckpt
  double drain_busy = 0.0;    // background drain link busy-until
  double last_drain_end = 0.0;
  double next_fail = draw_gap();
  std::deque<std::pair<double, double>> inflight;  // (work, durable_at)
  auto retire = [&](double now_t) {
    while (!inflight.empty() && inflight.front().second <= now_t) {
      durable_work = inflight.front().first;
      inflight.pop_front();
    }
  };

  while (done < work_s) {
    const double seg = std::min(interval_s, work_s - done);
    const double snapshot_t = t + seg;
    retire(snapshot_t);
    // Double buffering: with two checkpoints still in flight the absorb
    // stalls until the older one is durable (its slot is being reused).
    const double stall =
        inflight.size() >= 2 ? std::max(0.0, inflight.front().second -
                                                 snapshot_t)
                             : 0.0;
    const double block_end = snapshot_t + stall + c.block_s;
    if (next_fail < block_end) {
      const double work_at_fail =
          done + std::min(seg, std::max(0.0, next_fail - t));
      retire(next_fail);
      out.work_lost_s += work_at_fail - durable_work;
      ++out.failures;
      done = durable_work;
      t = next_fail + c.restore_s;
      inflight.clear();
      drain_busy = t;
      next_fail = t + draw_gap();
      continue;
    }
    done += seg;
    const double drain_start = std::max(block_end, drain_busy);
    const double drain_end = drain_start + drain_tail;
    drain_busy = drain_end;
    last_drain_end = drain_end;
    inflight.push_back({done, drain_end});
    ++out.checkpoints;
    t = block_end;
  }
  out.makespan_s = std::max(t, last_drain_end);
  out.utilization = work_s / out.makespan_s;
  return out;
}

double young_daly_interval(const Costs& c, double mtbf_s) {
  return std::sqrt(2.0 * std::max(c.block_s, 1.0e-9) * mtbf_s);
}

int scaled_tasks(int n, double scale) {
  const int raw = std::max(kDomains, checked_trunc<int>(n * scale));
  return std::max(kDomains, raw / kDomains * kDomains);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"scale", "mtbf", "work", "seed", "json"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const double scale = opts.get_double("scale", 1.0);
  const double mtbf_s = opts.get_double("mtbf", 3600.0);
  const double work_s = opts.get_double("work", 6.0 * 3600.0);
  const std::uint64_t seed = opts.get_u64("seed", 0x57A6ED);
  const int ntasks = scaled_tasks(256, scale);
  const std::uint64_t bytes = 4 * kMiB;
  const double base_drain = 1.0e9;

  print_header(
      "burst-buffer staging: checkpoint interval vs Young/Daly under "
      "failures",
      "a node-local fast tier absorbs checkpoints at memory-like speed and "
      "drains in the background; compute/drain overlap shrinks the "
      "effective checkpoint cost delta, which moves the optimal interval "
      "sqrt(2*delta*MTBF) down and the achievable utilization up");

  Report report("staging", "Asynchronous burst-buffer staging (ext::Staging)");
  report.set_param("scale", scale);
  report.set_param("tasks", ntasks);
  report.set_param("bytes_per_task", bytes);
  report.set_param("mtbf_s", mtbf_s);
  report.set_param("work_s", work_s);

  const Scenario sync_scenario{/*staged=*/false, /*buddy=*/false, base_drain};
  const Scenario staged_scenario{/*staged=*/true, /*buddy=*/false, base_drain};
  const Costs sync_costs = measure_costs(sync_scenario, ntasks, bytes, scale);
  const Costs staged_costs =
      measure_costs(staged_scenario, ntasks, bytes, scale);
  const double t_opt_sync = young_daly_interval(sync_costs, mtbf_s);
  const double t_opt_staged = young_daly_interval(staged_costs, mtbf_s);
  report.set_param("young_daly_opt_sync_s", t_opt_sync);
  report.set_param("young_daly_opt_staged_s", t_opt_staged);

  std::printf("\nmeasured per-checkpoint costs (%s tasks, 4 MiB per task):\n",
              human_tasks(ntasks).c_str());
  std::printf("%12s %12s %12s %12s %14s\n", "mode", "block(s)", "drain(s)",
              "restore(s)", "T_opt(s)");
  std::printf("%12s %12.4f %12.4f %12.4f %14.1f\n", "sync",
              sync_costs.block_s, sync_costs.drain_s, sync_costs.restore_s,
              t_opt_sync);
  std::printf("%12s %12.4f %12.4f %12.4f %14.1f\n", "staged",
              staged_costs.block_s, staged_costs.drain_s,
              staged_costs.restore_s, t_opt_staged);

  double util_sync_opt = 0.0;
  double util_staged_opt = 0.0;
  {
    std::printf("\n--- checkpoint-interval sweep (x T_opt per mode, MTBF "
                "%.0f s, %.0f h of work) ---\n",
                mtbf_s, work_s / 3600.0);
    std::printf("%8s %10s %12s %8s %8s %13s %15s\n", "mode", "interval",
                "interval(s)", "ckpts", "fails", "utilization",
                "lost/fail(s)");
    Table& table = report.table(
        "interval_sweep",
        {"mode", "interval_factor", "interval_s", "checkpoints", "failures",
         "utilization", "work_lost_per_failure_s"});
    struct Mode {
      const char* name;
      const Costs* costs;
      double t_opt;
    };
    const Mode modes[] = {{"sync", &sync_costs, t_opt_sync},
                          {"staged", &staged_costs, t_opt_staged}};
    for (const Mode& mode : modes) {
      for (const double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        const double interval = mode.t_opt * factor;
        const LongRun run =
            simulate_long_run(work_s, interval, *mode.costs, mtbf_s, seed);
        const double lost_per_fail =
            run.failures > 0 ? run.work_lost_s / run.failures : 0.0;
        if (factor == 1.0) {
          (mode.costs == &sync_costs ? util_sync_opt : util_staged_opt) =
              run.utilization;
        }
        std::printf("%8s %9.2fx %12.1f %8d %8d %12.1f%% %15.1f\n", mode.name,
                    factor, interval, run.checkpoints, run.failures,
                    run.utilization * 100.0, lost_per_fail);
        table.row({mode.name, factor, interval, run.checkpoints, run.failures,
                   run.utilization, lost_per_fail});
      }
    }
  }

  {
    std::printf("\n--- drain-bandwidth sweep (staged, interval = T_opt) "
                "---\n");
    std::printf("%12s %12s %12s %12s %13s\n", "drain/node", "block(s)",
                "drain(s)", "T_opt(s)", "utilization");
    Table& table = report.table(
        "drain_bandwidth_sweep",
        {"drain_bandwidth_mbps", "block_s", "drain_s", "t_opt_s",
         "utilization"});
    for (const double factor : {0.25, 1.0, 4.0}) {
      Scenario s = staged_scenario;
      s.drain_bandwidth = base_drain * factor;
      const Costs costs = measure_costs(s, ntasks, bytes, scale);
      const double t_opt = young_daly_interval(costs, mtbf_s);
      const LongRun run =
          simulate_long_run(work_s, t_opt, costs, mtbf_s, seed);
      std::printf("%8.0f MB/s %12.4f %12.4f %12.1f %12.1f%%\n",
                  s.drain_bandwidth / 1.0e6, costs.block_s, costs.drain_s,
                  t_opt, run.utilization * 100.0);
      table.row({s.drain_bandwidth / 1.0e6, costs.block_s, costs.drain_s,
                 t_opt, run.utilization});
    }
  }

  {
    std::printf("\n--- protection sweep (staged, interval = T_opt): drain "
                "fans replicas out to the parallel tier ---\n");
    std::printf("%12s %12s %12s %12s %13s\n", "protection", "block(s)",
                "drain(s)", "restore(s)", "utilization");
    Table& table = report.table(
        "protection_sweep",
        {"protection", "block_s", "drain_s", "restore_s", "utilization"});
    for (const bool buddy : {false, true}) {
      Scenario s = staged_scenario;
      s.buddy = buddy;
      const Costs costs = measure_costs(s, ntasks, bytes, scale);
      const double t_opt = young_daly_interval(costs, mtbf_s);
      const LongRun run =
          simulate_long_run(work_s, t_opt, costs, mtbf_s, seed);
      const char* label = buddy ? "buddy_r2" : "none";
      std::printf("%12s %12.4f %12.4f %12.4f %12.1f%%\n", label,
                  costs.block_s, costs.drain_s, costs.restore_s,
                  run.utilization * 100.0);
      table.row({label, costs.block_s, costs.drain_s, costs.restore_s,
                 run.utilization});
    }
  }

  // The acceptance gate: staging must actually buy utilization at the
  // optimal interval, or the overlap machinery is not working.
  std::printf("\nutilization at T_opt: staged %.2f%% vs sync %.2f%%\n",
              util_staged_opt * 100.0, util_sync_opt * 100.0);
  SION_CHECK(util_staged_opt > util_sync_opt)
      << "staged utilization does not beat the synchronous baseline";
  report.set_param("utilization_sync_opt", util_sync_opt);
  report.set_param("utilization_staged_opt", util_staged_opt);

  return report.write_if_requested(opts);
}
