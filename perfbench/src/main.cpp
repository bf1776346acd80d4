// perfbench: runs one workload of the repository benchmark and prints its
// metrics. See perfbench/README.md; run.py builds this and calls
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 alternates
// untraced and traced steps on two instances, reports the per-layer
// metrics and trace.overhead, and writes the sampled raw spans to
// <out-dir>/traces/. Every run checks its outputs (statuses, read-back
// bytes, virtual results) and exits nonzero on any failure; the last line of
// stdout is one JSON object.
#include <sys/resource.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;         // set-ups per untraced run (median setup_s)
// At least 21 timed steps, so the tail percentile (the highest with 10
// samples beyond it) lies at or above the median.
constexpr std::size_t kMinSteps = 21;
constexpr std::size_t kMinTracedSteps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || kv.size() != 5) return false;
  try {
    a.workload = kv.at("--workload");
    a.seed = std::stoull(kv.at("--seed"));
    a.seconds = std::stod(kv.at("--seconds"));
    a.trace = std::stoi(kv.at("--trace"));
    a.out_dir = kv.at("--out-dir");
  } catch (const std::exception&) {
    return false;
  }
  return a.seconds > 0.0 && (a.trace == 0 || a.trace == 1) &&
         !a.out_dir.empty();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count and the like, for the human-readable log
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// Virtual results of the same seed must match across processes: the first
// run stores them, later runs compare the steps both have.
void check_against_stored(const std::string& path,
                          const std::vector<std::string>& virts,
                          Tally& tally) {
  std::vector<std::string> stored;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) stored.push_back(line);
  }
  const std::size_t common = std::min(stored.size(), virts.size());
  for (std::size_t i = 0; i < common; ++i) {
    tally.check(stored[i] == virts[i],
                "virtual result of step " + std::to_string(i) +
                    " repeats across runs of this seed");
  }
  if (virts.size() > stored.size()) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      for (const std::string& v : virts) out << v << '\n';
    }
    std::filesystem::rename(tmp, path);
  }
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const double error_rate = static_cast<double>(tally.failed()) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, tally.attempted()));
  std::printf("  %-30s %16.6f %-10s failed %" PRIu64 " of %" PRIu64
              " attempted operations\n",
              "error_rate", error_rate, "ratio", tally.failed(),
              tally.attempted());
  for (const std::string& e : tally.errors()) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            format_value(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

// ---- untraced: end-to-end metrics -----------------------------------------

std::vector<Metric> run_untraced(Workload& w, const Args& args, Tally& tally,
                                 std::vector<std::string>& virts) {
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < kSetups; ++k) {
    inst.reset();
    const std::int64_t t0 = Spans::now_ns();
    inst = w.build(nullptr);
    const StepResult warm = inst->step(tally);
    setup_s.push_back(static_cast<double>(Spans::now_ns() - t0) * 1e-9);
    if (k == 0) {
      virts.push_back(warm.virt);
    } else {
      tally.check(warm.virt == virts.front(),
                  "warm-up virtual result repeats across set-ups");
    }
  }

  std::vector<double> step_s;
  std::vector<double> write_s;
  std::vector<double> read_s;
  const std::int64_t deadline =
      Spans::now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (Spans::now_ns() < deadline || step_s.size() < kMinSteps) {
    const StepResult r = inst->step(tally);
    step_s.push_back(r.step_s);
    write_s.push_back(r.write_s);
    read_s.push_back(r.read_s);
    virts.push_back(r.virt);
  }
  inst.reset();

  const std::size_t n = step_s.size();
  const Tail t = tail(step_s).value();
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%.1f of n=%zu, %zu beyond",
                t.percentile, t.samples, t.beyond);
  return {
      {"task_steps_per_s",
       static_cast<double>(w.tasks()) * static_cast<double>(n) / sum(step_s),
       "1/s", count_note(n) + " steps of " + std::to_string(w.tasks()) +
                  " tasks"},
      {"step_p50_ms", median(step_s) * 1e3, "ms", count_note(n)},
      {"step_tail_ms", t.value * 1e3, "ms", tail_note},
      {"write_mb_per_s",
       static_cast<double>(w.write_bytes()) * static_cast<double>(n) /
           sum(write_s) / 1e6,
       "MB/s", count_note(n) + " write passes"},
      {"read_mb_per_s",
       static_cast<double>(w.read_bytes()) * static_cast<double>(n) /
           sum(read_s) / 1e6,
       "MB/s", count_note(n) + " read passes"},
      {"peak_rss_mib", peak_rss_mib(), "MiB", "getrusage high-water mark"},
      {"setup_s", median(setup_s), "s",
       count_note(setup_s.size()) + " set-ups, median"},
  };
}

// ---- traced: per-layer metrics ----------------------------------------------

struct Snapshot {
  std::array<std::uint64_t, kKinds> calls{};
  FsCounters fs;
  sion::fs::SimFs::Counters sim;
  std::uint64_t tasks = 0;
};

// SimFs counts cold opens (`opens`), hot opens by a task that already holds
// a client token (`cached_opens`) and hot opens by a new client task
// (`client_token_opens`) separately; the ratio is hot-path hits over all.
double cached_open_ratio(const sion::fs::SimFs::Counters& c) {
  const std::uint64_t all = c.opens + c.cached_opens + c.client_token_opens;
  return all == 0 ? 0.0
                  : static_cast<double>(c.cached_opens) /
                        static_cast<double>(all);
}

Snapshot snapshot(const Spans& spans, const Instance& inst) {
  Snapshot s;
  s.calls = spans.calls();
  s.fs = inst.recorder()->counters();
  if (inst.sim() != nullptr) s.sim = inst.sim()->counters();
  s.tasks = inst.tasks_run();
  return s;
}

std::vector<Metric> run_traced(Workload& w, const Args& args, Tally& tally,
                               std::vector<std::string>& virts) {
  std::vector<int> sampled;
  const int stride = std::max(1, w.tasks() / 8);
  for (int r = 0; r < w.tasks(); r += stride) sampled.push_back(r);
  sampled.push_back(w.tasks() - 1);
  Spans spans(w.tasks(), sampled);

  std::unique_ptr<Instance> plain = w.build(nullptr);
  std::unique_ptr<Instance> traced = w.build(&spans);
  const StepResult warm_plain = plain->step(tally);
  const StepResult warm_traced = traced->step(tally);
  virts.push_back(warm_plain.virt);
  tally.check(warm_traced.virt == warm_plain.virt,
              "warm-up virtual result identical traced and untraced");
  spans.reset();

  std::vector<double> plain_s;
  std::vector<double> traced_s;
  // Counts are those of the first traced step: [start, first_end].
  const Snapshot start = snapshot(spans, *traced);
  Snapshot first_end;
  StepResult first_step;
  const std::int64_t deadline =
      Spans::now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (Spans::now_ns() < deadline || traced_s.size() < kMinTracedSteps) {
    // Alternate which instance goes first so drift cancels in the ratio.
    StepResult rp;
    StepResult rt;
    if (traced_s.size() % 2 == 0) {
      rp = plain->step(tally);
      rt = traced->step(tally);
    } else {
      rt = traced->step(tally);
      rp = plain->step(tally);
    }
    if (traced_s.empty()) {
      first_end = snapshot(spans, *traced);
      first_step = rt;
    }
    tally.check(rt.virt == rp.virt, "virtual result of step " +
                                        std::to_string(traced_s.size() + 1) +
                                        " identical traced and untraced");
    plain_s.push_back(rp.step_s);
    traced_s.push_back(rt.step_s);
    virts.push_back(rp.virt);
  }
  const KernelProbe probe = w.probe_kernels(tally);

  const double steps = static_cast<double>(traced_s.size());
  const auto& self = spans.self_ns();
  const auto self_s = [&](Kind k) {
    return static_cast<double>(self[static_cast<std::size_t>(k)]) * 1e-9 /
           steps;
  };
  const auto calls = [&](Kind k) {
    const auto i = static_cast<std::size_t>(k);
    return static_cast<double>(first_end.calls[i] - start.calls[i]);
  };
  const auto fs_count = [&](std::uint64_t FsCounters::*field) {
    return static_cast<double>(first_end.fs.*field - start.fs.*field);
  };
  sion::fs::SimFs::Counters sim_delta;
  sim_delta.opens = first_end.sim.opens - start.sim.opens;
  sim_delta.cached_opens = first_end.sim.cached_opens - start.sim.cached_opens;
  sim_delta.client_token_opens =
      first_end.sim.client_token_opens - start.sim.client_token_opens;
  std::int64_t self_total = 0;
  for (const std::int64_t s : self) self_total += s;
  const double wall_ns = static_cast<double>(spans.window_ns());
  const double raw = static_cast<double>(w.write_bytes());
  const double write_ops = fs_count(&FsCounters::write_ops);

  std::filesystem::create_directories(args.out_dir + "/traces");
  const std::string trace_path = args.out_dir + "/traces/" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".json";
  std::ofstream(trace_path) << spans.chrome_trace_json();

  const std::string per_step = "per step, mean of " +
                               std::to_string(traced_s.size()) + " traced";
  const std::string counted = "count of the first traced step";
  return {
      {"par.run_s",
       static_cast<double>(
           spans.inclusive_ns()[static_cast<std::size_t>(Kind::kParRun)]) *
           1e-9 / steps,
       "s", "inclusive, " + per_step},
      {"par.self_s", self_s(Kind::kParRun), "s", per_step},
      {"par.tasks", static_cast<double>(first_end.tasks - start.tasks), "count",
       "tasks started by Engine::run, " + counted},
      {"par.virtual_s", first_step.virt_s, "s", "virtual makespan, first step"},
      {"core.open_calls", calls(Kind::kCoreOpen), "count", counted},
      {"core.open_s", self_s(Kind::kCoreOpen), "s", per_step},
      {"core.close_calls", calls(Kind::kCoreClose), "count", counted},
      {"core.close_s", self_s(Kind::kCoreClose), "s", per_step},
      {"core.write_calls", calls(Kind::kCoreWrite), "count", counted},
      {"core.write_s", self_s(Kind::kCoreWrite), "s", per_step},
      {"core.read_calls", calls(Kind::kCoreRead), "count", counted},
      {"core.read_s", self_s(Kind::kCoreRead), "s", per_step},
      {"fs.meta_ops", fs_count(&FsCounters::meta_ops), "count", counted},
      {"fs.meta_s", self_s(Kind::kFsMeta), "s", per_step},
      {"fs.write_ops", write_ops, "count", counted},
      {"fs.write_bytes", fs_count(&FsCounters::write_bytes), "B", counted},
      {"fs.write_s", self_s(Kind::kFsWrite), "s", per_step},
      {"fs.read_ops", fs_count(&FsCounters::read_ops), "count", counted},
      {"fs.read_bytes", fs_count(&FsCounters::read_bytes), "B", counted},
      {"fs.read_s", self_s(Kind::kFsRead), "s", per_step},
      {"fs.failed_ops", fs_count(&FsCounters::failed_ops), "count", counted},
      {"fs.bytes_per_write_op",
       write_ops > 0 ? fs_count(&FsCounters::write_bytes) / write_ops : 0.0,
       "B", counted},
      {"fs.sim.cached_open_ratio", cached_open_ratio(sim_delta), "ratio",
       "cached / all opens, first step; 0 = not on SimFs"},
      {"fs.sim.lock_transfers",
       static_cast<double>(first_end.sim.lock_transfers -
                           start.sim.lock_transfers),
       "count", counted},
      {"fs.sim.alloc_per_payload_byte",
       static_cast<double>(first_step.alloc_after_write) / raw, "ratio",
       "allocated_bytes / raw payload after the write pass"},
      {"ext.stream_per_raw_byte",
       fs_count(&FsCounters::primary_write_bytes) / raw, "ratio",
       "primary-file bytes / raw payload"},
      {"ext.parity_bytes", fs_count(&FsCounters::parity_write_bytes), "B",
       counted},
      {"ext.compress_mb_per_s", probe.compress_mb_per_s, "MB/s",
       "kernel probe, 0 = no ext payload"},
      {"ext.decompress_mb_per_s", probe.decompress_mb_per_s, "MB/s",
       "kernel probe"},
      {"ext.gf_mul_add_mb_per_s", probe.gf_mul_add_mb_per_s, "MB/s",
       "kernel probe"},
      {"workloads.write_s", self_s(Kind::kWorkloadsWrite), "s", per_step},
      {"workloads.restore_s", self_s(Kind::kWorkloadsRestore), "s", per_step},
      {"harness.self_s", self_s(Kind::kHarness), "s",
       "outside every span, " + per_step},
      {"trace.wall_s", wall_ns * 1e-9 / steps, "s", per_step},
      {"trace.partition_error",
       wall_ns > 0 ? std::abs(static_cast<double>(self_total) - wall_ns) /
                         wall_ns
                   : 0.0,
       "ratio", "|sum of self times - traced wall| / wall"},
      {"trace.overhead", median(traced_s) / median(plain_s) - 1.0, "ratio",
       "median step, " + count_note(traced_s.size()) + " interleaved pairs"},
  };
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n");
    return 2;
  }
  const std::string scratch = args.out_dir + "/scratch";
  std::filesystem::create_directories(scratch);
  std::filesystem::create_directories(args.out_dir + "/virtual");
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed, scratch);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tally tally;
  std::vector<std::string> virts;
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d tasks=%d\n",
              args.workload.c_str(), args.seed, args.trace, w->tasks());
  const std::vector<Metric> metrics =
      args.trace == 1 ? run_traced(*w, args, tally, virts)
                      : run_untraced(*w, args, tally, virts);
  check_against_stored(args.out_dir + "/virtual/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".txt",
                       virts, tally);
  print_result(metrics, tally);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
