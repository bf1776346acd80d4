// Table 2: "Scalasca trace measurement activation time with and without
// SIONlib for a 32 K core run of SMG2000".
//
// Paper: 32 Ki tasks, aggregate trace size 1470 GB, 16 underlying physical
// files. Activation (creating the trace files and initialising tracing) was
// 369.1 s with task-local files and 28.1 s with SIONlib (13.1x, with the
// pure file creation consuming ~1 s); write bandwidth was 2153 vs
// 2194 MB/s — slightly *improved* by SIONlib.
//
// Deviation note: our write-bandwidth rows are higher in absolute terms
// because we model the trace flush as a dedicated I/O phase, whereas in the
// paper trace writes were interleaved with the running application; the
// comparison that matters — task-local vs SIONlib nearly equal, SIONlib
// slightly ahead — is preserved. See EXPERIMENTS.md.
#include "bench_util.h"
#include "common/options.h"
#include "workloads/tracer.h"

namespace {

using namespace sion;          // NOLINT(google-build-using-namespace)
fs::SimConfig g_machine;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

struct Point {
  double activation_s;
  double write_mbps;
};

Point run_point(TraceBackend backend, int ntasks, std::uint64_t total_bytes,
                int nfiles) {
  const fs::SimConfig machine = g_machine;
  fs::SimFs fs(machine);
  par::Engine engine(engine_config_for(machine));
  const std::uint64_t per_task =
      total_bytes / static_cast<std::uint64_t>(ntasks);

  TracerSpec spec;
  spec.path = backend == TraceBackend::kSion ? "trace.sion" : "trace";
  spec.backend = backend;
  spec.nfiles = nfiles;
  spec.buffer_bytes = per_task;
  spec.synthetic_bytes = per_task;
  // Measurement-system init beyond file creation ("the pure file creation
  // consuming roughly 1 s" of the 28.1 s SIONlib activation).
  spec.init_seconds = 26.0;

  // Both phases run inside one engine invocation; barriers delimit them so
  // the phase times are the max over all tasks, like an MPI benchmark.
  Point p{};
  engine.run(ntasks, [&](par::Comm& world) {
    world.barrier();
    const double t0 = par::this_task()->now();
    auto tracer = Tracer::open(fs, world, spec);
    SION_CHECK(tracer.ok()) << tracer.status().to_string();
    world.barrier();
    const double t1 = par::this_task()->now();
    SION_CHECK(tracer.value()->flush_and_close().ok());
    world.barrier();
    const double t2 = par::this_task()->now();
    if (world.rank() == 0) {
      p.activation_s = t1 - t0;
      p.write_mbps = mbps(total_bytes, t2 - t1);
    }
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
  const int ntasks = std::max(16, checked_trunc<int>(32768 * scale));
  const auto total = static_cast<std::uint64_t>(
      1470.0 * static_cast<double>(kGiB) * scale);
  g_machine = scaled_machine(fs::JugeneConfig(), scale);

  print_header("Table 2: Scalasca trace activation time (32k-core SMG2000)",
               "activation 369.1 s (task-local) vs 28.1 s (SIONlib) = "
               "13.1x; write bandwidth 2153 vs 2194 MB/s");

  // Constructed before the sweep so host.wall_seconds covers it.
  Report report("table2_scalasca", "Scalasca trace measurement activation");
  report.set_param("scale", scale);
  report.set_param("ntasks", ntasks);

  const Point tl = run_point(TraceBackend::kTaskLocal, ntasks, total, 16);
  const Point sion = run_point(TraceBackend::kSion, ntasks, total, 16);

  std::printf("%12s %8s %12s %16s %12s\n", "I/O type", "#tasks", "trace size",
              "activation (s)", "write MB/s");
  // File-creation cost scales with task count; the fixed init cost does
  // not, so only the creation part is rescaled when running reduced.
  const auto rescale = [&](double activation) {
    return (activation - 26.0) / scale + 26.0;
  };
  std::printf("%12s %8s %12s %16.1f %12.1f\n", "Task-local",
              human_tasks(ntasks).c_str(), format_bytes(total).c_str(),
              rescale(tl.activation_s), tl.write_mbps);
  std::printf("%12s %8s %12s %16.1f %12.1f\n", "SIONlib",
              human_tasks(ntasks).c_str(), format_bytes(total).c_str(),
              rescale(sion.activation_s), sion.write_mbps);
  std::printf("activation improvement: %.1fx (paper: 13.1x)\n",
              rescale(tl.activation_s) / rescale(sion.activation_s));

  Table& table = report.table(
      "activation", {"io_type", "activation_s", "write_mbps"});
  table.row({"task-local", rescale(tl.activation_s), tl.write_mbps});
  table.row({"sionlib", rescale(sion.activation_s), sion.write_mbps});
  return report.write_if_requested(opts);
}
