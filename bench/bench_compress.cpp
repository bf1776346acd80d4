// Transparent compression on the checkpoint stream path: the Scalasca
// trace workload (paper section 5.2 — the paper reports zlib shrinking
// trace data "by a factor of five or more") written through the same
// CheckpointSession with and without ext/compress.h slz framing.
//
// Reported per mode: compression ratio (raw bytes / stream bytes on disk),
// application-level write and read-back bandwidth in decimal MB/s of *raw*
// payload moved. Hard gates (SION_CHECK): the trace payload must compress
// better than 1.5x, and compressed write throughput must stay within 20%
// of the uncompressed run — compression that slows the write path down
// defeats its purpose on a bandwidth-bound machine.
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/options.h"
#include "ext/compress.h"
#include "workloads/checkpoint.h"
#include "workloads/tracer.h"

namespace {

using namespace sion;             // NOLINT(google-build-using-namespace)
using namespace sion::bench;      // NOLINT(google-build-using-namespace)
using namespace sion::workloads;  // NOLINT(google-build-using-namespace)

fs::SimConfig g_machine;

struct Point {
  double write_s = 0.0;
  double read_s = 0.0;
};

std::vector<std::byte> trace_payload(int rank, std::uint64_t nevents) {
  return trace_serialize(trace_generate(rank, nevents, 0x5CA1A5CA));
}

Point run_point(bool compressed, int ntasks, std::uint64_t nevents) {
  fs::SimFs fs(g_machine);
  par::Engine engine(engine_config_for(g_machine));
  CheckpointSpec spec;
  spec.path = "trace.ckpt";
  spec.nfiles = std::max(1, ntasks / 16);
  if (compressed) spec.compression = ext::CompressionSpec{};

  Point p;
  p.write_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    const auto payload = trace_payload(world.rank(), nevents);
    SION_CHECK(write_checkpoint(fs, world, spec, fs::DataView(payload)).ok());
  });
  fs.drop_caches();
  p.read_s = timed_run(engine, ntasks, [&](par::Comm& world) {
    const auto payload = trace_payload(world.rank(), nevents);
    std::vector<std::byte> back(payload.size());
    SION_CHECK(
        read_checkpoint(fs, world, spec, payload.size(), back).ok());
    SION_CHECK(back == payload)
        << "restored trace differs on rank " << world.rank();
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
  const int ntasks = std::max(4, checked_trunc<int>(256 * scale));
  const auto nevents = static_cast<std::uint64_t>(
      std::max(2000.0, 100000.0 * scale));
  g_machine = scaled_machine(fs::JugeneConfig(), scale);

  print_header("Transparent compression: Scalasca trace checkpoint",
               "trace data compresses 5x+ with zlib (section 5.2); slz "
               "trades ratio for a dependency-free deterministic codec");

  Report report("compress", "slz frame compression on the checkpoint path");
  report.set_param("scale", scale);
  report.set_param("ntasks", ntasks);
  report.set_param("nevents_per_task", nevents);

  // The stream bytes that land on disk, summed serially over ranks: the
  // same deterministic payload and framing the timed runs push through the
  // write path, so the ratio is exact, not sampled.
  std::uint64_t raw_total = 0;
  std::uint64_t framed_total = 0;
  for (int r = 0; r < ntasks; ++r) {
    const auto payload = trace_payload(r, nevents);
    auto framed = ext::compress_stream(payload, {});
    SION_CHECK(framed.ok()) << framed.status().to_string();
    raw_total += payload.size();
    framed_total += framed.value().size();
  }
  const double ratio = framed_total > 0
                           ? static_cast<double>(raw_total) /
                                 static_cast<double>(framed_total)
                           : 0.0;

  const Point plain = run_point(false, ntasks, nevents);
  const Point z = run_point(true, ntasks, nevents);

  const double plain_write = mbps(raw_total, plain.write_s);
  const double plain_read = mbps(raw_total, plain.read_s);
  const double z_write = mbps(raw_total, z.write_s);
  const double z_read = mbps(raw_total, z.read_s);

  std::printf("%14s %8s %12s %8s %12s %12s\n", "mode", "#tasks", "raw bytes",
              "ratio", "write MB/s", "read MB/s");
  std::printf("%14s %8s %12s %8.2f %12.1f %12.1f\n", "uncompressed",
              human_tasks(ntasks).c_str(), format_bytes(raw_total).c_str(),
              1.0, plain_write, plain_read);
  std::printf("%14s %8s %12s %8.2f %12.1f %12.1f\n", "compressed",
              human_tasks(ntasks).c_str(), format_bytes(raw_total).c_str(),
              ratio, z_write, z_read);

  // The acceptance gates: a codec or framing change that drops the trace
  // ratio below 1.5x, or makes compressed writes >20% slower than raw
  // writes, fails the benchmark (and CI's bench-smoke with it).
  SION_CHECK(ratio > 1.5) << "trace compression ratio regressed: " << ratio;
  SION_CHECK(z_write >= 0.8 * plain_write)
      << "compressed write throughput " << z_write << " MB/s fell below 80% "
      << "of uncompressed " << plain_write << " MB/s";

  Table& table = report.table(
      "compress", {"mode", "ratio", "write_mbps", "read_mbps"});
  table.row({"uncompressed", 1.0, plain_write, plain_read});
  table.row({"compressed", ratio, z_write, z_read});
  return report.write_if_requested(opts);
}
