// Ablation studies for design choices of this reproduction. These go
// beyond the paper's own tables:
//
//  (1) Recovery-frame overhead: the robustness extension (section 6 future
//      work) patches a 64-byte frame on every write — what does it cost?
//  (2) Staging-buffer size for the single-file-sequential baseline: the
//      "multiple gather/scatter operations" penalty as a function of buffer
//      size (why MP2C's original scheme cannot be rescued by tuning).
//  (3) Chunk-size sensitivity: the block-alignment rule rounds requests up;
//      what do misaligned chunk requests waste in time and space?
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "baseline/single_file_seq.h"
#include "common/options.h"
#include "core/api.h"

namespace {

using namespace sion;          // NOLINT(google-build-using-namespace)
using namespace sion::bench;   // NOLINT(google-build-using-namespace)

void ablation_frames(double scale, Table& table) {
  std::printf("\n--- Ablation 1: recovery-frame overhead (Jugene, 1k tasks) ---\n");
  std::printf("%10s %14s %14s %12s\n", "frames", "write time(s)", "fs writes",
              "overhead");
  const fs::SimConfig machine = fs::JugeneConfig();
  const int n = std::max(4, checked_trunc<int>(1024 * scale));
  const std::uint64_t per_task = 16 * kMiB;
  double base_time = 0;
  for (const bool frames : {false, true}) {
    fs::SimFs fs(machine);
    par::Engine engine(engine_config_for(machine));
    const double t = timed_run(engine, n, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = "fr.sion";
      spec.chunksize = 2 * kMiB;
      spec.chunk_frames = frames;
      auto sion = core::SionParFile::open_write(fs, world, spec);
      SION_CHECK(sion.ok()) << sion.status().to_string();
      world.barrier();
      // Many small-ish writes: the worst case for per-write frame patching.
      for (int i = 0; i < 16; ++i) {
        SION_CHECK(sion.value()
                       ->write(fs::DataView::fill(std::byte{'f'}, per_task / 16))
                       .ok());
      }
      SION_CHECK(sion.value()->close().ok());
    });
    if (!frames) base_time = t;
    std::printf("%10s %14.2f %14llu %11.1f%%\n", frames ? "on" : "off", t,
                static_cast<unsigned long long>(fs.counters().writes),
                (t / base_time - 1.0) * 100.0);
    table.row({frames ? "on" : "off", t, fs.counters().writes,
               (t / base_time - 1.0) * 100.0});
  }
}

void ablation_staging(double scale, Table& table) {
  std::printf("\n--- Ablation 2: single-file-seq staging buffer (Jugene, 256 tasks, 4 GiB) ---\n");
  std::printf("%12s %14s\n", "staging", "write time(s)");
  const fs::SimConfig machine = fs::JugeneConfig();
  const int n = std::max(4, checked_trunc<int>(256 * scale));
  const std::uint64_t per_task = 16 * kMiB;
  for (const std::uint64_t staging :
       {1 * kMiB, 8 * kMiB, 64 * kMiB, 512 * kMiB}) {
    fs::SimFs fs(machine);
    par::Engine engine(engine_config_for(machine));
    const double t = timed_run(engine, n, [&](par::Comm& world) {
      baseline::SingleFileSeqOptions options;
      options.staging_bytes = staging;
      SION_CHECK(baseline::write_single_file_seq(
                     fs, world, "seq.dat",
                     fs::DataView::fill(std::byte{'s'}, per_task), options)
                     .ok());
    });
    std::printf("%12s %14.2f\n", format_bytes(staging).c_str(), t);
    table.row({staging, t});
  }
  std::printf("(larger staging buffers cannot beat the single client link;\n"
              " the scheme is structurally serial)\n");
}

void ablation_chunk_request(double scale, Table& table) {
  std::printf("\n--- Ablation 3: chunk request vs 2 MiB block alignment (Jugene, 4k tasks) ---\n");
  std::printf("%16s %16s %18s\n", "request", "allocated/task", "write time(s)");
  const fs::SimConfig machine = fs::JugeneConfig();
  const int n = std::max(4, checked_trunc<int>(4096 * scale));
  for (const std::uint64_t request :
       {64 * kKiB, 2 * kMiB - 1, 2 * kMiB, 2 * kMiB + 1, 7 * kMiB}) {
    fs::SimFs fs(machine);
    par::Engine engine(engine_config_for(machine));
    // Same payload for every row: alignment rounds even a 64 KiB request up
    // to a full 2 MiB chunk, so 2 MiB always fits.
    const std::uint64_t payload = 2 * kMiB;
    const double t = timed_run(engine, n, [&](par::Comm& world) {
      core::ParOpenSpec spec;
      spec.filename = "ck.sion";
      spec.chunksize = request;
      spec.nfiles = 16;
      auto sion = core::SionParFile::open_write(fs, world, spec);
      SION_CHECK(sion.ok()) << sion.status().to_string();
      SION_CHECK(sion.value()
                     ->write(fs::DataView::fill(std::byte{'c'}, payload))
                     .ok());
      SION_CHECK(sion.value()->close().ok());
    });
    const std::uint64_t aligned = round_up(request, 2 * kMiB);
    std::printf("%16s %16s %18.2f\n", format_bytes(request).c_str(),
                format_bytes(aligned).c_str(), t);
    table.row({request, aligned, t});
  }
  std::printf("(alignment rounds every request up to whole file-system\n"
              " blocks; unused space stays sparse and costs no transfer)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"scale", "json"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const double scale = opts.get_double("scale", 1.0);
  print_header("Ablations: design-choice studies beyond the paper's tables",
               "frame overhead / staging size / chunk alignment");

  Report report("ablation", "Design-choice ablations beyond the paper");
  report.set_param("scale", scale);
  ablation_frames(scale, report.table("frames", {"frames", "write_s",
                                                 "fs_writes", "overhead_pct"}));
  ablation_staging(scale,
                   report.table("staging", {"staging_bytes", "write_s"}));
  ablation_chunk_request(
      scale, report.table("chunk_request",
                          {"request_bytes", "allocated_bytes", "write_s"}));
  return report.write_if_requested(opts);
}
