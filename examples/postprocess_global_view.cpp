// Serial postprocessing of a multifile (paper sections 3.2.3/3.2.4 and 3.3):
// a parallel run writes a multifile with recovery frames enabled; a serial
// program then opens the *global view*, computes per-rank statistics via
// sion_get_locations-style metadata, reassembles the whole payload serially
// through ext::Remap (the N->1 restart), dumps the structure, splits one
// rank out, defragments the whole set — and finally demonstrates sionrepair
// on a deliberately "crashed" copy.
//
//   $ ./postprocess_global_view [--ntasks=16]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "ext/recovery.h"
#include "ext/remap.h"
#include "fs/sim/machine.h"
#include "fs/sim/simfs.h"
#include "par/comm.h"
#include "par/engine.h"
#include "tools/defrag.h"
#include "tools/dump.h"
#include "tools/split.h"

using namespace sion;  // NOLINT(google-build-using-namespace)

int main(int argc, char** argv) {
  const Options opts(argc, argv, {"ntasks"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  const int ntasks = static_cast<int>(opts.get_u64("ntasks", 16));

  fs::SimFs fs(fs::TestbedConfig());
  par::Engine engine;
  bool all_ok = true;

  // Parallel phase: every task writes a different volume (so the multifile
  // has gaps worth defragmenting), with chunk frames for repairability.
  engine.run(ntasks, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "run.sion";
    spec.chunksize = 8 * kKiB;
    spec.fsblksize = 4 * kKiB;
    spec.nfiles = 2;
    spec.chunk_frames = true;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    if (!sion.ok()) {
      all_ok = false;
      return;
    }
    std::vector<std::byte> data(
        1000 * static_cast<std::size_t>(world.rank() + 1));
    Rng rng(static_cast<std::uint64_t>(world.rank()));
    rng.fill_bytes(data);
    all_ok &= sion.value()->write(fs::DataView(data)).ok();
    all_ok &= sion.value()->close().ok();
  });

  // ---- global view: statistics over all logical files --------------------
  auto view = core::SionSerialFile::open_read(fs, "run.sion");
  if (!view.ok()) {
    std::fprintf(stderr, "open_read: %s\n", view.status().to_string().c_str());
    return 1;
  }
  const auto& loc = view.value()->locations();
  std::uint64_t total = 0;
  std::uint64_t largest = 0;
  int largest_rank = 0;
  for (int r = 0; r < loc.nranks; ++r) {
    std::uint64_t rank_bytes = 0;
    for (auto b : loc.bytes_written[static_cast<std::size_t>(r)]) {
      rank_bytes += b;
    }
    total += rank_bytes;
    if (rank_bytes > largest) {
      largest = rank_bytes;
      largest_rank = r;
    }
  }
  std::printf("global view: %d logical files, %s payload, largest is rank %d "
              "(%s)\n",
              loc.nranks, format_bytes(total).c_str(), largest_rank,
              format_bytes(largest).c_str());
  all_ok &= view.value()->close().ok();

  // ---- N->1 restart: the serial edge of ext::Remap -----------------------
  // The same global-view metadata lets a one-task "job" reassemble the full
  // concatenated payload — every rank's bytes in rank order — e.g. to feed
  // a serial analysis tool.
  std::vector<std::byte> assembled;
  engine.run(1, [&](par::Comm& solo) {
    auto remap = ext::Remap::open(fs, solo, "run.sion");
    if (!remap.ok()) {
      all_ok = false;
      return;
    }
    assembled.resize(remap.value()->total_bytes());
    all_ok &= remap.value()->restore(assembled, assembled.size()).ok();
    all_ok &= remap.value()->close().ok();
  });
  bool concat_ok = assembled.size() == total;
  for (std::uint64_t off = 0, r = 0; concat_ok && r < std::uint64_t(ntasks);
       ++r) {
    std::vector<std::byte> expect(1000 * (r + 1));
    Rng rng(r);
    rng.fill_bytes(expect);
    concat_ok &= std::equal(expect.begin(), expect.end(),
                            assembled.begin() + static_cast<std::ptrdiff_t>(off));
    off += expect.size();
  }
  std::printf("serial N->1 restart: reassembled %s, byte-identical: %s\n",
              format_bytes(assembled.size()).c_str(),
              concat_ok ? "yes" : "NO");
  all_ok &= concat_ok;

  // ---- the three command-line utilities, as library calls ----------------
  auto dump = tools::dump_multifile(fs, "run.sion");
  if (dump.ok()) {
    std::printf("\nsiondump:\n%s", dump.value().c_str());
  }
  auto split = tools::split_multifile(fs, "run.sion", "extracted",
                                      {.only_rank = largest_rank});
  std::printf("\nsionsplit: extracted %d file(s) for rank %d\n",
              split.value_or(0), largest_rank);
  all_ok &= split.ok();
  all_ok &= tools::defrag_multifile(fs, "run.sion", "compact.sion").ok();
  std::printf("siondefrag: run.sion -> compact.sion (%s -> %s on disk)\n",
              format_bytes(fs.stat_path("run.sion.000000").value().size +
                           fs.stat_path("run.sion.000001").value().size)
                  .c_str(),
              format_bytes(fs.stat_path("compact.sion.000000").value().size +
                           fs.stat_path("compact.sion.000001").value().size)
                  .c_str());

  // ---- crash + repair -----------------------------------------------------
  // Write another multifile but "crash" before close: metablock 2 missing.
  engine.run(ntasks, [&](par::Comm& world) {
    core::ParOpenSpec spec;
    spec.filename = "crashed.sion";
    spec.chunksize = 8 * kKiB;
    spec.fsblksize = 4 * kKiB;
    spec.chunk_frames = true;
    auto sion = core::SionParFile::open_write(fs, world, spec);
    if (!sion.ok()) {
      all_ok = false;
      return;
    }
    std::vector<std::byte> data(5000, static_cast<std::byte>(world.rank()));
    all_ok &= sion.value()->write(fs::DataView(data)).ok();
    // no close(): simulated premature termination
  });
  const bool unreadable = !core::SionSerialFile::open_read(fs, "crashed.sion").ok();
  auto report = ext::repair_multifile(fs, "crashed.sion");
  const bool repaired =
      report.ok() && core::SionSerialFile::open_read(fs, "crashed.sion").ok();
  std::printf("sionrepair: crashed multifile unreadable=%s, repaired=%s "
              "(%llu chunks recovered)\n",
              unreadable ? "yes" : "NO?", repaired ? "yes" : "NO",
              report.ok() ? static_cast<unsigned long long>(
                                report.value().chunks_recovered)
                          : 0ULL);
  all_ok &= unreadable && repaired;

  std::printf("\n%s\n", all_ok ? "postprocessing demo OK" : "FAILED");
  return all_ok ? 0 : 1;
}
