// sionrepair — reconstruct the lost metablock 2 of a multifile from the
// per-chunk recovery frames (requires the file to have been written with
// chunk frames enabled).
//
// A frame-based repair only re-derives metadata from the bytes that
// survive; when the checkpoint was written with buddy replication or ECC
// parity, a redundancy-based heal reconstructs the lost bytes themselves.
// The tool therefore reports discovered protection companions and refuses
// the weaker repair while an intact heal source exists.
//
// Usage: sionrepair [--force] <multifile>
#include <cstdio>

#include "common/options.h"
#include "ext/recovery.h"
#include "fs/posix_fs.h"

int main(int argc, char** argv) {
  const sion::Options opts(argc, argv, {"force"});
  if (const auto stop = opts.stop()) {
    std::fputs(stop->text.c_str(), stop->code == 0 ? stdout : stderr);
    return stop->code;
  }
  if (opts.positional().size() != 1) {
    std::fprintf(stderr, "usage: %s [--force] <multifile>\n",
                 opts.program().c_str());
    return 2;
  }
  const std::string& name = opts.positional()[0];
  sion::fs::PosixFs fs;

  auto companions = sion::ext::discover_protection(fs, name);
  if (!companions.ok()) {
    std::fprintf(stderr, "sionrepair: %s\n",
                 companions.status().to_string().c_str());
    return 1;
  }
  if (!companions.value().empty()) {
    std::printf("protection companions: %s\n",
                companions.value().to_string().c_str());
  }
  if (companions.value().heal_available() && !opts.get_bool("force")) {
    std::fprintf(
        stderr,
        "sionrepair: an intact heal source exists (%s); a heal "
        "reconstructs the lost bytes byte-identically, while this repair "
        "only rebuilds metadata from surviving ones. Run the protected "
        "restore (ext::Buddy::heal / ext::Ecc::heal) instead, or pass "
        "--force to repair anyway.\n",
        companions.value().to_string().c_str());
    return 1;
  }

  auto report = sion::ext::repair_multifile(fs, name);
  if (!report.ok()) {
    std::fprintf(stderr, "sionrepair: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  std::printf("physical files: %d, repaired: %d, already intact: %d, "
              "chunks recovered: %llu\n",
              report.value().physical_files, report.value().repaired_files,
              report.value().intact_files,
              static_cast<unsigned long long>(report.value().chunks_recovered));
  return 0;
}
